"""Tests for the query-explanation diagnostics."""

import numpy as np
import pytest

from repro.exceptions import SearchError
from repro.core.diagnostics import explain_query
from repro.core.tree import IQTree


@pytest.fixture
def tree(uniform_points, small_disk):
    return IQTree.build(uniform_points, disk=small_disk)


class TestExplainQuery:
    def test_result_matches_normal_query(self, tree, rng):
        q = rng.random(8)
        explanation = explain_query(tree, q, k=3)
        normal = tree.nearest(q, k=3)
        assert np.array_equal(explanation.result_ids, normal.ids)
        assert np.allclose(
            explanation.result_distances, normal.distances
        )

    def test_every_page_classified_once(self, tree, rng):
        explanation = explain_query(tree, rng.random(8))
        assert len(explanation.decisions) == tree.n_pages
        assert explanation.pages_read + explanation.pages_pruned == (
            tree.n_pages
        )

    def test_read_pages_have_order(self, tree, rng):
        explanation = explain_query(tree, rng.random(8))
        orders = [
            d.order
            for d in explanation.decisions
            if d.outcome != "pruned"
        ]
        assert sorted(orders) == list(range(len(orders)))

    def test_at_least_one_pivot(self, tree, rng):
        explanation = explain_query(tree, rng.random(8))
        assert any(d.outcome == "pivot" for d in explanation.decisions)

    def test_pruned_pages_are_far(self, tree, rng):
        q = rng.random(8)
        explanation = explain_query(tree, q, k=1)
        if explanation.pages_pruned == 0:
            pytest.skip("no pruning for this query at this scale")
        worst_result = explanation.result_distances[-1]
        for d in explanation.decisions:
            if d.outcome == "pruned":
                assert d.mindist >= worst_result - 1e-9

    def test_summary_text(self, tree, rng):
        text = explain_query(tree, rng.random(8)).summary()
        assert "pages" in text and "ms simulated" in text

    def test_bad_query_shape(self, tree):
        with pytest.raises(SearchError):
            explain_query(tree, np.zeros(2))

    def test_clustered_query_shows_pruning(self, clustered_points, small_disk):
        tree = IQTree.build(clustered_points, disk=small_disk)
        # A query inside one cluster should never touch the others.
        explanation = explain_query(tree, np.full(6, 0.2))
        assert explanation.pages_pruned > 0


class TestExplainUnderFaultsAndCache:
    """Every page the search loads is classified, whichever way the
    loader reaches it."""

    @pytest.fixture
    def big_tree(self):
        points = np.random.default_rng(0).random((3000, 8))
        return IQTree.build(points)

    @staticmethod
    def outcomes(explanation):
        counts = {"pivot": 0, "speculative": 0, "pruned": 0}
        for decision in explanation.decisions:
            counts[decision.outcome] += 1
        return counts

    def test_fault_context_matches_plain_run(self, big_tree):
        q = np.random.default_rng(1).random(8)
        plain = explain_query(big_tree, q, k=3)
        big_tree.use_fault_tolerance()
        guarded = explain_query(big_tree, q, k=3)
        assert self.outcomes(plain)["pivot"] >= 1
        assert self.outcomes(guarded) == self.outcomes(plain)
        assert [d.order for d in guarded.decisions] == [
            d.order for d in plain.decisions
        ]

    def test_decoded_cache_hits_count_as_pivots(self, big_tree):
        q = np.random.default_rng(1).random(8)
        big_tree.use_decoded_cache(1 << 24)
        cold = explain_query(big_tree, q, k=3)
        assert self.outcomes(cold) == self.outcomes(
            explain_query(IQTree.build(big_tree.points), q, k=3)
        )
        warm = explain_query(big_tree, q, k=3)
        counts = self.outcomes(warm)
        # Every page of the warm run is a cache hit: one pivot per step.
        assert counts["speculative"] == 0
        assert counts["pivot"] == big_tree.nearest(q, k=3).pages_read
        assert counts["pivot"] + counts["pruned"] == big_tree.n_pages
        assert np.array_equal(warm.result_ids, cold.result_ids)
