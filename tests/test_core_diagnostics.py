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


class TestRecordedAccessProbabilities:
    """Each speculative or pruned decision carries the probability its
    window computed; the spies below see what the eq. 1 scan consumed,
    independently of what the planner reports."""

    @staticmethod
    def explain_with_spies(tree, query, k, monkeypatch):
        from repro.core import search as search_mod

        windows = []
        plan, scan = search_mod._plan_window, search_mod.cost_balance_window

        def spy_plan(t, q, pivot, page_mindists, processed, bound, k_,
                     forbidden=frozenset()):
            windows.append(
                {
                    "state": (q.copy(), pivot, page_mindists.copy(),
                              processed.copy(), bound, k_),
                    "asked": [],
                }
            )
            return plan(t, q, pivot, page_mindists, processed, bound, k_,
                        forbidden=forbidden)

        def spy_scan(pivot, n_blocks, probability, model,
                     forbidden=frozenset()):
            def asked(block):
                prob = probability(block)
                windows[-1]["asked"].append((block, prob))
                return prob

            return scan(pivot, n_blocks, asked, model, forbidden=forbidden)

        monkeypatch.setattr(search_mod, "_plan_window", spy_plan)
        monkeypatch.setattr(search_mod, "cost_balance_window", spy_scan)
        explanation = explain_query(tree, query, k=k)
        monkeypatch.undo()
        return explanation, windows

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_values_are_the_window_snapshot_probabilities(
        self, monkeypatch, k
    ):
        from repro.costmodel.access_probability import (
            PageView,
            access_probabilities,
        )

        tree = IQTree.build(np.random.default_rng(0).random((3000, 8)))
        query = np.random.default_rng(0).random(8)
        explanation, windows = self.explain_with_spies(
            tree, query, k, monkeypatch
        )
        expected = {}
        for window in windows:
            q, pivot, mindists, processed, bound, k_ = window["state"]
            pending = ~processed
            if np.isfinite(bound):
                pending &= mindists <= bound
            pending[pivot] = True
            idx = np.flatnonzero(pending)
            view = PageView(
                lowers=tree._lowers[idx],
                uppers=tree._uppers[idx],
                counts=tree._counts[idx].astype(np.float64),
                mindists=mindists[idx],
            )
            for block, prob in window["asked"]:
                if not pending[block]:
                    assert prob == 0.0
                    continue
                snap = np.array([np.searchsorted(idx, block)])
                want = float(
                    access_probabilities(
                        q, view, snap, metric=tree.metric, k=k_
                    )[0]
                )
                assert prob == want
                expected[block] = want
        outcomes = {"speculative": 0, "pruned": 0}
        for decision in explanation.decisions:
            if decision.outcome == "pivot":
                assert decision.access_probability is None
                continue
            assert decision.access_probability == expected.get(
                decision.page
            )
            if decision.access_probability is not None:
                outcomes[decision.outcome] += 1
        assert outcomes["speculative"] > 0 and outcomes["pruned"] > 0

    def test_cache_hits_plan_no_window(self, monkeypatch):
        tree = IQTree.build(np.random.default_rng(0).random((3000, 8)))
        query = np.random.default_rng(1).random(8)
        tree.use_decoded_cache(1 << 24)
        explain_query(tree, query, k=3)
        warm, windows = self.explain_with_spies(tree, query, 3, monkeypatch)
        assert windows == []
        assert all(d.access_probability is None for d in warm.decisions)


class TestDecodedPages:
    """Reading a page and decoding it are separate decisions: a page
    the window read whose turn never came is wasted I/O, and the
    telemetry says which."""

    @pytest.fixture
    def pq_tree(self):
        from repro.datasets import gaussian_clusters

        data = gaussian_clusters(
            n=3000, seed=7, dim=12, n_clusters=60, spread=1e-3
        )
        return IQTree.build(data, codec="pq"), data

    @pytest.mark.parametrize("k", [1, 10])
    def test_undecoded_reads_lie_beyond_the_kth_distance(self, pq_tree, k):
        tree, data = pq_tree
        wasted = 0
        for query in data[::500] + 1e-3:
            explanation = explain_query(tree, query, k=k)
            kth = explanation.result_distances[-1]
            for d in explanation.decisions:
                if d.outcome == "pruned":
                    assert not d.decoded
                elif not d.decoded:
                    # Its entry never popped: the search stopped first.
                    assert d.mindist > kth
                    wasted += 1
        assert wasted > 0

    def test_decoded_count_in_summary(self, pq_tree):
        tree, data = pq_tree
        explanation = explain_query(tree, data[0] + 1e-3, k=3)
        assert 0 < explanation.pages_decoded < explanation.pages_read
        assert f"{explanation.pages_decoded} decoded" in (
            explanation.summary()
        )


class TestConcurrentExplanations:
    """Each explanation records its own search: concurrent calls leave
    the search module as it was and explain what a serial call does."""

    def test_two_threads_match_serial_runs(self):
        import sys
        import threading

        from repro.core import search as search_mod

        hooks = ("_load_pages", "_plan_window", "_process_page")
        originals = [getattr(search_mod, name) for name in hooks]
        tree = IQTree.build(np.random.default_rng(4).random((4000, 8)))
        queries = np.random.default_rng(5).random((40, 8))
        serial = [explain_query(tree, q, k=5) for q in queries]
        got = [None] * len(queries)

        def explain(positions):
            for i in positions:
                got[i] = explain_query(tree, queries[i], k=5)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(
                    target=explain, args=(range(start, len(queries), 2),)
                )
                for start in (0, 1)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert [getattr(search_mod, name) for name in hooks] == originals
        for want, have in zip(serial, got):
            assert have.decisions == want.decisions
            assert np.array_equal(have.result_ids, want.result_ids)
            assert np.array_equal(
                have.result_distances, want.result_distances
            )
            assert have.refinements == want.refinements
            # A delta of the shared disk clock: equal up to rounding.
            assert have.elapsed == pytest.approx(want.elapsed, rel=1e-9)
