"""Tests for incremental distance browsing and the batch/cost APIs."""

import numpy as np
import pytest

from repro.exceptions import SearchError
from repro.core.tree import IQTree
from tests.scenarios import assert_matches_scan, browsed


@pytest.fixture
def tree(uniform_points, small_disk):
    return IQTree.build(uniform_points[:800], disk=small_disk)


class TestBrowse:
    def test_full_ranking_matches_sort(self, tree, rng):
        q = rng.random(8)
        ranked = browsed(tree, q, None)
        assert_matches_scan(tree, q, ranked, k=tree.n_points)

    def test_prefix_matches_knn(self, tree, rng):
        q = rng.random(8)
        first, knn = browsed(tree, q, 10), tree.nearest(q, k=10)
        assert first.ids.tolist() == knn.ids.tolist()
        assert first.distances.tobytes() == knn.distances.tobytes()

    def test_lazy_io(self, tree, rng):
        """Stopping early must cost less than ranking everything."""
        q = rng.random(8)
        tree.disk.park()
        before = tree.disk.stats.elapsed
        next(iter(tree.browse(q)))
        cost_one = tree.disk.stats.elapsed - before
        tree.disk.park()
        before = tree.disk.stats.elapsed
        list(tree.browse(q))
        cost_all = tree.disk.stats.elapsed - before
        assert cost_one < cost_all

    def test_bad_query_shape(self, tree):
        with pytest.raises(SearchError):
            next(iter(tree.browse(np.zeros(3))))

    def test_browse_on_exact_tree(self, uniform_points, small_disk):
        tree = IQTree.build(
            uniform_points[:300], disk=small_disk, optimize=False
        )
        q = np.full(8, 0.5)
        assert_matches_scan(tree, q, browsed(tree, q, 5), k=5)


class TestEstimatedCost:
    def test_breakdown_positive_and_consistent(self, tree):
        est = tree.estimated_query_cost()
        assert est.first_level > 0
        assert est.second_level > 0
        assert est.refinement >= 0
        assert est.total == pytest.approx(
            est.first_level + est.second_level + est.refinement
        )

    def test_prediction_in_range_of_measurement(self, tree, rng):
        """Model predictions should land within an order of magnitude
        of measured simulated time on well-behaved uniform data."""
        est = tree.estimated_query_cost().total
        times = []
        for _ in range(10):
            q = rng.random(8)
            tree.disk.park()
            times.append(tree.nearest(q).io.elapsed)
        measured = float(np.mean(times))
        assert est / 10 < measured < est * 10

    def test_estimate_is_what_optimizer_minimized(self, tree):
        assert tree.trace is not None
        assert tree.estimated_query_cost().total == pytest.approx(
            min(tree.trace.costs), rel=1e-6
        )
