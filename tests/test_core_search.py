"""Tests for IQ-tree nearest-neighbor and range search: exact answers
on fixed trees (the contract of :func:`tests.scenarios.
assert_matches_scan`), ordering, schedulers and I/O accounting."""

import numpy as np
import pytest

from repro.core.tree import IQTree
from repro.geometry.metrics import EUCLIDEAN
from repro.storage.disk import SimulatedDisk
from tests.scenarios import assert_matches_scan


@pytest.fixture
def tree(uniform_points, small_disk):
    return IQTree.build(uniform_points, disk=small_disk)


class TestNearestCorrectness:
    @pytest.mark.parametrize("scheduler", ["optimized", "standard"])
    def test_single_nn_matches_brute_force(self, tree, rng, scheduler):
        for q in rng.random((10, 8)):
            res = tree.nearest(q, scheduler=scheduler)
            assert_matches_scan(tree, q, res, k=1)

    @pytest.mark.parametrize("k", [1, 3, 10, 25])
    def test_knn_matches_brute_force(self, tree, rng, k):
        q = rng.random(8)
        assert_matches_scan(tree, q, tree.nearest(q, k=k), k=k)

    def test_distances_sorted(self, tree, rng):
        res = tree.nearest(rng.random(8), k=7)
        assert np.all(np.diff(res.distances) >= 0)

    def test_query_far_outside_data_space(self, tree):
        q = np.full(8, 10.0)
        assert_matches_scan(tree, q, tree.nearest(q, k=2), k=2)

    def test_query_on_data_point(self, tree):
        q = tree.points[123]
        res = tree.nearest(q, k=1)
        assert res.distances[0] == 0.0

    def test_max_metric_tree(self, uniform_points, small_disk):
        tree = IQTree.build(
            uniform_points, disk=small_disk, metric="maximum"
        )
        for q in np.random.default_rng(0).random((5, 8)):
            assert_matches_scan(tree, q, tree.nearest(q, k=3), k=3)

    def test_no_quantization_tree_correct(self, uniform_points, small_disk):
        tree = IQTree.build(
            uniform_points, disk=small_disk, optimize=False
        )
        q = np.random.default_rng(1).random(8)
        res = tree.nearest(q, k=5)
        assert_matches_scan(tree, q, res, k=5)
        assert res.refinements == 0  # exact pages never refine

    def test_clustered_data_correct(self, clustered_points, small_disk):
        tree = IQTree.build(clustered_points, disk=small_disk)
        for q in np.random.default_rng(2).random((5, 6)):
            assert_matches_scan(tree, q, tree.nearest(q, k=4), k=4)


class TestSchedulers:
    def test_both_schedulers_agree(self, tree, rng):
        for q in rng.random((5, 8)):
            for scheduler in ("optimized", "standard"):
                res = tree.nearest(q, k=3, scheduler=scheduler)
                assert_matches_scan(tree, q, res, k=3)

    def test_optimized_no_slower_on_average(self, tree, rng):
        queries = rng.random((15, 8))
        opt_total = std_total = 0.0
        for q in queries:
            tree.disk.park()
            opt_total += tree.nearest(q, scheduler="optimized").io.elapsed
            tree.disk.park()
            std_total += tree.nearest(q, scheduler="standard").io.elapsed
        assert opt_total <= std_total * 1.05

    def test_standard_reads_one_page_per_seek(self, tree, rng):
        q = rng.random(8)
        tree.disk.park()
        res = tree.nearest(q, scheduler="standard")
        # Standard scheduling never over-reads.
        assert res.io.blocks_overread == 0


class TestIOAccounting:
    def test_io_delta_positive(self, tree, rng):
        res = tree.nearest(rng.random(8))
        assert res.io.elapsed > 0
        assert res.io.blocks_read >= 1

    def test_pages_read_bounded(self, tree, rng):
        res = tree.nearest(rng.random(8))
        assert 1 <= res.pages_read <= tree.n_pages

    def test_directory_charge_toggle(self, uniform_points, small_disk):
        charged = IQTree.build(uniform_points, disk=small_disk)
        free = IQTree.build(
            uniform_points,
            disk=SimulatedDisk(small_disk.model),
            charge_directory=False,
        )
        q = np.full(8, 0.5)
        charged.disk.park()
        free.disk.park()
        t_charged = charged.nearest(q).io.elapsed
        t_free = free.nearest(q).io.elapsed
        assert t_charged > t_free


class TestRangeSearch:
    @pytest.mark.parametrize("radius", [0.0, 0.2, 0.5, 1.2])
    def test_matches_brute_force(self, tree, rng, radius):
        q = rng.random(8)
        res = tree.range_query(q, radius)
        assert_matches_scan(tree, q, res, radius=radius)

    def test_distances_reported_sorted_and_true(self, tree, rng):
        q = rng.random(8)
        res = tree.range_query(q, 0.8)
        assert np.all(np.diff(res.distances) >= 0)
        # Reported distances are the true query-to-point distances.
        expected = EUCLIDEAN.distances(q, tree.points[res.ids])
        assert np.allclose(res.distances, expected)

    def test_empty_result(self, tree):
        q = np.full(8, 50.0)
        res = tree.range_query(q, 0.1)
        assert res.ids.size == 0

    def test_whole_space_radius(self, tree):
        q = np.full(8, 0.5)
        res = tree.range_query(q, 10.0)
        assert res.ids.size == tree.n_points

    def test_uses_batched_fetch(self, tree):
        q = np.full(8, 0.5)
        tree.disk.park()
        res = tree.range_query(q, 10.0)
        # Reading every page must not pay one seek per page.
        assert res.io.seeks < tree.n_pages / 2 + 2
