"""Tests for the batch query engine (``repro.engine``).

The engine must return *exactly* what the single-query APIs return --
same ids, same distances, same order -- while doing strictly less
simulated I/O than a sequential loop over the same queries.  Both
properties are acceptance criteria of the batch-engine milestone and
are asserted here at tier-1 scale.
"""

import numpy as np
import pytest

from repro.core.tree import IQTree
from repro.engine import BatchResult, QueryEngine
from repro.exceptions import SearchError
from repro.storage.cache import BufferPool
from repro.storage.disk import DiskModel, SimulatedDisk
from tests.scenarios import assert_matches_scan


def make_disk() -> SimulatedDisk:
    return SimulatedDisk(
        DiskModel(t_seek=0.0025, t_xfer=0.0002, block_size=2048)
    )


@pytest.fixture
def data(rng) -> np.ndarray:
    return rng.random((1200, 8)).astype(np.float32).astype(np.float64)


@pytest.fixture
def queries(rng, data) -> np.ndarray:
    return rng.random((12, 8))


@pytest.fixture
def tree(data) -> IQTree:
    return IQTree.build(data, disk=make_disk())


@pytest.fixture
def quantized_tree(data) -> IQTree:
    """A tree whose pages all need third-level refinement (g=5)."""
    return IQTree.build(
        data, disk=make_disk(), optimize=False, fixed_bits=5
    )


class TestKnnBatchCorrectness:
    @pytest.mark.parametrize("k", [1, 4, 10])
    def test_matches_single_query_api(self, tree, queries, k):
        results = QueryEngine(tree).knn_batch(queries, k=k)
        assert len(results) == len(queries)
        for query, got in zip(queries, results):
            assert_matches_scan(tree, query, got, k=k)

    def test_matches_on_quantized_pages(self, quantized_tree, queries):
        results = QueryEngine(quantized_tree).knn_batch(queries, k=6)
        for query, got in zip(queries, results):
            ref = quantized_tree.nearest(query, k=6)
            assert np.array_equal(got.ids, ref.ids)
            assert np.allclose(got.distances, ref.distances)

    def test_single_query_batch(self, tree, queries):
        got = QueryEngine(tree).knn_batch(queries[:1], k=3)[0]
        ref = tree.nearest(queries[0], k=3)
        assert np.array_equal(got.ids, ref.ids)

    def test_matches_after_deletions(self, quantized_tree, queries):
        for pid in range(0, 200, 3):
            quantized_tree.delete(pid)
        results = QueryEngine(quantized_tree).knn_batch(queries, k=5)
        for query, got in zip(queries, results):
            assert_matches_scan(quantized_tree, query, got, k=5)

    def test_k_beyond_live_points_raises(self, rng):
        """Deleted rows still count in ``n_points``; k is checked
        against the points still indexed, so ``k=20`` on 10 live
        points raises instead of returning 10 ids."""
        data = rng.random((40, 4))
        tree = IQTree.build(
            data, disk=make_disk(), optimize=False, fixed_bits=4
        )
        for pid in range(30):
            tree.delete(pid)
        engine = QueryEngine(tree)
        queries = rng.random((2, 4))
        for res in engine.knn_batch(queries, k=tree.n_live_points):
            assert np.array_equal(np.sort(res.ids), np.arange(30, 40))
        with pytest.raises(SearchError, match="10 indexed points"):
            engine.knn_batch(queries, k=20)


class TestRangeBatchCorrectness:
    def test_matches_single_query_api_exactly(self, tree, queries):
        results = QueryEngine(tree).range_batch(queries, 0.35)
        for query, got in zip(queries, results):
            assert_matches_scan(tree, query, got, radius=0.35)

    def test_matches_on_quantized_pages(self, quantized_tree, queries):
        results = QueryEngine(quantized_tree).range_batch(queries, 0.4)
        for query, got in zip(queries, results):
            ref = quantized_tree.range_query(query, 0.4)
            assert np.array_equal(got.ids, ref.ids)
            assert np.allclose(got.distances, ref.distances)

    def test_per_query_radii(self, tree, queries):
        radii = np.linspace(0.1, 0.5, queries.shape[0])
        results = QueryEngine(tree).range_batch(queries, radii)
        for query, radius, got in zip(queries, radii, results):
            ref = tree.range_query(query, float(radius))
            assert np.array_equal(got.ids, ref.ids)

    def test_zero_radius_empty_results(self, tree, queries):
        results = QueryEngine(tree).range_batch(queries, 0.0)
        for got in results:
            assert got.ids.size == 0


class TestBatchBeatsSequential:
    """The ISSUE acceptance criterion at test scale."""

    def test_fewer_seeks_and_lower_io_time(self, data, queries):
        seq_tree = IQTree.build(data, disk=make_disk())
        before = seq_tree.disk.stats
        seq_elapsed0, seq_seeks0 = before.elapsed, before.seeks
        for query in queries:
            seq_tree.disk.park()
            seq_tree.nearest(query, k=5)
        seq_elapsed = seq_tree.disk.stats.elapsed - seq_elapsed0
        seq_seeks = seq_tree.disk.stats.seeks - seq_seeks0

        bat_tree = IQTree.build(data, disk=make_disk())
        result = QueryEngine(bat_tree).knn_batch(queries, k=5)
        assert result.stats.io.seeks < seq_seeks
        assert result.stats.io.elapsed < seq_elapsed

    def test_range_batch_also_wins(self, data, queries):
        seq_tree = IQTree.build(data, disk=make_disk())
        start = seq_tree.disk.stats.elapsed
        for query in queries:
            seq_tree.disk.park()
            seq_tree.range_query(query, 0.3)
        seq_elapsed = seq_tree.disk.stats.elapsed - start

        bat_tree = IQTree.build(data, disk=make_disk())
        result = QueryEngine(bat_tree).range_batch(queries, 0.3)
        assert result.stats.io.elapsed < seq_elapsed


class TestStats:
    def test_batch_stats_accounting(self, quantized_tree, queries):
        result = QueryEngine(quantized_tree).knn_batch(queries, k=5)
        stats = result.stats
        assert stats.n_queries == len(queries)
        assert 0 < stats.pages_read <= quantized_tree.n_pages
        assert stats.refinements > 0
        assert stats.bytes_transferred == (
            stats.io.blocks_read
            * quantized_tree.disk.model.block_size
        )
        assert stats.mean_time == pytest.approx(
            stats.io.elapsed / len(queries)
        )

    def test_query_stats_sane(self, quantized_tree, queries):
        result = QueryEngine(quantized_tree).knn_batch(queries, k=5)
        for got in result:
            assert got.stats.candidate_pages >= 1
            assert got.stats.candidate_points >= got.stats.refinements
            assert got.stats.refinements >= 0

    def test_shared_pages_fetched_once(self, quantized_tree, queries):
        """A page needed by many queries is transferred once."""
        result = QueryEngine(quantized_tree).knn_batch(queries, k=5)
        total_candidate_pages = sum(
            r.stats.candidate_pages for r in result
        )
        assert result.stats.pages_read < total_candidate_pages

    def test_batch_result_container(self, tree, queries):
        result = QueryEngine(tree).knn_batch(queries[:3], k=2)
        assert isinstance(result, BatchResult)
        assert len(result) == 3
        assert [r.ids.size for r in result] == [2, 2, 2]
        assert result[2].ids.size == 2


class TestBufferPoolIntegration:
    def test_warm_batch_is_all_hits(self, data, queries):
        tree = IQTree.build(data, disk=make_disk())
        engine = QueryEngine(tree, pool=4096)
        engine.knn_batch(queries, k=5)
        warm = QueryEngine(tree).knn_batch(queries, k=5)
        assert warm.stats.io.blocks_read == 0
        assert warm.stats.pool_misses == 0
        assert warm.stats.pool_hits > 0
        assert warm.stats.pool_hit_rate == 1.0

    def test_hit_rate_consistent_with_disk_ledger(self, data, queries):
        """Exact counters: on a cold pool, every miss is a transferred
        requested block.  Gap blocks over-read by the Section 2 plan are
        transferred without ever being requested, so they appear in the
        disk ledger but not in the pool counters."""
        tree = IQTree.build(data, disk=make_disk())
        engine = QueryEngine(tree, pool=4096)
        result = engine.knn_batch(queries, k=5)
        io = result.stats.io
        assert result.stats.pool_misses == (
            io.blocks_read - io.blocks_overread
        )
        assert result.stats.pool_hits == 0

    def test_shared_pool_across_engines(self, data, queries):
        pool = BufferPool(4096)
        tree_a = IQTree.build(data, disk=make_disk())
        tree_b = IQTree.build(data, disk=make_disk())
        QueryEngine(tree_a, pool=pool).knn_batch(queries, k=3)
        engine_b = QueryEngine(tree_b, pool=pool)
        assert engine_b.pool is pool
        result = engine_b.knn_batch(queries, k=3)
        assert result.stats.n_queries == len(queries)

    def test_engine_without_pool_reports_zero_pool_traffic(
        self, tree, queries
    ):
        result = QueryEngine(tree).knn_batch(queries, k=3)
        assert result.stats.pool_hits == 0
        assert result.stats.pool_misses == 0
        assert result.stats.pool_hit_rate == 0.0

    def test_tree_query_engine_convenience(self, tree, queries):
        engine = tree.query_engine(pool=64)
        assert isinstance(engine, QueryEngine)
        assert engine.pool is tree._pool
        result = engine.knn_batch(queries[:2], k=1)
        assert len(result) == 2


class TestValidation:
    def test_rejects_k_below_one(self, tree, queries):
        with pytest.raises(SearchError):
            QueryEngine(tree).knn_batch(queries, k=0)

    def test_rejects_k_above_n_points(self, tree, queries):
        with pytest.raises(SearchError):
            QueryEngine(tree).knn_batch(queries, k=tree.n_points + 1)

    def test_rejects_bad_query_shape(self, tree):
        with pytest.raises(SearchError):
            QueryEngine(tree).knn_batch(np.zeros((2, 3)), k=1)
        with pytest.raises(SearchError):
            QueryEngine(tree).knn_batch(np.zeros(8), k=1)

    def test_rejects_non_finite_queries(self, tree, queries):
        bad = queries.copy()
        bad[0, 0] = np.nan
        with pytest.raises(SearchError):
            QueryEngine(tree).knn_batch(bad, k=1)

    def test_rejects_negative_radius(self, tree, queries):
        with pytest.raises(SearchError):
            QueryEngine(tree).range_batch(queries, -0.1)
        radii = np.full(queries.shape[0], 0.2)
        radii[3] = -0.01
        with pytest.raises(SearchError):
            QueryEngine(tree).range_batch(queries, radii)

    def test_rejects_infinite_radius(self, tree, queries):
        with pytest.raises(SearchError):
            QueryEngine(tree).range_batch(queries, np.inf)

    def test_empty_batch(self, tree):
        result = QueryEngine(tree).knn_batch(
            np.empty((0, tree.dim)), k=2
        )
        assert len(result) == 0
        assert result.stats.mean_time == 0.0
