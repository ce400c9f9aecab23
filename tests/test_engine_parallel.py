"""Parallel batch serving must be bit-identical to serial execution.

The worker pool shards only pure CPU phases; every simulated-I/O charge
and every shared-state side effect stays on the coordinator.  These
tests pin the consequence: for any worker count and either executor
backend (threads or processes), a batch returns the same results,
charges the same I/O ledger, and lands the same values in every
observability counter -- including under read-path fault injection,
where degraded results and session counters must also agree.
"""

import numpy as np
import pytest

from repro.core.tree import IQTree
from repro.engine import DecodedPageCache, QueryEngine, WorkerPool
from repro.exceptions import SearchError
from repro.obs.instruments import REGISTRY
from repro.storage.cache import BufferPool
from repro.storage.disk import DiskModel, IOStats, SimulatedDisk
from repro.storage.runtime_faults import ReadFaultInjector
from tests.scenarios import assert_matches_scan


def make_disk() -> SimulatedDisk:
    return SimulatedDisk(
        DiskModel(t_seek=0.0025, t_xfer=0.0002, block_size=2048)
    )


@pytest.fixture
def data(rng) -> np.ndarray:
    return rng.random((1500, 8)).astype(np.float32).astype(np.float64)


@pytest.fixture
def queries(rng) -> np.ndarray:
    return rng.random((13, 8))


def build_tree(data) -> IQTree:
    return IQTree.build(data, disk=make_disk(), optimize=False, fixed_bits=5)


@pytest.fixture
def live_registry():
    REGISTRY.reset()
    REGISTRY.enable()
    try:
        yield REGISTRY
    finally:
        REGISTRY.disable()
        REGISTRY.reset()


def ledger_tuple(io: IOStats) -> tuple:
    return (io.seeks, io.blocks_read, io.blocks_overread, io.elapsed)


# Module-level worker functions: picklable, so they run on either
# backend (closures and lambdas are thread-only).
def _square_shard(shard, ledger):
    return [x * x for x in shard]


def _scaled_shard(task, shard, ledger):
    return [task["scale"] * x for x in shard]


def _charge_shard(shard, ledger):
    for x in shard:
        ledger.seeks += 1
        ledger.blocks_read += x
        ledger.elapsed += 0.5
    return list(shard)


def _boom_every_shard(shard, ledger):
    raise ValueError(f"shard at {shard[0]} failed")


class TestWorkerPool:
    def test_workers_must_be_positive(self):
        with pytest.raises(SearchError):
            WorkerPool(0)

    def test_backend_validated_and_auto_resolved(self):
        with pytest.raises(SearchError):
            WorkerPool(2, backend="fiber")
        assert WorkerPool(1).backend == "thread"
        assert WorkerPool(4).backend == "process"
        assert WorkerPool(4, backend="thread").backend == "thread"
        assert "backend" in repr(WorkerPool(4))

    def test_sharding_is_contiguous_balanced_deterministic(self):
        pool = WorkerPool(4)
        shards = pool.shard(list(range(10)))
        assert [len(s) for s in shards] == [3, 3, 2, 2]
        assert [x for s in shards for x in s] == list(range(10))
        assert pool.shard(list(range(10))) == shards  # pure function
        assert pool.shard([]) == []
        assert pool.shard([7]) == [[7]]

    def test_fewer_items_than_workers(self):
        shards = WorkerPool(8).shard([1, 2, 3])
        assert shards == [[1], [2], [3]]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_map_sharded_preserves_item_order(self, workers, backend):
        pool = WorkerPool(workers, backend=backend)
        results, merged = pool.map_sharded(_square_shard, range(23))
        assert results == [x * x for x in range(23)]
        assert ledger_tuple(merged) == (0, 0, 0, 0.0)
        pool.close()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_task_payload_shared_by_every_shard(self, backend):
        pool = WorkerPool(3, backend=backend)
        results, _ = pool.map_sharded(
            _scaled_shard, range(10), task={"scale": 7}
        )
        assert results == [7 * x for x in range(10)]
        pool.close()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_ledgers_merge_in_shard_order(self, backend):
        serial = WorkerPool(1).map_sharded(_charge_shard, range(9))
        pool = WorkerPool(3, backend=backend)
        parallel = pool.map_sharded(_charge_shard, range(9))
        pool.close()
        assert serial[0] == parallel[0]
        assert ledger_tuple(serial[1]) == ledger_tuple(parallel[1])
        assert parallel[1].seeks == 9
        assert parallel[1].blocks_read == sum(range(9))

    def test_worker_exception_propagates(self):
        def boom(shard, ledger):
            if 5 in shard:
                raise ValueError("shard failure")
            return list(shard)

        with pytest.raises(ValueError, match="shard failure"):
            WorkerPool(3, backend="thread").map_sharded(boom, range(9))

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_concurrent_failures_are_aggregated(self, backend):
        """Satellite regression: when several shards fail, only the
        first exception used to surface -- the other shards' failures
        vanished.  Now they ride along as ``__notes__`` entries."""
        pool = WorkerPool(2, backend=backend)
        with pytest.raises(ValueError, match="shard at 0 failed") as info:
            pool.map_sharded(_boom_every_shard, range(4))
        pool.close()
        notes = getattr(info.value, "__notes__", [])
        assert any(
            "shard 1 also failed" in note and "shard at 2 failed" in note
            for note in notes
        )

    def test_unpicklable_task_raises_search_error(self):
        pool = WorkerPool(2, backend="process")
        with pytest.raises(SearchError, match="picklable"):
            pool.map_sharded(lambda s, led: list(s), range(8))
        pool.close()

    def test_close_is_idempotent_and_reusable(self):
        pool = WorkerPool(2, backend="thread")
        pool.map_sharded(lambda s, led: list(s), range(4))
        pool.close()
        pool.close()
        results, _ = pool.map_sharded(lambda s, led: list(s), range(4))
        assert results == [0, 1, 2, 3]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_single_shard_runs_inline(self, backend):
        # One shard never pays an executor hop -- lambdas work even on
        # the process backend because nothing crosses a process.
        pool = WorkerPool(4, backend=backend)
        results, _ = pool.map_sharded(lambda s, led: list(s), [42])
        assert results == [42]
        assert pool._executor is None
        pool.close()


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_knn_results_and_ledger_match_serial(
        self, data, queries, workers
    ):
        baseline = QueryEngine(build_tree(data), workers=1)
        base = baseline.knn_batch(queries, k=6)
        engine = QueryEngine(build_tree(data), workers=workers)
        got = engine.knn_batch(queries, k=6)
        assert got.stats.workers == workers
        for b, g in zip(base, got):
            assert np.array_equal(b.ids, g.ids)
            assert np.array_equal(b.distances, g.distances)
            assert b.stats == g.stats
        assert ledger_tuple(base.stats.io) == ledger_tuple(got.stats.io)
        assert base.stats.pages_read == got.stats.pages_read
        assert base.stats.refinements == got.stats.refinements
        engine.close()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_range_results_and_ledger_match_serial(
        self, data, queries, workers
    ):
        base = QueryEngine(build_tree(data), workers=1).range_batch(
            queries, 0.35
        )
        got = QueryEngine(build_tree(data), workers=workers).range_batch(
            queries, 0.35
        )
        for b, g in zip(base, got):
            assert np.array_equal(b.ids, g.ids)
            assert np.array_equal(b.distances, g.distances)
        assert ledger_tuple(base.stats.io) == ledger_tuple(got.stats.io)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_obs_counters_match_serial(
        self, data, queries, workers, live_registry
    ):
        QueryEngine(build_tree(data), workers=1).knn_batch(queries, k=4)
        serial_counters = live_registry.collect()
        live_registry.reset()
        QueryEngine(build_tree(data), workers=workers).knn_batch(
            queries, k=4
        )
        assert live_registry.collect() == serial_counters

    def test_matches_single_query_api(self, data, queries):
        tree = build_tree(data)
        engine = QueryEngine(tree, workers=4)
        for query, got in zip(queries, engine.knn_batch(queries, k=5)):
            assert_matches_scan(tree, query, got, k=5)

    def test_pool_accounting_matches_serial(self, data, queries):
        ledgers = []
        for workers in (1, 4):
            tree = build_tree(data)
            engine = QueryEngine(tree, pool=128, workers=workers)
            engine.knn_batch(queries, k=4)
            stats = engine.knn_batch(queries, k=4).stats
            ledgers.append(
                (stats.pool_hits, stats.pool_misses, ledger_tuple(stats.io))
            )
        assert ledgers[0] == ledgers[1]


class TestChaosEquivalence:
    """Fault injection: degraded results must not depend on workers."""

    def faulted_setup(self, data):
        tree = build_tree(data)
        # Aim persistent faults at one quantized and one exact block.
        inj = ReadFaultInjector()
        inj.fail_always(tree._quant_file.extent_start + 1)
        inj.fail_always(tree._exact_file.extent_start)
        tree.disk.install_fault_injector(inj)
        ctx = tree.use_fault_tolerance()
        return tree, ctx

    @pytest.mark.parametrize("workers", [2, 4])
    def test_degraded_batch_matches_serial(self, data, queries, workers):
        tree_s, ctx_s = self.faulted_setup(data)
        base = QueryEngine(tree_s, workers=1).knn_batch(queries, k=6)
        tree_p, ctx_p = self.faulted_setup(data)
        got = QueryEngine(tree_p, workers=workers).knn_batch(queries, k=6)
        for b, g in zip(base, got):
            assert np.array_equal(b.ids, g.ids)
            assert np.array_equal(b.distances, g.distances)
            assert b.degraded == g.degraded
            assert b.intervals == g.intervals
            assert b.lost_pages == g.lost_pages
            if b.certain is None:
                assert g.certain is None
            else:
                assert np.array_equal(b.certain, g.certain)
        assert ledger_tuple(base.stats.io) == ledger_tuple(got.stats.io)
        # Session counters advanced identically.
        assert (
            ctx_s.retries,
            ctx_s.quarantined,
            ctx_s.degraded_results,
            ctx_s.lost_pages,
        ) == (
            ctx_p.retries,
            ctx_p.quarantined,
            ctx_p.degraded_results,
            ctx_p.lost_pages,
        )
        assert base.stats.degraded and got.stats.degraded

    @pytest.mark.parametrize("workers", [2, 4])
    def test_chaos_obs_counters_match_serial(
        self, data, queries, workers, live_registry
    ):
        tree_s, _ = self.faulted_setup(data)
        QueryEngine(tree_s, workers=1).knn_batch(queries, k=6)
        serial_counters = live_registry.collect()
        live_registry.reset()
        tree_p, _ = self.faulted_setup(data)
        QueryEngine(tree_p, workers=workers).knn_batch(queries, k=6)
        assert live_registry.collect() == serial_counters


class TestBackendSweep:
    """Property-style sweep of the determinism contract.

    For workers in {1, 2, 4} x backend in {thread, process} x fault
    injection {off, on}: knn and range batch results, the IOStats
    ledger, the fault-context session counters, and every observability
    counter must be bit-identical to the serial (workers=1) run.
    """

    GRID = [
        (1, "thread"),
        (2, "thread"),
        (4, "thread"),
        (2, "process"),
        (4, "process"),
    ]

    def run_once(self, data, queries, workers, backend, faults, registry):
        tree = build_tree(data)
        ctx = None
        if faults:
            inj = ReadFaultInjector()
            inj.fail_always(tree._quant_file.extent_start + 1)
            inj.fail_always(tree._exact_file.extent_start)
            tree.disk.install_fault_injector(inj)
            ctx = tree.use_fault_tolerance()
        with QueryEngine(tree, workers=workers, backend=backend) as engine:
            knn = engine.knn_batch(queries, k=6)
            rng_res = engine.range_batch(queries, 0.35)
        counters = registry.collect()
        registry.reset()
        session = (
            (ctx.retries, ctx.quarantined, ctx.degraded_results,
             ctx.lost_pages)
            if ctx is not None
            else None
        )
        return knn, rng_res, counters, session

    @staticmethod
    def assert_batches_identical(base, got):
        assert len(base) == len(got)
        for b, g in zip(base, got):
            assert np.array_equal(b.ids, g.ids)
            assert np.array_equal(b.distances, g.distances)
            assert b.stats == g.stats
            assert b.degraded == g.degraded
            assert b.intervals == g.intervals
            assert b.lost_pages == g.lost_pages
            if b.certain is None:
                assert g.certain is None
            else:
                assert np.array_equal(b.certain, g.certain)
        assert ledger_tuple(base.stats.io) == ledger_tuple(got.stats.io)
        assert base.stats.pages_read == got.stats.pages_read
        assert base.stats.refinements == got.stats.refinements
        assert base.stats.degraded_results == got.stats.degraded_results
        assert base.stats.lost_pages == got.stats.lost_pages

    @pytest.mark.parametrize("faults", [False, True])
    def test_sweep_is_bit_identical_to_serial(
        self, data, queries, faults, live_registry
    ):
        base_knn, base_rng, base_counters, base_session = self.run_once(
            data, queries, 1, "thread", faults, live_registry
        )
        for workers, backend in self.GRID[1:]:
            knn, rng_res, counters, session = self.run_once(
                data, queries, workers, backend, faults, live_registry
            )
            self.assert_batches_identical(base_knn, knn)
            self.assert_batches_identical(base_rng, rng_res)
            assert session == base_session, (workers, backend)
            assert counters == base_counters, (workers, backend)


class TestDecodedCacheInEngine:
    def test_warm_batch_skips_page_transfers(self, data, queries):
        engine = QueryEngine(build_tree(data), workers=2, decode_cache=1 << 24)
        cold = engine.knn_batch(queries, k=5)
        warm = engine.knn_batch(queries, k=5)
        assert cold.stats.pages_read > 0
        assert warm.stats.pages_read == 0
        assert warm.stats.decoded_pages_reused == cold.stats.pages_read
        assert warm.stats.decode_reuse_rate == 1.0
        # Quantized-page transfers are gone (the third-level refetch
        # may cost one extra seek, so compare blocks, not elapsed).
        assert warm.stats.io.blocks_read < cold.stats.io.blocks_read
        for c, w in zip(cold, warm):
            assert np.array_equal(c.ids, w.ids)
            assert np.array_equal(c.distances, w.distances)

    def test_cache_shared_between_engine_and_single_queries(
        self, data, queries
    ):
        tree = build_tree(data)
        cache = DecodedPageCache(1 << 24)
        engine = QueryEngine(tree, workers=2, decode_cache=cache)
        engine.knn_batch(queries, k=5)
        before = tree.disk.stats.blocks_read
        res = tree.nearest(queries[0], k=5)
        # The single query decoded nothing new at the quantized level:
        # only directory + third-level transfers were charged.
        assert cache.hits > 0
        assert res.ids.size == 5
        assert tree.disk.stats.blocks_read > before  # but not pages

    def test_warm_results_identical_under_chaos(self, data, queries):
        tree = build_tree(data)
        inj = ReadFaultInjector()
        inj.fail_always(tree._quant_file.extent_start + 1)
        tree.disk.install_fault_injector(inj)
        tree.use_fault_tolerance()
        engine = QueryEngine(tree, workers=4, decode_cache=1 << 24)
        cold = engine.knn_batch(queries, k=6)
        warm = engine.knn_batch(queries, k=6)
        for c, w in zip(cold, warm):
            assert np.array_equal(c.ids, w.ids)
            assert np.array_equal(c.distances, w.distances)
            assert c.lost_pages == w.lost_pages

    def test_query_engine_forwarding(self, data):
        tree = build_tree(data)
        engine = tree.query_engine(pool=64, workers=3, decode_cache=1 << 20)
        assert engine.workers == 3
        assert engine.backend == "process"  # auto resolves for workers>1
        assert isinstance(engine.pool, BufferPool)
        assert isinstance(engine.decode_cache, DecodedPageCache)
        assert tree.decoded_cache is engine.decode_cache
        threaded = tree.query_engine(workers=2, backend="thread")
        assert threaded.backend == "thread"

    def test_invalid_workers_rejected(self, data):
        with pytest.raises(SearchError):
            QueryEngine(build_tree(data), workers=0)
