"""Sharded scatter-gather serving: parity, determinism, failover.

The :class:`~repro.engine.ShardRouter` contract mirrors the worker
pool's (see ``test_engine_parallel.py``) one level up: for a fixed
shard count, results, the merged ``IOStats`` ledger, and every
observability counter are bit-identical for any worker count, either
backend, and under read-path fault injection; across shard counts the
*answers* are identical to the plain single-tree engine.  A dead shard
degrades to lost-page bounds that provably contain the truth instead
of failing the batch.

The bugfix-sweep regressions ride along here because the router is
what exposed them: ``SharedArena`` teardown on abnormal batches,
``BatchStats.merge_shards`` accounting, and the decoded-cache
resident-bytes gauge on repeated attach/detach.
"""

import gc
import glob
import json
import os
import tempfile

import numpy as np
import pytest

from repro.chaos import check_answer, point_pages
from repro.core.tree import IQTree
from repro.engine import QueryEngine, ShardRouter
from repro.engine.page_cache import DecodedPageCache
from repro.engine.sharding import partition_directory
from repro.engine.shm import SharedArena
from repro.engine.stats import BatchStats
from repro.exceptions import QueryDataError, SearchError, StorageError
from repro.obs.instruments import DECODED_CACHE_BYTES, REGISTRY
from repro.obs.tracing import SpanIO, trace_query
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


def arena_files() -> set:
    """Every arena file currently on disk (both candidate directories)."""
    found = set()
    for directory in ("/dev/shm", tempfile.gettempdir()):
        found.update(glob.glob(os.path.join(directory, "iq-arena-*")))
    return found


# Module-level so it pickles to process workers by qualified name.
def _boom_plan_shard(task, shard, ledger):
    raise StorageError("injected plan-phase failure")


class TestPartitionDirectory:
    def test_groups_cover_pages_disjointly_and_evenly(self, data):
        tree = build_tree(data)
        for n_shards in (1, 2, 3, tree.n_pages):
            groups = partition_directory(tree, n_shards)
            sizes = [len(g) for g in groups]
            assert max(sizes) - min(sizes) <= 1
            merged = np.concatenate(groups)
            assert sorted(merged.tolist()) == list(range(tree.n_pages))
            for g in groups:
                assert np.array_equal(g, np.sort(g))  # original order

    def test_clamps_to_page_count(self, data):
        tree = build_tree(data)
        groups = partition_directory(tree, tree.n_pages + 50)
        assert len(groups) == tree.n_pages

    def test_is_deterministic(self, data):
        tree = build_tree(data)
        a = partition_directory(tree, 3)
        b = partition_directory(tree, 3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_rejects_non_positive_shards(self, data):
        with pytest.raises(SearchError):
            partition_directory(build_tree(data), 0)


class TestAnswerParity:
    """Merged answers must equal the scan's, any S."""

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_knn_answers_match_engine(self, data, queries, n_shards):
        tree = build_tree(data)
        with ShardRouter(tree, shards=n_shards) as router:
            got = router.knn_batch(queries, k=6)
        assert got.routing is not None
        for query, answer in zip(queries, got):
            assert_matches_scan(tree, query, answer, k=6)
        assert got.stats.n_queries == queries.shape[0]

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_range_answers_match_engine(self, data, queries, n_shards):
        tree = build_tree(data)
        with ShardRouter(tree, shards=n_shards) as router:
            got = router.range_batch(queries, 0.35)
        for query, answer in zip(queries, got):
            assert_matches_scan(tree, query, answer, radius=0.35)

    def test_single_shard_ledger_is_bit_identical(self, data, queries):
        """S=1 re-lays the directory in original page order on a fresh
        disk of the same model, so even the I/O ledger must match a
        fresh copy of the source tree exactly."""
        with ShardRouter(build_tree(data), shards=1) as router:
            got = router.knn_batch(queries, k=6)
        base = build_tree(data).query_engine().knn_batch(queries, k=6)
        assert ledger_tuple(base.stats.io) == ledger_tuple(got.stats.io)
        assert base.stats.pages_read == got.stats.pages_read
        assert base.stats.refinements == got.stats.refinements

    def test_pruning_reports_skipped_visits(self, clustered_points):
        data = clustered_points
        tree = build_tree(data)
        queries = data[:9]
        with ShardRouter(tree, shards=4) as router:
            got = router.knn_batch(queries, k=3)
        assert got.routing.skipped > 0
        assert got.routing.contacted.max() <= router.n_shards
        assert len(got.routing.shard_seconds) > 0

    def test_validation(self, data, queries):
        router = ShardRouter(build_tree(data), shards=2)
        with pytest.raises(SearchError):
            router.knn_batch(queries, k=0)
        with pytest.raises(SearchError):
            router.knn_batch(queries, k=data.shape[0] + 1)
        with pytest.raises(SearchError):
            router.range_batch(queries, -1.0)
        router.close()


class TestDeterminismSweep:
    """shards x workers x backend x faults: bit-identical, always.

    The router analogue of ``TestBackendSweep`` one file over: for a
    fixed shard count, the merged results, ledger, and observability
    counters must not depend on how many workers execute the per-query
    kernels, which executor backend runs them, or whether the shard
    trees are running under read-path fault injection.
    """

    GRID = [
        (1, "thread"),
        (2, "thread"),
        (4, "thread"),
        (2, "process"),
        (4, "process"),
    ]

    def run_once(
        self, data, queries, n_shards, workers, backend, faults, registry
    ):
        router = ShardRouter(
            build_tree(data), shards=n_shards, workers=workers,
            backend=backend,
        )
        if faults:
            # One persistent quantized-page fault per shard tree, at a
            # deterministic address, with a fault context attached so
            # the shard degrades instead of raising.
            for shard in router.shards:
                inj = ReadFaultInjector()
                inj.fail_always(shard.tree._quant_file.extent_start)
                shard.tree.disk.install_fault_injector(inj)
            router.use_fault_tolerance()
        knn = router.knn_batch(queries, k=6)
        rng_res = router.range_batch(queries, 0.35)
        router.close()
        counters = registry.collect()
        registry.reset()
        return knn, rng_res, counters

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
        assert base.stats.lost_pages == got.stats.lost_pages
        assert base.routing.visit_order == got.routing.visit_order
        assert np.array_equal(base.routing.contacted, got.routing.contacted)
        assert base.routing.skipped == got.routing.skipped
        assert base.routing.dead == got.routing.dead

    @pytest.mark.parametrize("faults", [False, True])
    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_sweep_is_bit_identical_across_workers_and_backends(
        self, data, queries, n_shards, faults, live_registry
    ):
        base_knn, base_rng, base_counters = self.run_once(
            data, queries, n_shards, 1, "thread", faults, live_registry
        )
        if faults:
            assert base_knn.stats.degraded
        for workers, backend in self.GRID[1:]:
            knn, rng_res, counters = self.run_once(
                data, queries, n_shards, workers, backend, faults,
                live_registry,
            )
            assert knn.stats.workers == workers
            self.assert_batches_identical(base_knn, knn)
            self.assert_batches_identical(base_rng, rng_res)
            assert counters == base_counters, (workers, backend)


class TestDeadShardFailover:
    def test_dead_shard_degrades_and_contains_truth(self, data, queries):
        tree = build_tree(data)
        baseline = tree.query_engine().knn_batch(queries, k=5)
        router = ShardRouter(tree, shards=3)
        router.kill_shard(0)
        got = router.knn_batch(queries, k=5)
        assert 0 in got.routing.dead
        assert got.stats.lost_pages > 0
        assert got.stats.degraded
        pages = point_pages(tree)
        for q, b, g in zip(queries, baseline, got):
            assert check_answer(tree, q, g, b, pages=pages) == []
        router.close()

    def test_revive_restores_exact_answers(self, data, queries):
        tree = build_tree(data)
        baseline = tree.query_engine().knn_batch(queries, k=5)
        router = ShardRouter(tree, shards=3)
        router.kill_shard(1)
        router.knn_batch(queries, k=5)
        router.revive_shard(1)
        got = router.knn_batch(queries, k=5)
        assert got.routing.dead == ()
        for b, g in zip(baseline, got):
            assert np.array_equal(b.ids, g.ids)
            assert np.array_equal(b.distances, g.distances)
            assert not g.degraded
        router.close()

    def test_all_shards_dead_still_answers_with_bounds(self, data, queries):
        router = ShardRouter(build_tree(data), shards=2)
        router.kill_shard(0)
        router.kill_shard(1)
        got = router.knn_batch(queries, k=5)
        assert got.routing.dead == (0, 1)
        for g in got:
            assert g.degraded
            assert g.ids.size == 0
            assert len(g.lost_pages) > 0
        assert got.stats.n_queries == queries.shape[0]
        router.close()

    def test_failing_shard_degrades_like_a_dead_one(self, data, queries):
        """A shard whose engine raises a StorageError mid-batch (fault
        injection with no fault context attached) must degrade, not
        fail the whole scatter-gather."""
        router = ShardRouter(build_tree(data), shards=3)
        victim = router.shards[2]
        inj = ReadFaultInjector()
        for block in range(
            victim.tree._quant_file.extent_start,
            victim.tree._quant_file.extent_start
            + victim.tree._quant_file.n_blocks,
        ):
            inj.fail_always(block)
        victim.tree.disk.install_fault_injector(inj)
        got = router.knn_batch(queries, k=5)
        assert 2 in got.routing.dead
        assert got.stats.lost_pages > 0
        router.close()

    def test_dead_shard_results_are_deterministic(self, data, queries):
        runs = []
        for _ in range(2):
            router = ShardRouter(build_tree(data), shards=3)
            router.kill_shard(0)
            runs.append(router.knn_batch(queries, k=5))
            router.close()
        a, b = runs
        for x, y in zip(a, b):
            assert np.array_equal(x.ids, y.ids)
            assert x.lost_pages == y.lost_pages
        assert ledger_tuple(a.stats.io) == ledger_tuple(b.stats.io)
        assert a.stats.lost_pages == b.stats.lost_pages

    def test_point_pages_match_shard_pages(self, data):
        """A lost page's global index names the page of its points."""
        tree = build_tree(data)
        pages = point_pages(tree)
        router = ShardRouter(tree, shards=3)
        for shard in router.shards:
            for local, opt in enumerate(shard.tree._partitions):
                assert np.all(
                    pages[opt.partition.indices] == shard.pages[local]
                )
        router.close()


class TestMergeShards:
    """Satellite regressions: the merge maths the router relies on."""

    @staticmethod
    def stats(**over) -> BatchStats:
        base = dict(
            n_queries=4,
            io=IOStats(),
            pages_read=2,
            refinements=3,
            bytes_transferred=4096,
            pool_hits=1,
            pool_misses=2,
            retries=1,
            quarantined=1,
            degraded_results=1,
            lost_pages=1,
            decoded_pages_reused=5,
            workers=4,
        )
        base.update(over)
        return BatchStats(**base)

    def test_empty_shard_list_yields_zero_rates_not_nan(self):
        merged = BatchStats.merge_shards([], n_queries=7, workers=2)
        assert merged.n_queries == 7
        assert merged.workers == 2
        assert merged.pages_read == 0
        assert merged.decode_reuse_rate == 0.0
        assert merged.pool_hit_rate == 0.0
        assert merged.mean_time == 0.0
        assert not merged.degraded

    def test_counters_sum_and_workers_is_explicit(self):
        a = self.stats(workers=1)
        b = self.stats(workers=8, pool_hits=10, retries=6, lost_pages=2)
        merged = BatchStats.merge_shards([a, b], n_queries=4, workers=3)
        # workers comes from the shared pool, not the last shard.
        assert merged.workers == 3
        assert merged.n_queries == 4  # not summed across shards
        assert merged.pages_read == 4
        assert merged.refinements == 6
        assert merged.bytes_transferred == 8192
        assert merged.pool_hits == 11
        assert merged.pool_misses == 4
        # Fault counters sum, not overwrite.
        assert merged.retries == 7
        assert merged.quarantined == 2
        assert merged.degraded_results == 2
        assert merged.lost_pages == 3
        assert merged.decoded_pages_reused == 10

    def test_router_synthesized_lost_pages_are_added(self):
        merged = BatchStats.merge_shards(
            [self.stats()], n_queries=4, workers=1, extra_lost_pages=9
        )
        assert merged.lost_pages == 10

    def test_ledgers_merge_in_shard_order(self):
        io_a = IOStats(seeks=1, blocks_read=5, elapsed=0.5)
        io_b = IOStats(seeks=2, blocks_read=3, elapsed=0.25)
        merged = BatchStats.merge_shards(
            [self.stats(io=io_a), self.stats(io=io_b)],
            n_queries=4,
            workers=1,
        )
        assert merged.io.seeks == 3
        assert merged.io.blocks_read == 8
        assert merged.io.elapsed == 0.75


class TestArenaLifecycle:
    """Satellite regressions: no leaked arena files, ever."""

    def test_dispose_survives_a_broken_write_handle(self):
        arena = SharedArena.create()
        assert arena is not None
        arena.put(np.arange(8.0))
        path = arena.path
        # Simulate an abnormal teardown: the handle is already closed,
        # so seal()'s flush would raise ValueError.
        arena._file.close()
        arena.dispose()  # must not raise
        assert arena.disposed
        assert not os.path.exists(path)
        arena.dispose()  # idempotent

    def test_finalizer_unlinks_abandoned_arena(self):
        arena = SharedArena.create()
        assert arena is not None
        arena.put(np.arange(4.0))
        path = arena.path
        del arena
        gc.collect()
        assert not os.path.exists(path)

    def test_failed_process_batch_leaks_no_arena_files(
        self, data, queries, monkeypatch
    ):
        """A worker raising mid-phase used to skip seal(), and dispose()
        then died on the unflushed handle, stranding the arena file."""
        import repro.engine.engine as engine_mod

        monkeypatch.setattr(
            engine_mod, "plan_shard", _boom_plan_shard
        )
        before = arena_files()
        engine = QueryEngine(build_tree(data), workers=2, backend="process")
        # The engine wraps the worker's StorageError into a per-query
        # QueryDataError; either way the batch fails and must clean up.
        with pytest.raises((StorageError, QueryDataError), match="injected"):
            engine.knn_batch(queries, k=5)
        engine.close()
        gc.collect()
        assert arena_files() == before

    def test_failing_shard_under_process_backend_leaks_nothing(
        self, data, queries, monkeypatch
    ):
        """The router swallows the shard failure (degraded answer), and
        the shard engine's teardown still reclaims its arena."""
        import repro.engine.engine as engine_mod

        monkeypatch.setattr(
            engine_mod, "plan_shard", _boom_plan_shard
        )
        before = arena_files()
        router = ShardRouter(
            build_tree(data), shards=2, workers=2, backend="process"
        )
        got = router.knn_batch(queries, k=5)
        router.close()
        gc.collect()
        assert got.routing.dead  # every contacted shard failed
        assert all(r.degraded for r in got)
        assert arena_files() == before


class TestDecodedCacheGauge:
    """Satellite regressions: the resident-bytes gauge and the engine's
    live view of the tree's attachments."""

    def test_gauge_tracks_cache_swaps(self, data, queries, live_registry):
        # The gauge sums every store attached to a live tree, so stores
        # of other trees still alive in this process count too: assert
        # changes against that base, never absolute values.
        tree = build_tree(data)
        first = tree.use_decoded_cache(1 << 24)
        base = DECODED_CACHE_BYTES.value()
        tree.query_engine().knn_batch(queries, k=4)
        assert first.current_bytes > 0
        assert DECODED_CACHE_BYTES.value() - base == first.current_bytes

        # Re-attaching the same cache is a no-op.
        assert tree.use_decoded_cache(first) is first
        assert DECODED_CACHE_BYTES.value() - base == first.current_bytes

        # Swapping to a fresh cache re-syncs the gauge to the *new*
        # cache (it used to keep reporting the detached one's bytes).
        second = DecodedPageCache(1 << 24)
        tree.use_decoded_cache(second)
        assert tree.decoded_cache is second
        assert DECODED_CACHE_BYTES.value() == base

        tree.clear_decoded_cache()
        assert DECODED_CACHE_BYTES.value() == base
        tree.clear_decoded_cache()  # idempotent

    def test_engine_sees_reattached_pool_and_cache(self, data, queries):
        """engine.pool / engine.decode_cache read the tree's current
        attachments instead of a stale snapshot from __init__."""
        tree = build_tree(data)
        engine = tree.query_engine(pool=64)
        old_pool = engine.pool
        new_pool = tree.use_buffer_pool(128)
        assert engine.pool is new_pool
        assert engine.pool is not old_pool
        cache = tree.use_decoded_cache(1 << 24)
        assert engine.decode_cache is cache
        stats = engine.knn_batch(queries, k=4).stats
        assert stats.pool_hits + stats.pool_misses > 0


class TestSharedWorkerPool:
    def test_router_shares_one_pool_across_shards(self, data):
        router = ShardRouter(build_tree(data), shards=3, workers=2)
        pools = {id(s.engine._worker_pool) for s in router.shards}
        assert len(pools) == 1
        assert router.backend in ("thread", "process")
        router.close()

    def test_borrowed_pool_survives_engine_close(self, data, queries):
        router = ShardRouter(build_tree(data), shards=2, workers=2)
        router.shards[0].engine.close()  # borrowed: must not shut pool
        got = router.knn_batch(queries, k=3)
        assert len(got) == queries.shape[0]
        router.close()


class TestDistributedTracing:
    """Stitched scatter-gather traces: structure, attribution, parity.

    The tentpole's acceptance bar: a ``trace_query(router)`` span tree
    (names, structure, simulated-seconds durations, own-I/O) is
    bit-identical across worker counts and backends at a fixed shard
    count, the own-I/O partition invariant extends to the composite
    router ledger (faults included), and every shard visit leaves a
    ``shard-visit`` span carrying its routing decision.
    """

    GRID = [(1, "thread"), (2, "thread"), (4, "process")]

    def trace_once(self, data, queries, n_shards, workers, backend, faults):
        router = ShardRouter(
            build_tree(data), shards=n_shards, workers=workers,
            backend=backend,
        )
        if faults:
            for shard in router.shards:
                inj = ReadFaultInjector()
                inj.fail_always(shard.tree._quant_file.extent_start)
                shard.tree.disk.install_fault_injector(inj)
            router.use_fault_tolerance()
        try:
            with trace_query(router, name="knn-batch") as tracer:
                batch = router.knn_batch(queries, k=6)
        finally:
            router.close()
        return tracer, batch

    @staticmethod
    def own_sum(tracer) -> SpanIO:
        own = SpanIO()
        for node in tracer.root.walk():
            own = own + node.own_io
        return own

    @pytest.mark.parametrize("faults", [False, True])
    def test_stitched_tree_identical_across_workers_and_backends(
        self, data, queries, faults
    ):
        base_tracer, base_batch = self.trace_once(
            data, queries, 2, 1, "thread", faults
        )
        if faults:
            assert base_batch.stats.degraded
        base = json.dumps(base_tracer.root.sim_dict(), sort_keys=True)
        for workers, backend in self.GRID[1:]:
            tracer, _ = self.trace_once(
                data, queries, 2, workers, backend, faults
            )
            got = json.dumps(tracer.root.sim_dict(), sort_keys=True)
            assert got == base, (workers, backend)

    @pytest.mark.parametrize("faults", [False, True])
    def test_own_io_sums_to_composite_router_ledger(
        self, data, queries, faults
    ):
        """The PR 3 attribution invariant, one tier up: own-I/O over
        the stitched tree partitions the *composite* (all-shards)
        ledger delta exactly."""
        router = ShardRouter(build_tree(data), shards=3)
        if faults:
            for shard in router.shards:
                inj = ReadFaultInjector()
                inj.fail_always(shard.tree._quant_file.extent_start)
                shard.tree.disk.install_fault_injector(inj)
            router.use_fault_tolerance()
        before = ledger_tuple(router.disk.stats)
        try:
            with trace_query(router) as tracer:
                batch = router.knn_batch(queries, k=6)
        finally:
            router.close()
        delta = tuple(
            a - b for a, b in zip(ledger_tuple(router.disk.stats), before)
        )
        own = self.own_sum(tracer)
        ledger = batch.stats.io
        assert own.seeks == ledger.seeks == delta[0]
        assert own.blocks_read == ledger.blocks_read == delta[1]
        assert own.blocks_overread == ledger.blocks_overread == delta[2]
        assert own.elapsed == pytest.approx(ledger.elapsed, abs=1e-12)
        assert own.elapsed == pytest.approx(delta[3], abs=1e-12)
        assert tracer.root.io.elapsed == pytest.approx(
            own.elapsed, abs=1e-12
        )

    def test_shard_visit_spans_carry_routing_decisions(
        self, data, queries
    ):
        tracer, batch = self.trace_once(
            data, queries, 3, 1, "thread", faults=False
        )
        visits = tracer.root.find_all("shard-visit")
        assert visits
        for visit in visits:
            assert visit.attrs["shard"] in (0, 1, 2)
            assert visit.attrs["queries"] >= 1
            # radius_cap snapshots the bound per active query.
            assert (
                len(visit.attrs["radius_cap"]) == visit.attrs["queries"]
            )
            assert visit.attrs["outcome"] in ("ok", "degraded")
            assert visit.attrs["pages_read"] >= 0
            assert visit.attrs["pages_pruned"] >= 0
            assert visit.attrs["lost_pages"] == 0
            # The shard engine's own span chain nests inside the visit.
            assert visit.find("directory-scan") is not None
            assert visit.find("refine") is not None

    def test_routing_trace_links_the_visit_spans(self, data, queries):
        tracer, batch = self.trace_once(
            data, queries, 3, 1, "thread", faults=False
        )
        visits = tracer.root.find_all("shard-visit")
        assert list(batch.routing.spans) == visits

    def test_routing_spans_empty_without_a_tracer(self, data, queries):
        router = ShardRouter(build_tree(data), shards=2)
        batch = router.knn_batch(queries, k=4)
        router.close()
        assert batch.routing.spans == ()

    def test_dead_shard_visit_marked_dead(self, data, queries):
        router = ShardRouter(build_tree(data), shards=3)
        router.kill_shard(0)
        try:
            with trace_query(router) as tracer:
                batch = router.knn_batch(queries, k=5)
        finally:
            router.close()
        dead = [
            v
            for v in tracer.root.find_all("shard-visit")
            if v.attrs["outcome"] == "dead"
        ]
        assert dead
        for visit in dead:
            assert visit.attrs["shard"] == 0
            assert visit.attrs["lost_pages"] > 0
            assert visit.io.elapsed == 0.0  # dead shards charge nothing
        assert batch.stats.degraded

    def test_sim_starts_monotone_across_sibling_visits(
        self, data, queries
    ):
        """Shard visits attribute I/O to their shard disk but sit on
        the router's composite clock, so siblings stay ordered."""
        tracer, _ = self.trace_once(
            data, queries, 3, 1, "thread", faults=False
        )
        visits = tracer.root.find_all("shard-visit")
        starts = [v.sim_start for v in visits]
        assert starts == sorted(starts)
        events = tracer.root.to_events()
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
