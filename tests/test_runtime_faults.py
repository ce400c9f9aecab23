"""Read-path fault injection, retry/quarantine, and degraded queries.

Everything here is deterministic: faults are keyed on exact
``(address, attempt)`` pairs, so each scenario replays bit-identically.
The tree-level tests follow the chaos harness's discipline -- observe which
addresses a pristine workload touches, then aim scheduled faults at
them -- and assert the degraded-result contract from
``docs/robustness.md`` with the harness's one check,
:func:`repro.chaos.check_answer`.
"""

import numpy as np
import pytest

from repro import obs
from repro.chaos import check_answer
from repro.core.search import locate_address
from repro.core.tree import IQTree
from repro.exceptions import (
    IntegrityError,
    PersistentReadError,
    QueryDataError,
    StorageError,
    TransientReadError,
)
from repro.storage.blockfile import BlockFile
from repro.storage.cache import BufferPool
from repro.storage.disk import DiskModel, SimulatedDisk
from repro.storage.faults import corrupt_bytes
from repro.storage.runtime_faults import (
    FaultContext,
    QuarantineList,
    ReadFaultInjector,
    RetryPolicy,
    fetch_with_quarantine,
)
from repro.storage.scheduler import cost_balance_window, plan_batched_fetch


@pytest.fixture
def disk():
    return SimulatedDisk(DiskModel(t_seek=0.01, t_xfer=0.001, block_size=64))


@pytest.fixture
def blockfile(disk):
    f = BlockFile(disk)
    for i in range(16):
        f.append_block(bytes([i]) * 8)
    f.seal()
    return f


def faulted_tree(points, *, bits=4):
    """A quantized tree on its own small disk (own injector slot)."""
    disk = SimulatedDisk(
        DiskModel(t_seek=0.010, t_xfer=0.001, block_size=512)
    )
    return IQTree.build(points, disk=disk, optimize=False, fixed_bits=bits)


def observed_address(tree, level, query, k=3):
    """First disk address of ``level`` a pristine query actually reads."""
    observer = ReadFaultInjector()
    tree.disk.install_fault_injector(observer)
    tree.nearest(query, k=k)
    tree.disk.clear_fault_injector()
    for address in sorted(observer.attempts_seen):
        if locate_address(tree, address)[0] == level:
            return address
    raise AssertionError(f"query never read the {level} level")


class TestCorruptBytes:
    def test_deterministic_and_detectable(self):
        payload = b"hello world"
        assert corrupt_bytes(payload, 3) == corrupt_bytes(payload, 3)
        assert corrupt_bytes(payload, 3) != payload
        assert len(corrupt_bytes(payload, 3)) == len(payload)

    def test_empty_payload_still_corrupts(self):
        assert corrupt_bytes(b"") != b""


class TestReadFaultInjector:
    def test_fires_on_exact_attempt_only(self):
        inj = ReadFaultInjector()
        inj.schedule(7, "transient", attempts=(1,))
        assert inj.filter_read(7, b"x") == b"x"  # attempt 0 clean
        with pytest.raises(TransientReadError) as err:
            inj.filter_read(7, b"x")  # attempt 1 fires
        assert err.value.address == 7 and err.value.attempt == 1
        assert inj.filter_read(7, b"x") == b"x"  # attempt 2 clean
        assert inj.fired == [(7, 1, "transient")]

    def test_per_attempt_beats_always(self):
        inj = ReadFaultInjector()
        inj.fail_always(3)
        inj.schedule(3, "transient", attempts=(0,))
        with pytest.raises(TransientReadError):
            inj.filter_read(3, b"x")
        with pytest.raises(PersistentReadError):
            inj.filter_read(3, b"x")

    def test_corruption_returns_mutated_bytes(self):
        inj = ReadFaultInjector()
        inj.corrupt_once(2)
        assert inj.filter_read(2, b"abcd") != b"abcd"
        assert inj.filter_read(2, b"abcd") == b"abcd"

    def test_observer_mode_counts_without_firing(self):
        inj = ReadFaultInjector()
        assert inj.filter_read(5, b"p") == b"p"
        assert inj.filter_read(5, b"p") == b"p"
        assert inj.attempts_seen == {5: 2}
        assert inj.fired == []

    def test_unknown_kind_rejected(self):
        inj = ReadFaultInjector()
        with pytest.raises(StorageError):
            inj.schedule(0, "cosmic-ray")
        with pytest.raises(StorageError):
            inj.schedule(0, "transient", attempts=(-1,))


class TestCRCSidecar:
    def test_corruption_surfaces_as_integrity_error(self, blockfile, disk):
        inj = ReadFaultInjector()
        address = blockfile.extent_start + 4
        inj.corrupt_once(address)
        disk.install_fault_injector(inj)
        with pytest.raises(IntegrityError) as err:
            blockfile.read_block(4)
        assert err.value.block == address
        # The damage was in flight, not at rest: a re-read is clean.
        assert blockfile.read_block(4) == bytes([4]) * 8

    def test_observer_injector_delivers_pristine_payloads(
        self, blockfile, disk
    ):
        plain = [blockfile.read_block(i) for i in range(16)]
        disk.install_fault_injector(ReadFaultInjector())
        assert [blockfile.read_block(i) for i in range(16)] == plain
        run = blockfile.read_run(2, 5)
        assert run == plain[2:7]

    def test_corruption_in_batched_read(self, blockfile, disk):
        inj = ReadFaultInjector()
        inj.corrupt_once(blockfile.extent_start + 9)
        disk.install_fault_injector(inj)
        with pytest.raises(IntegrityError):
            blockfile.read_batched([8, 9, 10])


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(StorageError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(StorageError):
            RetryPolicy(backoff_seeks=-1)

    def test_backoff_charged_as_seeks(self, blockfile, disk):
        inj = ReadFaultInjector()
        inj.fail_once(blockfile.extent_start + 6)
        disk.install_fault_injector(inj)
        ctx = FaultContext(RetryPolicy(max_attempts=3, backoff_seeks=5))
        disk.park()
        before = disk.stats.seeks
        payload = ctx.run(lambda: blockfile.read_block(6), disk)
        assert payload == bytes([6]) * 8
        # 1 seek for the failed read, 5 backoff seeks, 1 for the retry
        # (backoff parks the head, so the retry seeks again).
        assert disk.stats.seeks - before == 7
        assert ctx.retries == 1
        assert len(ctx.quarantine) == 0

    def test_exhaustion_poisons_and_reraises(self, blockfile, disk):
        inj = ReadFaultInjector()
        address = blockfile.extent_start + 2
        inj.schedule(address, "transient", attempts=(0, 1, 2))
        disk.install_fault_injector(inj)
        ctx = FaultContext(RetryPolicy(max_attempts=3))
        with pytest.raises(TransientReadError):
            ctx.run(lambda: blockfile.read_block(2), disk)
        assert address in ctx.quarantine
        assert ctx.retries == 2

    def test_persistent_fault_poisons_immediately(self, blockfile, disk):
        inj = ReadFaultInjector()
        address = blockfile.extent_start + 3
        inj.fail_always(address)
        disk.install_fault_injector(inj)
        pool = BufferPool(8)
        pool.admit(address)
        ctx = FaultContext(pool=pool)
        with pytest.raises(PersistentReadError):
            ctx.run(lambda: blockfile.read_block(3), disk)
        assert ctx.retries == 0  # no futile retries
        assert address in ctx.quarantine
        assert not pool.peek(address)  # evicted, not servable

    def test_container_integrity_error_passes_through(self, disk):
        ctx = FaultContext()

        def container_fault():
            raise IntegrityError("bad header", section="header")

        with pytest.raises(IntegrityError):
            ctx.run(container_fault, disk)
        assert len(ctx.quarantine) == 0


class TestSchedulerExclusion:
    def test_runs_split_around_forbidden_gap(self):
        # Window large enough to merge 0..4 into one run; forbidding
        # the gap block 2 must split the fetch instead.
        merged = list(plan_batched_fetch([0, 1, 3, 4], 10))
        assert merged == [(0, 5, 4)]
        split = list(plan_batched_fetch([0, 1, 3, 4], 10, forbidden={2}))
        assert split == [(0, 2, 2), (3, 2, 2)]

    def test_wanted_forbidden_block_rejected(self):
        with pytest.raises(StorageError):
            list(plan_batched_fetch([1, 2], 4, forbidden={2}))

    def test_window_never_covers_forbidden(self):
        model = DiskModel(t_seek=0.01, t_xfer=0.001, block_size=64)
        probs = lambda i: 0.5  # noqa: E731
        first, last = cost_balance_window(10, 20, probs, model)
        assert first <= 9 and last >= 11
        f2, l2 = cost_balance_window(
            10, 20, probs, model, forbidden={9, 11}
        )
        assert (f2, l2) == (10, 10)
        with pytest.raises(StorageError):
            cost_balance_window(10, 20, probs, model, forbidden={10})


class TestQuarantineList:
    def test_local_indices_projects_extents(self, disk):
        f1 = BlockFile(disk)
        f1.append_block(b"a")
        f1.seal()
        f2 = BlockFile(disk)
        for _ in range(4):
            f2.append_block(b"b")
        f2.seal()
        q = QuarantineList()
        q.add(f2.extent_start + 1)
        q.add(f2.extent_start + 3)
        q.add(f1.extent_start)
        assert q.local_indices(f2) == {1, 3}
        assert q.local_indices(f1) == {0}
        assert len(q) == 3


class TestFetchWithQuarantine:
    def test_lost_blocks_reported_rest_delivered(self, blockfile, disk):
        inj = ReadFaultInjector()
        inj.fail_always(blockfile.extent_start + 5)
        disk.install_fault_injector(inj)
        ctx = FaultContext()
        payloads, lost = fetch_with_quarantine(
            blockfile, disk, ctx, [3, 4, 5, 6, 7]
        )
        assert lost == [5]
        assert set(payloads) == {3, 4, 6, 7}
        assert payloads[6] == bytes([6]) * 8

    def test_multiple_dead_blocks_converge(self, blockfile, disk):
        inj = ReadFaultInjector()
        inj.fail_always(blockfile.extent_start + 1)
        inj.fail_always(blockfile.extent_start + 3)
        disk.install_fault_injector(inj)
        ctx = FaultContext()
        payloads, lost = fetch_with_quarantine(
            blockfile, disk, ctx, list(range(6))
        )
        assert lost == [1, 3]
        assert set(payloads) == {0, 2, 4, 5}
        assert ctx.quarantined == 2

    def test_everything_lost_returns_empty(self, blockfile, disk):
        inj = ReadFaultInjector()
        inj.fail_always(blockfile.extent_start + 2)
        disk.install_fault_injector(inj)
        ctx = FaultContext()
        payloads, lost = fetch_with_quarantine(blockfile, disk, ctx, [2])
        assert payloads == {} and lost == [2]


class TestDegradedKNN:
    def test_transient_fault_retries_to_exact_answer(self, uniform_points):
        tree = faulted_tree(uniform_points[:600])
        query = uniform_points[700]
        base = tree.nearest(query, k=5)
        address = observed_address(tree, "quantized", query, k=5)
        inj = ReadFaultInjector()
        inj.fail_once(address)
        tree.disk.install_fault_injector(inj)
        ctx = tree.use_fault_tolerance()
        res = tree.nearest(query, k=5)
        assert not res.degraded
        assert np.array_equal(res.ids, base.ids)
        assert np.allclose(res.distances, base.distances)
        assert ctx.retries >= 1
        assert inj.fired  # the fault really fired

    def test_lost_exact_block_degrades_to_sound_interval(
        self, uniform_points
    ):
        tree = faulted_tree(uniform_points[:600])
        query = uniform_points[701]
        base = tree.nearest(query, k=5)
        address = observed_address(tree, "exact", query, k=5)
        inj = ReadFaultInjector()
        inj.fail_always(address)
        tree.disk.install_fault_injector(inj)
        tree.use_fault_tolerance()
        res = tree.nearest(query, k=5)
        assert res.degraded and res.certain is not None
        assert not res.certain.all()
        assert check_answer(tree, query, res, base) == []
        # An uncertain record ranks at its cell maxdist.
        for pos, pid in enumerate(res.ids.tolist()):
            if not res.certain[pos]:
                assert res.distances[pos] == res.intervals[pid][1]

    def test_lost_quantized_page_reports_partition(self, uniform_points):
        tree = faulted_tree(uniform_points[:600])
        query = uniform_points[702]
        address = observed_address(tree, "quantized", query, k=5)
        inj = ReadFaultInjector()
        inj.fail_always(address)
        tree.disk.install_fault_injector(inj)
        tree.use_fault_tolerance()
        res = tree.nearest(query, k=5)
        assert res.degraded
        assert res.lost_pages
        lost = res.lost_pages[0]
        assert 0 <= lost.page < tree.n_pages
        assert lost.n_points == tree._counts[lost.page]
        assert lost.mindist <= lost.maxdist
        # Surviving results are still exact points.
        for pos, pid in enumerate(res.ids.tolist()):
            if res.certain is None or res.certain[pos]:
                true_dist = tree.metric.distance(query, tree.points[pid])
                assert res.distances[pos] == pytest.approx(true_dist)

    def test_corruption_detected_and_quarantined(self, uniform_points):
        tree = faulted_tree(uniform_points[:600])
        query = uniform_points[703]
        address = observed_address(tree, "exact", query, k=5)
        inj = ReadFaultInjector()
        inj.corrupt_always(address)
        tree.disk.install_fault_injector(inj)
        ctx = tree.use_fault_tolerance()
        res = tree.nearest(query, k=5)  # must not crash or lie
        assert res.degraded
        assert address in ctx.quarantine
        assert ctx.retries >= 1  # CRC mismatches were retried first

    def test_clearing_restores_pristine_behavior(self, uniform_points):
        tree = faulted_tree(uniform_points[:600])
        query = uniform_points[704]
        base = tree.nearest(query, k=5)
        address = observed_address(tree, "quantized", query, k=5)
        inj = ReadFaultInjector()
        inj.fail_always(address)
        tree.disk.install_fault_injector(inj)
        tree.use_fault_tolerance()
        assert tree.nearest(query, k=5).degraded
        tree.disk.clear_fault_injector()
        tree.clear_fault_tolerance()
        res = tree.nearest(query, k=5)
        assert not res.degraded
        assert np.array_equal(res.ids, base.ids)

    def test_fault_without_context_raises_query_data_error(
        self, uniform_points
    ):
        tree = faulted_tree(uniform_points[:600])
        query = uniform_points[705]
        address = observed_address(tree, "exact", query, k=5)
        inj = ReadFaultInjector()
        inj.fail_always(address)
        tree.disk.install_fault_injector(inj)
        with pytest.raises(QueryDataError) as err:
            tree.nearest(query, k=5)
        assert err.value.level == "exact"
        assert err.value.block is not None
        assert err.value.query_id is not None
        assert isinstance(err.value.__cause__, PersistentReadError)


class TestDegradedRange:
    def test_lost_page_reported_with_infinite_maxdist(self, uniform_points):
        tree = faulted_tree(uniform_points[:600])
        query = uniform_points[710]
        radius = 0.8
        base = tree.range_query(query, radius)
        address = observed_address(tree, "quantized", query)
        inj = ReadFaultInjector()
        inj.fail_always(address)
        tree.disk.install_fault_injector(inj)
        tree.use_fault_tolerance()
        res = tree.range_query(query, radius)
        assert res.degraded and res.lost_pages
        assert all(p.maxdist == float("inf") for p in res.lost_pages)
        assert len(res.ids) <= len(base.ids)

    def test_lost_exact_block_includes_uncertain_members(
        self, uniform_points
    ):
        tree = faulted_tree(uniform_points[:600])
        query = uniform_points[711]
        radius = 0.8
        base = tree.range_query(query, radius)
        address = observed_address(tree, "exact", query)
        inj = ReadFaultInjector()
        inj.fail_always(address)
        tree.disk.install_fault_injector(inj)
        tree.use_fault_tolerance()
        res = tree.range_query(query, radius)
        assert res.degraded
        assert res.intervals
        assert check_answer(tree, query, res, base) == []
        # Every uncertain member's cell overlaps the ball.
        assert all(lo <= radius for lo, _hi in res.intervals.values())


class TestEngineDegraded:
    def test_knn_batch_degrades_and_counts(self, uniform_points):
        tree = faulted_tree(uniform_points[:600])
        queries = uniform_points[700:706]
        engine = tree.query_engine()
        base = engine.knn_batch(queries, k=4)
        address = observed_address(tree, "exact", queries[0], k=4)
        inj = ReadFaultInjector()
        inj.fail_always(address)
        tree.disk.install_fault_injector(inj)
        tree.use_fault_tolerance()
        res = engine.knn_batch(queries, k=4)
        assert res.stats.quarantined >= 1
        assert res.stats.degraded
        assert any(r.degraded for r in res.queries)
        assert len(res.queries) == len(base.queries)
        for query, r, b in zip(queries, res.queries, base.queries):
            assert check_answer(tree, query, r, b) == []

    def test_knn_batch_lost_page_reported(self, uniform_points):
        tree = faulted_tree(uniform_points[:600])
        queries = uniform_points[706:710]
        engine = tree.query_engine()
        address = observed_address(tree, "quantized", queries[0], k=4)
        inj = ReadFaultInjector()
        inj.fail_always(address)
        tree.disk.install_fault_injector(inj)
        tree.use_fault_tolerance()
        res = engine.knn_batch(queries, k=4)
        assert res.stats.lost_pages >= 1
        assert any(r.lost_pages for r in res.queries)

    def test_range_batch_matches_single_query_degradation(
        self, uniform_points
    ):
        tree = faulted_tree(uniform_points[:600])
        queries = uniform_points[712:715]
        engine = tree.query_engine()
        base = engine.range_batch(queries, 0.8)
        address = observed_address(tree, "exact", queries[0])
        inj = ReadFaultInjector()
        inj.fail_always(address)
        tree.disk.install_fault_injector(inj)
        tree.use_fault_tolerance()
        res = engine.range_batch(queries, 0.8)
        assert any(r.degraded for r in res.queries)
        for query, r, b in zip(queries, res.queries, base.queries):
            assert check_answer(tree, query, r, b) == []


class TestObservability:
    def test_fault_instruments_move(self, uniform_points):
        from repro.obs.instruments import (
            DEGRADED_RESULTS,
            FAULT_QUARANTINES,
            READ_FAULTS,
        )

        obs.registry.reset()
        obs.enable()
        try:
            tree = faulted_tree(uniform_points[:600])
            query = uniform_points[720]
            address = observed_address(tree, "exact", query, k=5)
            inj = ReadFaultInjector()
            inj.fail_always(address)
            tree.disk.install_fault_injector(inj)
            tree.use_fault_tolerance()
            tree.nearest(query, k=5)
            assert READ_FAULTS.value(kind="persistent") >= 1
            assert FAULT_QUARANTINES.value() >= 1
            assert DEGRADED_RESULTS.value() >= 1
        finally:
            obs.disable()
            obs.registry.reset()


class TestSharedVocabulary:
    def test_both_adversaries_importable_from_faults(self):
        from repro.storage import faults, runtime_faults

        assert faults.ReadFaultInjector is runtime_faults.ReadFaultInjector
        assert faults.RetryPolicy is runtime_faults.RetryPolicy
        assert faults.FaultContext is runtime_faults.FaultContext
        assert faults.fetch_with_quarantine is (
            runtime_faults.fetch_with_quarantine
        )
        with pytest.raises(AttributeError):
            faults.no_such_symbol

    def test_container_and_runtime_layers_compose(
        self, uniform_points, tmp_path
    ):
        """One corruption primitive, two detectors.

        The same :func:`corrupt_bytes` damage is caught by the container
        checksums when applied at rest (fsck/load) and by the per-block
        CRC sidecar when applied in flight (runtime injector).
        """
        from repro.storage.faults import FaultInjector
        from repro.storage.persistence import load_iqtree, save_iqtree

        tree = faulted_tree(uniform_points[:400])
        path = tmp_path / "victim.iqt"
        save_iqtree(tree, path)

        # At rest: flip a bit inside a section, load must refuse.
        container_adversary = FaultInjector(path)
        container_adversary.flip_bit_in("payload", position=5)
        with pytest.raises(StorageError):
            load_iqtree(path)
        container_adversary.restore()
        reloaded = load_iqtree(path)

        # In flight: corrupt the same level's blocks on the timed read
        # path; the CRC sidecar catches it and quarantine degrades.
        query = uniform_points[450]
        address = observed_address(reloaded, "quantized", query)
        inj = ReadFaultInjector()
        inj.corrupt_always(address)
        reloaded.disk.install_fault_injector(inj)
        ctx = reloaded.use_fault_tolerance()
        res = reloaded.nearest(query, k=3)
        assert res.degraded
        assert address in ctx.quarantine
