"""End-to-end codec contract: every codec policy returns the scan's
answers, bit for bit, across every serving surface, and persists,
verifies, degrades and attributes its decode cost like the grid
reference.

Parametrized ids are the literal codec names (``grid``/``pq``/``ef``/
``auto``) so the CI ``codecs`` matrix can select one codec's tests with
``-k``.  The workload is the micro-cluster regime the PQ codec targets
(tight clumps far smaller than a page), so ``pq`` and ``auto`` builds
really do carry PQ pages -- a census test pins that, guarding against a
vacuously green suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.search import locate_address
from repro.core.tree import IQTree
from repro.costmodel.model import PartitionStats
from repro.core.optimizer import stats_for
from repro.datasets import gaussian_clusters, make_workload
from repro.engine import QueryEngine, ShardRouter
from repro.exceptions import IntegrityError, QueryDataError
from repro.obs.drift import DriftMonitor
from repro.storage.journal import DurableTree
from tests.scenarios import assert_matches_scan
from repro.storage.persistence import (
    load_iqtree,
    save_iqtree,
    serialize_iqtree,
    verify_container,
)
from repro.storage.runtime_faults import ReadFaultInjector

CODECS = ("grid", "pq", "ef", "auto")
K = 6

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module")
def workload():
    """Micro-clusters: ~500-point quantized pages, where PQ engages."""
    return make_workload(
        gaussian_clusters,
        n=8000,
        n_queries=24,
        seed=7,
        dim=16,
        n_clusters=64,
        spread=0.0005,
    )


@pytest.fixture(scope="module")
def trees(workload):
    """One read-only build per codec policy (tests must not mutate)."""
    data, _ = workload
    return {codec: IQTree.build(data, codec=codec) for codec in CODECS}


def fresh_tree(workload, codec: str) -> IQTree:
    """A private build for tests that install injectors or contexts."""
    data, _ = workload
    return IQTree.build(data, codec=codec)


def observed_quantized_address(tree, query, k=K):
    """A second-level disk address a pristine query actually reads."""
    observer = ReadFaultInjector()
    tree.disk.install_fault_injector(observer)
    tree.nearest(query, k=k)
    tree.disk.clear_fault_injector()
    for address in sorted(observer.attempts_seen):
        if locate_address(tree, address)[0] == "quantized":
            return address
    raise AssertionError("query never read the quantized level")


class TestCodecCensus:
    """The fixture must exercise what each policy claims to build."""

    @pytest.mark.parametrize("codec", CODECS)
    def test_policy_applied(self, trees, codec):
        tree = trees[codec]
        pq_pages = sum(1 for opt in tree._partitions if opt.codec)
        if codec in ("pq", "auto"):
            assert pq_pages > 0, f"{codec} build carries no PQ pages"
        else:
            assert pq_pages == 0
        assert tree.directory_codec == ("ef" if codec == "ef" else "dense")


class TestAnswerParity:
    """Codecs change bounds and layout, never answers."""

    @pytest.mark.parametrize("codec", CODECS)
    def test_knn_bit_identical(self, trees, workload, codec):
        tree = trees[codec]
        for q in workload[1]:
            assert_matches_scan(tree, q, tree.nearest(q, k=K), k=K)

    @pytest.mark.parametrize("codec", CODECS)
    def test_range_bit_identical(self, trees, workload, codec):
        data, queries = workload
        tree = trees[codec]
        for q in queries[:6]:
            dists = tree.metric.distances(q, data)
            radius = float(np.partition(dists, 30)[30])
            res = tree.range_query(q, radius)
            assert_matches_scan(tree, q, res, radius=radius)

    @pytest.mark.parametrize("codec", CODECS)
    def test_parallel_workers_agree(self, trees, workload, codec):
        _, queries = workload
        with QueryEngine(trees[codec], workers=3) as engine:
            got = engine.knn_batch(queries, k=K)
        for q, answer in zip(queries, got):
            assert_matches_scan(trees[codec], q, answer, k=K)

    @pytest.mark.parametrize("codec", CODECS)
    def test_sharded_scatter_gather_agrees(self, trees, workload, codec):
        _, queries = workload
        with ShardRouter(trees[codec], shards=3, workers=2) as router:
            got = router.knn_batch(queries, k=K)
        for q, answer in zip(queries, got):
            assert_matches_scan(trees[codec], q, answer, k=K)


class TestPersistenceRoundTrip:
    @pytest.mark.parametrize("codec", CODECS)
    def test_save_load_verify(self, trees, workload, codec, tmp_path):
        _, queries = workload
        path = tmp_path / f"{codec}.iqt"
        save_iqtree(trees[codec], path, fsync=False)
        loaded = load_iqtree(path, verify=True)
        for q in queries[:6]:
            want = trees[codec].nearest(q, k=K)
            got = loaded.nearest(q, k=K)
            assert np.array_equal(want.ids, got.ids)
            assert np.array_equal(want.distances, got.distances)

    @pytest.mark.parametrize("codec", CODECS)
    def test_fsck_codec_expectation(self, trees, codec, tmp_path):
        path = tmp_path / f"{codec}.iqt"
        save_iqtree(trees[codec], path, fsync=False)
        report = verify_container(path, expect_codec=codec)
        assert report.ok, report.summary()
        # the expectation check is live: grid and pq disagree
        other = "grid" if codec != "grid" else "pq"
        assert not verify_container(path, expect_codec=other).ok

    def test_grid_container_carries_no_codec_meta(self, trees):
        """Grid mode stays byte-identical to the pre-codec format: no
        codec meta keys, codec byte zero on every page."""
        raw = serialize_iqtree(trees["grid"])
        for key in (b'"codecs"', b'"directory_codec"', b'"codec_mode"'):
            assert key not in raw


class TestCorruptionSafety:
    """Corrupt codec payloads are loud (quarantine/IntegrityError), and
    surviving answers stay exact -- never silently wrong."""

    def test_corrupt_pq_page_quarantined_not_wrong(self, workload):
        data, queries = workload
        tree = fresh_tree(workload, "pq")
        query = queries[0]
        base = tree.nearest(query, k=K)
        address = observed_quantized_address(tree, query)
        _, page = locate_address(tree, address)
        assert tree._partitions[page].codec, "faulted page is not PQ"
        inj = ReadFaultInjector()
        inj.corrupt_always(address)
        tree.disk.install_fault_injector(inj)
        ctx = tree.use_fault_tolerance()
        res = tree.nearest(query, k=K)
        assert res.degraded
        assert address in ctx.quarantine
        # surviving certain results are true exact distances
        for pos, pid in enumerate(res.ids.tolist()):
            if res.certain is None or res.certain[pos]:
                true = tree.metric.distance(query, tree.points[pid])
                assert res.distances[pos] == pytest.approx(true)
        tree.disk.clear_fault_injector()
        tree.clear_fault_tolerance()
        clean = tree.nearest(query, k=K)
        assert np.array_equal(clean.ids, base.ids)

    def test_corrupt_pq_page_without_context_raises(self, workload):
        _, queries = workload
        tree = fresh_tree(workload, "pq")
        query = queries[1]
        address = observed_quantized_address(tree, query)
        inj = ReadFaultInjector()
        inj.corrupt_always(address)
        tree.disk.install_fault_injector(inj)
        with pytest.raises(QueryDataError) as err:
            tree.nearest(query, k=K)
        assert isinstance(err.value.__cause__, IntegrityError)

    @pytest.mark.parametrize("codec", ["grid", "pq"])
    def test_lost_page_parity(self, workload, codec):
        """A lost second-level page degrades identically per codec: the
        same LostPage report contract, the same surviving answers."""
        _, queries = workload
        tree = fresh_tree(workload, codec)
        query = queries[2]
        address = observed_quantized_address(tree, query)
        inj = ReadFaultInjector()
        inj.fail_always(address)
        tree.disk.install_fault_injector(inj)
        tree.use_fault_tolerance()
        res = tree.nearest(query, k=K)
        assert res.degraded and res.lost_pages
        lost = res.lost_pages[0]
        assert 0 <= lost.page < tree.n_pages
        assert lost.n_points == tree._counts[lost.page]
        assert lost.mindist <= lost.maxdist
        for pos, pid in enumerate(res.ids.tolist()):
            if res.certain is None or res.certain[pos]:
                true = tree.metric.distance(query, tree.points[pid])
                assert res.distances[pos] == pytest.approx(true)


class TestMixedCodecDrift:
    """Satellite: per-codec decode-cost attribution keeps the drift
    monitor honest on mixed-codec trees."""

    @staticmethod
    def stream_drift(tree, queries, k=5) -> float:
        """Relative error of the model's per-query time prediction
        against the simulated stream average."""
        monitor = DriftMonitor()
        _, predicted_s = monitor._prediction(tree, k)
        total = 0.0
        for q in queries:
            before = tree.disk.stats.elapsed
            tree.nearest(q, k=k)
            total += tree.disk.stats.elapsed - before
        actual_s = total / len(queries)
        return abs(actual_s - predicted_s) / predicted_s

    def test_mixed_codec_drift_within_5pct_of_grid(
        self, trees, workload
    ):
        """Swapping half the pages to PQ must not degrade prediction
        fidelity by more than 5 percentage points vs the grid-only
        build of the same data."""
        _, queries = workload
        grid_drift = self.stream_drift(trees["grid"], queries)
        auto_drift = self.stream_drift(trees["auto"], queries)
        assert auto_drift <= grid_drift + 0.05, (
            f"mixed-codec drift {auto_drift:.3f} regressed more than "
            f"5% over grid drift {grid_drift:.3f}"
        )

    def test_attribution_uses_effective_bits(self, trees):
        """The cost attribution is live: pricing PQ pages at their raw
        stored code width (instead of the codebook's grid-equivalent
        resolution) would predict a very different refinement cost."""
        tree = trees["auto"]
        assert any(opt.codec for opt in tree._partitions)

        def naive(opt):
            s = stats_for(opt)
            if opt.codec:
                return PartitionStats(
                    m=s.m,
                    side_lengths=s.side_lengths,
                    bits=float(opt.pq_bits),
                )
            return s

        model = tree.cost_model
        aware = model.breakdown(
            stats_for(o) for o in tree._partitions
        ).total
        naive_total = model.breakdown(
            naive(o) for o in tree._partitions
        ).total
        assert naive_total > aware * 1.2

    def test_pq_pages_report_effective_bits(self, trees):
        for opt in trees["auto"]._partitions:
            if opt.codec:
                s = stats_for(opt)
                assert s.bits == opt.eff_bits
                assert s.bits != opt.pq_bits


class TestGroupCommitWAL:
    """Satellite: group-commit batches fsyncs without weakening the
    acked-prefix recovery contract."""

    @staticmethod
    def small_tree() -> IQTree:
        rng = np.random.default_rng(31)
        pts = rng.random((300, 4)).astype(np.float32).astype(np.float64)
        return IQTree.build(pts)

    @staticmethod
    def counting_fsync(monkeypatch):
        import repro.storage.journal as journal_mod

        calls = []
        real = journal_mod.os.fsync

        def counted(fd):
            calls.append(fd)
            return real(fd)

        monkeypatch.setattr(journal_mod.os, "fsync", counted)
        return calls

    def test_group_commit_coalesces_fsyncs(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        batch = rng.random((8, 4))
        counts = {}
        for group in (1, 4):
            store = DurableTree.create(
                self.small_tree(),
                tmp_path / f"g{group}.iqt",
                group_commit=group,
            )
            calls = self.counting_fsync(monkeypatch)
            for point in batch:
                store.insert(point)
            counts[group] = len(calls)
            store.close()
        assert counts[1] == 8  # one fsync per acked append
        assert counts[4] == 2  # 8 appends in 2 group commits

    def test_group_commit_recovery_bit_identical(self, tmp_path):
        rng = np.random.default_rng(17)
        path = tmp_path / "grp.iqt"
        store = DurableTree.create(
            self.small_tree(), path, group_commit=4
        )
        for point in rng.random((6, 4)):
            store.insert(point)  # 6 appends: one un-synced pending pair
        store.sync()  # acks the tail group
        query = rng.random(4)
        want = store.tree.nearest(query, k=5)
        store.close()
        recovered = DurableTree.open(path)
        assert recovered.recovered_ops == 6
        got = recovered.tree.nearest(query, k=5)
        assert np.array_equal(want.ids, got.ids)
        assert np.array_equal(want.distances, got.distances)
        recovered.close()
