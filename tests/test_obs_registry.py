"""Metrics registry: instrument semantics, exposition formats, and the
single-accounting-path invariant between the registry, the simulated
disk ledger, and the buffer pool."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.core.tree import IQTree
from repro.core.search import nearest_neighbors
from repro.obs import instruments
from repro.obs.instruments import REGISTRY
from repro.obs.registry import MetricsRegistry
from repro.storage.cache import BufferPool
from repro.storage.disk import DiskModel, IOStats, SimulatedDisk

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from lint_prometheus import lint  # noqa: E402


@pytest.fixture
def registry():
    """A private enabled registry (process registry untouched)."""
    return MetricsRegistry(enabled=True)


@pytest.fixture
def live_registry():
    """The process registry, enabled and zeroed, restored afterwards."""
    REGISTRY.reset()
    REGISTRY.enable()
    try:
        yield REGISTRY
    finally:
        REGISTRY.disable()
        REGISTRY.reset()


class TestCounter:
    def test_inc_and_value(self, registry):
        c = registry.counter("c_total", "help")
        c.inc()
        c.inc(2.5)
        assert c.value() == pytest.approx(3.5)

    def test_labels_are_independent_series(self, registry):
        c = registry.counter("c_total")
        c.inc(bits=4)
        c.inc(3, bits=8)
        assert c.value(bits=4) == 1
        assert c.value(bits=8) == 3
        assert c.value(bits=16) == 0

    def test_negative_rejected(self, registry):
        c = registry.counter("c_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_disabled_is_noop(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("c_total")
        c.inc(100)
        assert c.value() == 0


class TestGauge:
    def test_set_and_inc(self, registry):
        g = registry.gauge("g")
        g.set(7, stage="initial")
        g.inc(-2, stage="initial")
        assert g.value(stage="initial") == 5
        assert g.value(stage="final") == 0


class TestHistogram:
    def test_observe_buckets_sum_count(self, registry):
        h = registry.histogram("h", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 99.0):
            h.observe(v)
        assert h.count() == 3
        assert h.sum() == pytest.approx(101.0)
        sample = h._collect()[0]
        assert sample["buckets"] == {"1": 1, "2": 1, "+Inf": 1}

    def test_bounds_must_increase(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(2.0, 1.0))

    def test_exposition_is_cumulative(self, registry):
        h = registry.histogram("h", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        lines = registry.to_prometheus().splitlines()
        assert 'h_bucket{le="1"} 1' in lines
        assert 'h_bucket{le="2"} 2' in lines
        assert 'h_bucket{le="+Inf"} 2' in lines
        assert "h_count 2" in lines


class TestHistogramQuantile:
    def test_interpolates_within_the_winning_bucket(self, registry):
        h = registry.histogram("h", buckets=(1.0, 2.0, 4.0))
        # 4 samples in (1, 2]: the median rank (2 of 4) lands halfway
        # through that bucket's count, so the estimate is its midpoint.
        for v in (1.1, 1.2, 1.8, 1.9):
            h.observe(v)
        assert h.quantile(0.5) == pytest.approx(1.5)
        assert h.quantile(1.0) == pytest.approx(2.0)

    def test_first_bucket_interpolates_from_zero(self, registry):
        h = registry.histogram("h", buckets=(2.0, 4.0))
        h.observe(0.5)
        h.observe(1.0)
        assert h.quantile(0.5) == pytest.approx(1.0)

    def test_empty_or_unknown_series_is_nan(self, registry):
        import math

        h = registry.histogram("h", buckets=(1.0,))
        assert math.isnan(h.quantile(0.5))
        h.observe(0.5, shards="2")
        assert math.isnan(h.quantile(0.5, shards="4"))
        assert h.quantile(0.5, shards="2") == pytest.approx(0.5)

    def test_inf_bucket_clamps_to_largest_finite_bound(self, registry):
        h = registry.histogram("h", buckets=(1.0, 2.0))
        h.observe(50.0)
        assert h.quantile(0.99) == pytest.approx(2.0)

    def test_q_must_be_a_probability(self, registry):
        h = registry.histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)

    def test_disabled_registry_observes_nothing(self):
        import math

        reg = MetricsRegistry(enabled=False)
        h = reg.histogram("h", buckets=(1.0,))
        h.observe(0.5)
        assert math.isnan(h.quantile(0.5))


class TestRegistry:
    def test_get_or_create_kind_checked(self, registry):
        c = registry.counter("x_total")
        assert registry.counter("x_total") is c
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_reset_keeps_instruments(self, registry):
        c = registry.counter("x_total")
        c.inc(5)
        registry.reset()
        assert registry.get("x_total") is c
        assert c.value() == 0

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.counter("bad name")
        c = registry.counter("ok_total")
        with pytest.raises(ValueError):
            c.inc(**{"0bad": "v"})

    def test_collect_shape(self, registry):
        registry.counter("c_total", "a counter").inc(2, op="save")
        payload = registry.collect()
        assert payload["c_total"]["type"] == "counter"
        assert payload["c_total"]["samples"] == [
            {"labels": {"op": "save"}, "value": 2.0}
        ]

    def test_prometheus_output_lints_clean(self, registry):
        registry.counter("c_total", "a counter").inc(op="save")
        registry.gauge("g", "a gauge").set(1.5)
        registry.histogram("h", "a histogram", buckets=(1.0,)).observe(2.0)
        assert lint(registry.to_prometheus()) == []


class TestProcessRegistryAccounting:
    """Satellite: one shared accounting path, no double-counting."""

    def _tree(self, rng):
        disk = SimulatedDisk(
            DiskModel(t_seek=0.010, t_xfer=0.001, block_size=512)
        )
        return IQTree.build(rng.random((800, 6)), disk=disk)

    def test_disk_counters_match_ledger_exactly(self, rng, live_registry):
        """Engine deltas + single queries + ledger merges over the same
        disk leave the registry equal to the physical ledger delta --
        the disk counters are fed only by ``SimulatedDisk.read_blocks``.
        """
        tree = self._tree(rng)
        live_registry.reset()  # drop build-time I/O
        s0, b0, o0, e0 = (
            tree.disk.stats.seeks,
            tree.disk.stats.blocks_read,
            tree.disk.stats.blocks_overread,
            tree.disk.stats.elapsed,
        )
        queries = rng.random((6, 6))
        engine = tree.query_engine(pool=64)
        batch = engine.knn_batch(queries, k=3)
        single = nearest_neighbors(tree, queries[0], k=3)
        # Ledger arithmetic that must NOT feed the registry again:
        merged = batch.stats.io.merged_with(single.io)
        assert merged.blocks_read > 0
        scratch = IOStats(seeks=5, blocks_read=5, elapsed=1.0)
        scratch.reset()
        ledger = tree.disk.stats
        assert instruments.DISK_SEEKS.value() == ledger.seeks - s0
        assert (
            instruments.DISK_BLOCKS_READ.value() == ledger.blocks_read - b0
        )
        assert (
            instruments.DISK_BLOCKS_OVERREAD.value()
            == ledger.blocks_overread - o0
        )
        assert instruments.DISK_SIM_SECONDS.value() == pytest.approx(
            ledger.elapsed - e0
        )

    def test_iostats_round_trip(self):
        """merged_with and reset round-trip exactly, field for field."""
        a = IOStats(seeks=3, blocks_read=7, blocks_overread=2, elapsed=0.5)
        b = IOStats(seeks=1, blocks_read=4, blocks_overread=1, elapsed=0.25)
        merged = a.merged_with(b)
        assert (
            merged.seeks,
            merged.blocks_read,
            merged.blocks_overread,
            merged.elapsed,
        ) == (4, 11, 3, 0.75)
        merged.reset()
        assert merged == IOStats()

    def test_pool_counters_match_pool(self, rng, live_registry):
        tree = self._tree(rng)
        live_registry.reset()
        pool = BufferPool(32)
        engine = tree.query_engine(pool=pool)
        engine.knn_batch(rng.random((4, 6)), k=2)
        engine.knn_batch(rng.random((4, 6)), k=2)
        assert instruments.POOL_HITS.value() == pool.hits
        assert instruments.POOL_MISSES.value() == pool.misses

    def test_workload_exposition_lints_clean(self, rng, live_registry):
        tree = self._tree(rng)
        tree.query_engine(pool=32).knn_batch(rng.random((4, 6)), k=3)
        assert lint(live_registry.to_prometheus()) == []

    def test_pages_decoded_by_bits_totals(self, rng, live_registry):
        tree = self._tree(rng)
        live_registry.reset()
        engine = tree.query_engine()
        batch = engine.knn_batch(rng.random((3, 6)), k=2)
        decoded = sum(
            s["value"]
            for s in instruments.PAGES_DECODED._collect()
        )
        assert decoded == batch.stats.pages_read

    def test_pages_decoded_labeled_by_directory_width(self, live_registry):
        """A PQ page's payload header holds its code width; the counter
        is labeled with the width the directory reports for the page."""
        from repro.datasets import gaussian_clusters

        data = gaussian_clusters(
            n=3000, seed=7, dim=12, n_clusters=60, spread=1e-3
        )
        tree = IQTree.build(data, codec="pq")
        widths = {str(bits) for bits in tree.page_bits.tolist()}
        live_registry.reset()
        result = tree.nearest(data[0], k=5)
        batch = tree.query_engine().knn_batch(data[::500], k=5)
        samples = instruments.PAGES_DECODED._collect()
        assert {s["labels"]["bits"] for s in samples} <= widths
        decoded = sum(s["value"] for s in samples)
        assert 0 < decoded <= result.pages_read + batch.stats.pages_read


class TestDiskModelValidation:
    """Satellite: non-positive disk parameters raise ValueError."""

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"t_seek": 0.0}, "t_seek"),
            ({"t_seek": -0.1}, "t_seek"),
            ({"t_xfer": 0.0}, "t_xfer"),
            ({"t_xfer": -1.0}, "t_xfer"),
            ({"block_size": 0}, "block_size"),
            ({"block_size": -8}, "block_size"),
        ],
    )
    def test_rejects_non_positive(self, kwargs, field):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            DiskModel(**kwargs)

    def test_message_names_the_value(self):
        with pytest.raises(ValueError, match="got 0.0"):
            DiskModel(t_seek=0.0)
