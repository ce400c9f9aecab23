"""Codec selection skips only the PQ fits that cannot change a decision.

``choose_codecs`` prices a PQ page at the refinement cost of the fitted
codebook's ``eff_bits``.  Before fitting, it computes a floor on that
cost from :func:`~repro.quantization.codecs.effective_bits_bound` and
skips the fit when even the floor loses.  The rule is exact if

* every fitted ``eff_bits`` is at most the page's bound, and
* ``CostModel.refinement_cost`` never rises with (fractional) bits;

both are checked here.  The end-to-end checks then run codec selection
and maintenance sweeps with the rule on and with the floor forced to
``-inf`` (no fit skipped), and demand identical decisions and bytes.
A guard pins the SHA-256 of the quantized level of two small seeded
builds, so any change to ``fit_pq``'s output or to a codec decision
shows up as a changed digest.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.optimizer as optimizer
from repro.core.optimizer import choose_codecs, pq_candidate_configs
from repro.core.partition import Partition
from repro.core.tree import IQTree
from repro.costmodel.model import CostModel, PartitionStats
from repro.datasets import gaussian_clusters, uniform, weather_like
from repro.geometry.metrics import EUCLIDEAN, MAXIMUM
from repro.quantization.codecs import (
    MAX_EFF_BITS,
    PQView,
    effective_bits,
    effective_bits_bound,
    fit_pq,
)
from repro.storage.disk import DiskModel, SimulatedDisk
from repro.storage.persistence import load_iqtree, save_iqtree


def never_prune(monkeypatch):
    """Force every PQ fit to run: the floor can never reach a cost."""
    monkeypatch.setattr(optimizer, "_pq_cost_floor", lambda *a: -math.inf)


def count_fits(monkeypatch) -> list:
    """Record every ``_best_pq_for`` call (one per page fitted)."""
    calls = []
    real = optimizer._best_pq_for

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(optimizer, "_best_pq_for", counted)
    return calls


def decisions(solution):
    return [
        (
            opt.partition.indices.tobytes(),
            opt.bits,
            opt.codec,
            opt.pq_bits,
            opt.pq_sub,
            opt.eff_bits,
        )
        for opt in solution
    ]


def quantized_level_digest(tree) -> str:
    """SHA-256 over the quantized level's blocks, length-prefixed."""
    tree._ensure_clean()
    digest = hashlib.sha256()
    qf = tree._quant_file
    for i in range(qf.n_blocks):
        block = qf.peek_block(i)
        digest.update(len(block).to_bytes(4, "little"))
        digest.update(block)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# The bound
# ----------------------------------------------------------------------
@st.composite
def pages(draw):
    m = draw(st.integers(1, 120))
    d = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["pool", "f32", "f64", "clumps", "wide"]))
    rng = np.random.default_rng(seed)
    if kind == "pool":
        pts = rng.integers(0, 4, size=(m, d)) * 0.125
    elif kind == "f32":
        pts = rng.random((m, d)).astype(np.float32).astype(np.float64)
    elif kind == "f64":
        pts = rng.random((m, d))
    elif kind == "clumps":
        centers = rng.random((3, d))
        pts = centers[rng.integers(0, 3, m)] + rng.normal(0, 1e-4, (m, d))
    else:
        pts = rng.random((m, d)) * 10.0 ** rng.integers(-8, 4, size=(m, d))
    for j in draw(st.lists(st.integers(0, d - 1), max_size=d)):
        pts[:, j] = pts[0, j]
    return pts


def fitted_eff_bits(points, n_sub, bits):
    codes, lo32, hi32 = fit_pq(points, n_sub, bits)
    view = PQView(
        lo32.astype(np.float64), hi32.astype(np.float64), n_sub,
        points.shape[1],
    )
    extents = Partition.of(points, np.arange(len(points))).mbr.extents
    return effective_bits(extents, codes, view)


class TestEffectiveBitsBound:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(pages())
    def test_every_fit_is_within_the_bound(self, pts):
        m, d = pts.shape
        extents = Partition.of(pts, np.arange(m)).mbr.extents
        configs = pq_candidate_configs(d)
        k_max = max(min(1 << bits, m) for _, bits in configs)
        bound = effective_bits_bound(pts, extents, k_max)
        for n_sub, bits in configs:
            eff = fitted_eff_bits(pts, n_sub, bits)
            assert eff <= bound
            assert eff <= effective_bits_bound(
                pts, extents, min(1 << bits, m)
            )

    def test_bound_is_finite_on_spread_pages(self):
        # Mean nearest-neighbour gap ~ 1/(2*500): about log2(1000) bits.
        pts = np.random.default_rng(0).random((500, 4))
        extents = pts.max(axis=0) - pts.min(axis=0)
        bound = effective_bits_bound(pts, extents, 4)
        assert fitted_eff_bits(pts, 4, 2) <= bound < 12.0

    def test_degenerate_pages_bound_nothing(self):
        pts = np.random.default_rng(1).random((6, 3))
        extents = pts.max(axis=0) - pts.min(axis=0)
        assert effective_bits_bound(pts, extents, 6) == MAX_EFF_BITS
        assert effective_bits_bound(pts, np.zeros(3), 2) == MAX_EFF_BITS
        dup = np.repeat(pts[:2], 5, axis=0)  # every gap is zero
        ext = dup.max(axis=0) - dup.min(axis=0)
        assert effective_bits_bound(dup, ext, 2) == MAX_EFF_BITS


class TestRefinementCostMonotone:
    @settings(max_examples=300, deadline=None)
    @given(
        m=st.integers(1, 5000),
        sides=st.lists(
            st.floats(1e-6, 2.0), min_size=1, max_size=16
        ),
        extra=st.integers(0, 10**6),
        fractal=st.floats(0.05, 1.0),
        k=st.integers(1, 20),
        maximum=st.booleans(),
        bits=st.lists(
            st.floats(1.0, MAX_EFF_BITS), min_size=2, max_size=2
        ),
    )
    def test_cost_never_rises_with_bits(
        self, m, sides, extra, fractal, k, maximum, bits
    ):
        dim = len(sides)
        model = CostModel(
            SimulatedDisk().model,
            dim=dim,
            n_total=m + extra,
            fractal_dim=fractal * dim,
            metric=MAXIMUM if maximum else EUCLIDEAN,
            k=k,
        )
        low, high = sorted(bits)
        cost = [
            model.refinement_cost(PartitionStats(m, tuple(sides), b))
            for b in (low, high)
        ]
        assert cost[1] <= cost[0]


# ----------------------------------------------------------------------
# Same decisions with the rule on and off
# ----------------------------------------------------------------------
FIXTURES = {
    # Correlated data on 4 KiB blocks: the rule skips every per-page
    # fit and most merge fits.
    "weather": (lambda: weather_like(8000, seed=7), 4096),
    # Spread-out pages: the bound is loose, so no fit is skipped.
    "uniform": (lambda: uniform(4000, 16, seed=1), 8192),
    # Micro-clusters: PQ wins, so per-page fits must all run.
    "clustered": (
        lambda: gaussian_clusters(
            8000, 16, n_clusters=64, spread=5e-4, seed=1
        ),
        8192,
    ),
}


@pytest.fixture(scope="module", params=sorted(FIXTURES))
def grid_tree(request):
    make, block_size = FIXTURES[request.param]
    disk = SimulatedDisk(DiskModel(block_size=block_size))
    return request.param, IQTree.build(make(), codec="grid", disk=disk)


class TestChooseCodecsParity:
    @pytest.mark.parametrize("allow_merge", [False, True])
    def test_rule_changes_no_decision(
        self, grid_tree, allow_merge, monkeypatch
    ):
        name, tree = grid_tree
        args = (
            tree._points,
            list(tree._partitions),
            tree.cost_model,
            tree.disk.model.block_size,
        )
        fits = count_fits(monkeypatch)
        with_rule = choose_codecs(
            *args, mode="auto", allow_merge=allow_merge
        )
        pruned_fits = len(fits)
        never_prune(monkeypatch)
        fits.clear()
        without = choose_codecs(*args, mode="auto", allow_merge=allow_merge)
        assert decisions(with_rule) == decisions(without)
        assert pruned_fits <= len(fits)
        if name == "weather":
            assert pruned_fits < len(fits)  # the rule really fires

    def test_pq_mode_fits_every_page(self, grid_tree, monkeypatch):
        _, tree = grid_tree
        fits = count_fits(monkeypatch)
        quantized = [o for o in tree._partitions if o.bits < 32]
        choose_codecs(
            tree._points, quantized, tree.cost_model,
            tree.disk.model.block_size, mode="pq",
        )
        assert len(fits) == sum(o.partition.size >= 2 for o in quantized)


# ----------------------------------------------------------------------
# Maintenance sweeps inherit the rule
# ----------------------------------------------------------------------
def run_write_script(tree):
    """Inserts near stored points and deletes, swept twice."""
    rng = np.random.default_rng(3)
    manager = tree.maintenance_manager()
    reports = []
    for _ in range(2):
        for _ in range(40):
            src = tree.points[rng.integers(tree.n_points)]
            point = np.clip(src + rng.normal(0, 0.01, tree.dim), 0, 1)
            tree.insert(point)
        page = tree._partitions[int(rng.integers(tree.n_pages))]
        for pid in page.partition.indices[: page.partition.size // 2]:
            tree.delete(int(pid))
        reports.append(manager.sweep())
    return reports


class TestSweepParity:
    def test_sweeps_identical_with_rule_off(self, monkeypatch):
        make, block_size = FIXTURES["weather"]
        data = make()

        def build():
            disk = SimulatedDisk(DiskModel(block_size=block_size))
            return IQTree.build(data, codec="auto", disk=disk)

        tree = build()
        fits = count_fits(monkeypatch)
        reports = run_write_script(tree)
        pruned_fits = len(fits)
        never_prune(monkeypatch)
        fits.clear()
        reference = build()
        reference_reports = run_write_script(reference)
        assert reports == reference_reports
        assert any(r.dirty for r in reports)
        assert pruned_fits < len(fits)
        assert decisions(tree._partitions) == decisions(
            reference._partitions
        )
        assert quantized_level_digest(tree) == quantized_level_digest(
            reference
        )


# ----------------------------------------------------------------------
# Byte-stability guard
# ----------------------------------------------------------------------
#: Quantized-level digests of the builds below, recorded with the
#: per-subspace k-means fit and no skip rule.
LEVEL_SHA256 = {
    "pq": "c63ad3b16b8b33ff887a9a42467b536a08995cc96c347528f338a221e6268006",
    "auto": "aae340fc34ba6a3ed0ab0c3741f2f3ac29e6cf82bb80f41dd2bfd9f34dc7063e",
}


def guard_build(codec: str) -> IQTree:
    """Forced PQ on correlated pages; cost-picked PQ on micro-clusters."""
    if codec == "pq":
        make, block_size = FIXTURES["weather"]
        disk = SimulatedDisk(DiskModel(block_size=block_size))
        return IQTree.build(make(), codec="pq", disk=disk)
    data = gaussian_clusters(8000, 16, n_clusters=64, spread=5e-4, seed=3)
    return IQTree.build(data, codec="auto")


class TestByteStability:
    @pytest.mark.parametrize("codec", sorted(LEVEL_SHA256))
    def test_saved_quantized_level_is_unchanged(self, codec, tmp_path):
        tree = guard_build(codec)
        assert any(opt.codec for opt in tree._partitions)
        path = tmp_path / f"{codec}.iqt"
        save_iqtree(tree, path, fsync=False)
        loaded = load_iqtree(path, verify=True)
        assert quantized_level_digest(tree) == LEVEL_SHA256[codec]
        assert quantized_level_digest(loaded) == LEVEL_SHA256[codec]
