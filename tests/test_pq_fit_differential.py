"""Differential test: the one-pass ``fit_pq`` against the per-subspace fit.

:func:`repro.quantization.codecs.fit_pq` fits all subspaces of a page in
one vectorized Lloyd pass.  Stored PQ pages and the container's
``level_crcs`` depend on its exact output, so it must produce the bytes
the per-subspace k-means (``_reference_fit`` below, one ``_kmeans_1sub``
per subspace) produces, for every candidate configuration of
:func:`~repro.core.optimizer.pq_candidate_configs`.

Known mutant this test fails: sending ``argmin`` ties to the highest
cluster index in ``_lloyd`` (``k - 1 - np.argmin(d2[..., ::-1], axis=2)``)
-- duplicate points tie from the first iteration, so the codes differ.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.optimizer import pq_candidate_configs
from repro.quantization.codecs import (
    _LLOYD_ITERS,
    _sound_f32_bounds,
    fit_pq,
    subspace_spans,
)


def _kmeans_1sub(sub: np.ndarray, k: int) -> np.ndarray:
    """Per-subspace deterministic k-means (the reference semantics)."""
    m = sub.shape[0]
    order = np.lexsort(
        tuple(sub[:, c] for c in range(sub.shape[1] - 1, -1, -1))
    )
    picks = (np.arange(k, dtype=np.int64) * m) // k
    centroids = sub[order[picks]].astype(np.float64).copy()
    assign = np.zeros(m, dtype=np.int64)
    for _ in range(_LLOYD_ITERS):
        diff = sub[:, None, :] - centroids[None, :, :]
        d2 = np.einsum("mkd,mkd->mk", diff, diff)
        assign = np.argmin(d2, axis=1)
        counts = np.bincount(assign, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, sub)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty][:, None]
    return assign


def _reference_fit(points, n_sub: int, bits: int):
    """One k-means per subspace, then per-subspace boxes."""
    points = np.asarray(points, dtype=np.float64)
    m, d = points.shape
    k = min(1 << bits, m)
    spans = subspace_spans(d, n_sub)
    codes = np.empty((m, len(spans)), dtype=np.uint32)
    box_lo = np.empty((k, d))
    box_hi = np.empty((k, d))
    for s, (a, b) in enumerate(spans):
        sub = points[:, a:b]
        assign = _kmeans_1sub(sub, k)
        codes[:, s] = assign.astype(np.uint32)
        lo = np.full((k, b - a), np.inf)
        hi = np.full((k, b - a), -np.inf)
        np.minimum.at(lo, assign, sub)
        np.maximum.at(hi, assign, sub)
        empty = ~np.isfinite(lo[:, 0])
        if np.any(empty):
            lo[empty] = lo[int(np.flatnonzero(~empty)[0])]
            hi[empty] = hi[int(np.flatnonzero(~empty)[0])]
        box_lo[:, a:b] = lo
        box_hi[:, a:b] = hi
    lo32, hi32 = _sound_f32_bounds(box_lo, box_hi)
    return codes, lo32, hi32


def assert_same_bytes(points, n_sub, bits):
    got = fit_pq(points, n_sub, bits)
    want = _reference_fit(points, n_sub, bits)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@st.composite
def pages(draw):
    """A page plus one of its candidate configurations.

    Values come from a small pool (so duplicates and distance ties are
    common), from the unit interval as float32 or float64, or spread
    over many magnitudes; some dimensions are held constant.
    """
    m = draw(st.integers(1, 80))
    d = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["pool", "f32", "f64", "wide"]))
    rng = np.random.default_rng(seed)
    if kind == "pool":
        pts = rng.integers(0, 3, size=(m, d)) * 0.25
    elif kind == "f32":
        pts = rng.random((m, d)).astype(np.float32)
    elif kind == "f64":
        pts = rng.random((m, d))
    else:
        pts = rng.random((m, d)) * 10.0 ** rng.integers(-6, 6, size=(m, d))
    flat = draw(st.lists(st.integers(0, d - 1), max_size=d))
    for j in flat:
        pts[:, j] = pts[0, j]
    n_sub, bits = draw(st.sampled_from(pq_candidate_configs(d)))
    return pts, n_sub, bits


class TestOnePassFitMatchesPerSubspaceFit:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(pages())
    def test_drawn_pages(self, page):
        assert_same_bytes(*page)

    @pytest.mark.parametrize("d", [1, 2, 7, 16])
    def test_every_candidate_config(self, d):
        rng = np.random.default_rng(d)
        centers = rng.random((6, d))
        pts = centers[rng.integers(0, 6, 400)] + rng.normal(0, 1e-3, (400, d))
        for n_sub, bits in pq_candidate_configs(d):
            assert_same_bytes(pts, n_sub, bits)

    @pytest.mark.parametrize("m", [1, 2, 4, 64])
    def test_k_equals_m(self, m):
        # (d, 6) has K = min(64, m) = m for every m here.
        rng = np.random.default_rng(m)
        pts = rng.random((m, 5))
        pts[m // 2 :] = pts[0]  # duplicates among the K = m seeds
        assert_same_bytes(pts, 5, 6)
        assert_same_bytes(pts, 3, 8)
