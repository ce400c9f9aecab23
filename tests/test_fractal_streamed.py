"""The row-streamed correlation integral against the dense one.

:func:`repro.costmodel.fractal.correlation_dimension` computes the pair
distances one row of the upper triangle at a time.  Each distance is
the same sum over the same contiguous axis as in an all-pairs
``(n, n, d)`` difference tensor, so the estimate must be the same float
-- compared here with ``==`` against a copy of the dense estimator.  A
``tracemalloc`` bound keeps the dense tensor from coming back.

Also here: box counting on a line along any axis (its cell key used to
overflow int64 once ``level * d > 63``) and the ``max_points`` floor.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.costmodel.fractal import (
    _fit_slope,
    _normalize,
    _subsample,
    box_counting_dimension,
    correlation_dimension,
)
from repro.datasets import uniform
from repro.exceptions import CostModelError


def dense_correlation_dimension(points, radii=8, max_points=2000, seed=0):
    """The all-pairs estimator: one ``(n, n, d)`` difference tensor."""
    points = np.asarray(points, dtype=np.float64)
    points = _subsample(points, max_points, seed)
    d = points.shape[1]
    unit = _normalize(points)
    diffs = unit[:, None, :] - unit[None, :, :]
    dists = np.sqrt(np.sum(diffs * diffs, axis=-1))
    iu = np.triu_indices(unit.shape[0], k=1)
    pair_dists = dists[iu]
    positive = pair_dists[pair_dists > 0]
    if positive.size == 0:
        return 1e-6
    r_lo = np.quantile(positive, 0.02)
    r_hi = np.quantile(positive, 0.5)
    if r_hi <= r_lo:
        r_hi = r_lo * 4.0
    ladder = np.geomspace(r_lo, r_hi, radii)
    log_r = []
    log_c = []
    n_pairs = pair_dists.size
    for r in ladder:
        c = np.count_nonzero(pair_dists <= r) / n_pairs
        if 0 < c < 1:
            log_r.append(np.log(r))
            log_c.append(np.log(c))
    if len(log_r) < 2:
        return float(d)
    slope = _fit_slope(np.array(log_r), np.array(log_c))
    return float(np.clip(slope, 1e-6, d))


@st.composite
def point_sets(draw):
    n = draw(st.integers(2, 70))
    d = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(
        st.sampled_from(["f64", "f32", "pool", "identical", "clumps"])
    )
    if kind == "f64":
        pts = rng.random((n, d))
    elif kind == "f32":
        pts = rng.random((n, d)).astype(np.float32).astype(np.float64)
    elif kind == "pool":  # many exact duplicates
        pts = rng.integers(0, 3, size=(n, d)) * 0.25
    elif kind == "identical":
        pts = np.tile(rng.random(d), (n, 1))
    else:
        centers = rng.random((3, d))
        pts = centers[rng.integers(0, 3, n)] + rng.normal(0, 1e-3, (n, d))
    for j in draw(st.lists(st.integers(0, d - 1), max_size=d)):
        pts[:, j] = pts[0, j]  # zero-extent dimension
    return pts


class TestStreamedMatchesDense:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        point_sets(),
        st.integers(2, 12),
        st.integers(2, 80),
        st.integers(0, 2**16),
    )
    def test_same_float(self, pts, radii, max_points, seed):
        # max_points < n takes the subsample path
        kwargs = dict(radii=radii, max_points=max_points, seed=seed)
        assert correlation_dimension(pts, **kwargs) == (
            dense_correlation_dimension(pts, **kwargs)
        )

    @pytest.mark.parametrize("n,d", [(2, 1), (2, 16), (300, 1), (600, 16)])
    def test_same_float_at_fixed_shapes(self, n, d):
        pts = uniform(n, d, seed=n + d)
        assert correlation_dimension(pts) == dense_correlation_dimension(pts)

    def test_same_float_on_the_default_subsample(self):
        # n > max_points = 2000: the build's path on every workload
        # (d = 5 keeps the dense reference near 300 MB).
        pts = uniform(3000, 5, seed=2)
        assert correlation_dimension(pts) == dense_correlation_dimension(pts)


class TestMemory:
    def test_peak_allocation_is_far_below_the_dense_tensor(self):
        # The dense estimator allocates two (2000, 2000, 16) float64
        # tensors (512 MB each); the streamed one holds O(n^2 / 2).
        pts = uniform(2000, 16, seed=4)
        tracemalloc.start()
        try:
            correlation_dimension(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestArguments:
    def test_rejects_a_one_point_subsample(self):
        pts = uniform(100, 3, seed=1)
        with pytest.raises(CostModelError, match="subsample"):
            correlation_dimension(pts, max_points=1)
        with pytest.raises(CostModelError, match="subsample"):
            correlation_dimension(pts, max_points=0)

    def test_two_point_subsample_is_allowed(self):
        pts = uniform(100, 3, seed=1)
        assert 0 < correlation_dimension(pts, max_points=2) <= 3


class TestBoxCountingLine:
    @pytest.mark.parametrize("d", [4, 11, 16])
    @pytest.mark.parametrize("first_axis", [True, False])
    def test_a_line_along_any_axis_is_one_dimensional(self, d, first_axis):
        pts = np.zeros((4096, d))
        pts[:, 0 if first_axis else d - 1] = np.linspace(0.0, 1.0, 4096)
        assert box_counting_dimension(pts) == pytest.approx(1.0, abs=0.05)
