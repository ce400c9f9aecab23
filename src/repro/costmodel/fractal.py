"""Fractal (intrinsic) dimension estimation.

The cost model uses the fractal dimension ``D_F`` to account for
correlation in the data: correlated points concentrate on a lower-
dimensional subset of the embedding space, so the number of points inside
a growing volume scales with exponent ``D_F``, not ``d``.

Two standard estimators are provided:

* **Box counting** (capacity dimension ``D_0``): count occupied grid
  cells at a ladder of scales and fit ``log N(eps)`` against
  ``log (1/eps)``.
* **Correlation integral** (correlation dimension ``D_2``): count point
  pairs within distance ``r`` at a ladder of radii and fit
  ``log C(r)`` against ``log r``.  ``D_2`` is the variant the paper's
  reference [2] recommends for selectivity estimation.

Both estimators work on a subsample for large inputs, clamp the result to
``(0, d]``, and are deterministic given the ``seed``.

Memory: the correlation integral builds the ``n (n - 1) / 2`` pair
distances of its ``n <= max_points`` subsample one row of the upper
triangle at a time, so its peak is two ``(n^2 / 2,)`` float64 arrays
(the distances and their positive part, about 32 MB at the default
``n = 2000``) plus one ``(n, d)`` row difference -- independent of
``d``, where an all-pairs ``(n, n, d)`` difference tensor would take
512 MB at ``d = 16``.  Box counting holds one ``(n, d)`` cell-code
array per level.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import CostModelError

__all__ = [
    "box_counting_dimension",
    "correlation_dimension",
    "estimate_fractal_dimension",
]


def _normalize(points: np.ndarray) -> np.ndarray:
    """Scale points into the unit cube (degenerate dims collapse to 0)."""
    lower = points.min(axis=0)
    extent = points.max(axis=0) - lower
    safe = np.where(extent > 0, extent, 1.0)
    return (points - lower) / safe


def _subsample(points: np.ndarray, limit: int, seed: int) -> np.ndarray:
    if points.shape[0] <= limit:
        return points
    rng = np.random.default_rng(seed)
    idx = rng.choice(points.shape[0], size=limit, replace=False)
    return points[idx]


def box_counting_dimension(
    points: np.ndarray,
    scales: int = 6,
    max_points: int = 20000,
    seed: int = 0,
) -> float:
    """Estimate the box-counting dimension ``D_0``.

    Parameters
    ----------
    points:
        Data array of shape ``(n, d)`` with ``n >= 2``.
    scales:
        Number of dyadic grid levels (cell counts ``2^1 .. 2^scales``
        per dimension).
    max_points:
        Subsample size bound for tractability.
    seed:
        Seed for the subsample draw.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 2:
        raise CostModelError("need at least two points")
    if scales < 2:
        raise CostModelError("need at least two scales to fit a slope")
    points = _subsample(points, max_points, seed)
    unit = _normalize(points)
    d = unit.shape[1]
    log_inv_eps = []
    log_counts = []
    for level in range(1, scales + 1):
        cells_per_dim = 2**level
        codes = np.minimum(
            (unit * cells_per_dim).astype(np.int64), cells_per_dim - 1
        )
        # Distinct code rows, not a packed integer key: a key of
        # ``level * d`` bits overflows int64 once that exceeds 63.
        occupied = np.unique(codes, axis=0).shape[0]
        log_inv_eps.append(level * np.log(2.0))
        log_counts.append(np.log(occupied))
    slope = _fit_slope(np.array(log_inv_eps), np.array(log_counts))
    return float(np.clip(slope, 1e-6, d))


def correlation_dimension(
    points: np.ndarray,
    radii: int = 8,
    max_points: int = 2000,
    seed: int = 0,
) -> float:
    """Estimate the correlation dimension ``D_2``.

    Computes the correlation integral ``C(r)`` (fraction of point pairs
    within Euclidean distance ``r``) on a geometric ladder of radii and
    fits the log-log slope over the radii where ``C(r)`` is informative
    (strictly between its floor and saturation).

    The pair distances are computed one row of the upper triangle at a
    time, in ``np.triu_indices`` order.  Each distance is the square
    root of the same sum over the same contiguous axis as an all-pairs
    difference tensor would give (``(a - b)^2 == (b - a)^2`` exactly),
    so the result does not depend on the chunking.

    Raises :class:`CostModelError` for fewer than two points, fewer
    than two radii, or ``max_points < 2`` (a one-point subsample has no
    pairs to count).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 2:
        raise CostModelError("need at least two points")
    if radii < 2:
        raise CostModelError("need at least two radii to fit a slope")
    if max_points < 2:
        raise CostModelError("need a subsample of at least two points")
    points = _subsample(points, max_points, seed)
    n, d = points.shape
    unit = _normalize(points)
    pair_dists = np.empty(n * (n - 1) // 2)
    start = 0
    for i in range(n - 1):
        diff = unit[i + 1 :] - unit[i]
        stop = start + diff.shape[0]
        np.sqrt(np.sum(diff * diff, axis=-1), out=pair_dists[start:stop])
        start = stop
    n_pairs = pair_dists.size
    # Zero distances are <= every radius: count them once, not per rung.
    n_zero = np.count_nonzero(pair_dists == 0)
    positive = pair_dists[pair_dists > 0]
    del pair_dists
    if positive.size == 0:
        # All points identical: zero-dimensional support.
        return 1e-6
    r_lo = np.quantile(positive, 0.02)
    r_hi = np.quantile(positive, 0.5)
    if r_hi <= r_lo:
        r_hi = r_lo * 4.0
    ladder = np.geomspace(r_lo, r_hi, radii)
    log_r = []
    log_c = []
    for r in ladder:
        c = (n_zero + np.count_nonzero(positive <= r)) / n_pairs
        if 0 < c < 1:
            log_r.append(np.log(r))
            log_c.append(np.log(c))
    if len(log_r) < 2:
        return float(d)
    slope = _fit_slope(np.array(log_r), np.array(log_c))
    return float(np.clip(slope, 1e-6, d))


def estimate_fractal_dimension(
    points: np.ndarray, method: str = "correlation", **kwargs
) -> float:
    """Dispatch to a fractal-dimension estimator by name."""
    if method == "correlation":
        return correlation_dimension(points, **kwargs)
    if method == "box":
        return box_counting_dimension(points, **kwargs)
    raise CostModelError(f"unknown fractal estimator: {method!r}")


def _fit_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x."""
    x_mean = x.mean()
    y_mean = y.mean()
    denom = np.sum((x - x_mean) ** 2)
    if denom == 0:
        raise CostModelError("degenerate scale ladder")
    return float(np.sum((x - x_mean) * (y - y_mean)) / denom)
