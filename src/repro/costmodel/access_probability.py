"""Runtime per-page access probabilities (paper Section 2.2, eqs. 2-5).

During a nearest-neighbor search the cost-balance scheduler must decide
whether to pre-read a page near the pivot.  The page ``b_i`` will have to
be read later exactly when no point closer than its mindist has been
found by then, i.e. when the *b_i-sphere* (the ball around the query that
just touches ``b_i``) contains no data point of any higher-priority page.

For each higher-priority page ``b_k`` the probability of *not* having a
point in the intersection is ``(1 - V_int / V_mbr) ** M_k`` (eq. 3); the
access probability is the product over all higher-priority, not yet
processed pages (eq. 2).  The intersection volume uses the max-metric
closed form (eq. 5); for Euclidean (and other) metrics the sphere is
replaced by the *volume-matched* cube -- the cube whose volume equals
the metric ball's -- before applying the rectangular formula.  This is
the documented approximation (the paper likewise resorts to
approximations for non-max metrics); matching volumes rather than using
the enclosing bounding box keeps the intersection estimate unbiased in
high dimensions, where the enclosing cube exceeds the ball's volume by
orders of magnitude and would collapse every access probability to
zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import CostModelError
from repro.geometry.metrics import MAXIMUM, Metric, MaximumMetric

__all__ = [
    "PageView",
    "access_probabilities",
    "intersection_volumes",
    "intersection_fractions",
    "effective_cube_radius",
]


@dataclass
class PageView:
    """Snapshot of the still-pending directory pages of one query.

    Arrays are aligned: row ``i`` describes pending page ``i``.

    Attributes
    ----------
    lowers, uppers:
        MBR bounds, shape ``(n, d)``.
    counts:
        Points stored on each page, shape ``(n,)``.
    mindists:
        Current mindist from the query to each page, shape ``(n,)``.
    """

    lowers: np.ndarray
    uppers: np.ndarray
    counts: np.ndarray
    mindists: np.ndarray

    def __post_init__(self) -> None:
        if self.lowers.shape != self.uppers.shape or self.lowers.ndim != 2:
            raise CostModelError("bounds must be matching (n, d) arrays")
        n = self.lowers.shape[0]
        if self.counts.shape != (n,) or self.mindists.shape != (n,):
            raise CostModelError("counts/mindists must be (n,) arrays")


def effective_cube_radius(radius: float, dim: int, metric: Metric) -> float:
    """Half-side of the cube whose volume matches the metric ball's.

    For the maximum metric the ball *is* a cube, so the radius passes
    through unchanged; for any other metric the cube is shrunk so
    ``(2 r_eff)^d = V_ball(r, d)``.  ``radius`` may be an array of
    radii, converted elementwise.
    """
    if isinstance(metric, MaximumMetric):
        return radius
    return 0.5 * radius * metric.unit_ball_volume(dim) ** (1.0 / dim)


def intersection_volumes(
    query: np.ndarray,
    radius: float,
    lowers: np.ndarray,
    uppers: np.ndarray,
) -> np.ndarray:
    """Volumes of box ∩ max-metric ball for many boxes (paper eq. 5).

    The ball is the cube ``[q - r, q + r]``; the intersection with each
    box is the product over dimensions of
    ``min(ub, q+r) - max(lb, q-r)`` clamped at zero.  Callers with a
    non-max metric should convert the ball radius with
    :func:`effective_cube_radius` first.
    """
    if radius < 0:
        raise CostModelError("radius must be non-negative")
    query = np.asarray(query, dtype=np.float64)
    side = np.minimum(uppers, query + radius) - np.maximum(
        lowers, query - radius
    )
    side = np.maximum(side, 0.0)
    return np.prod(side, axis=1)


def access_probabilities(
    query: np.ndarray,
    pages: PageView,
    targets: np.ndarray,
    metric: Metric = MAXIMUM,
    k: int = 1,
) -> np.ndarray:
    """Access probability (eq. 2) for each page index in ``targets``.

    Parameters
    ----------
    query:
        The query point, shape ``(d,)``.
    pages:
        Snapshot of all *pending* (not yet processed, not pruned) pages,
        sorted arbitrarily; priorities are derived from ``mindists``.
    targets:
        Indices into the snapshot for which probabilities are wanted.
    metric:
        Query metric (non-max metrics use the volume-matched cube).
    k:
        The query's neighbor count.  ``k = 1`` is the paper's eq. 2;
        for ``k > 1`` the page must be read unless at least ``k``
        points lie inside the b_i-sphere, so the probability becomes
        the lower tail of the point count's distribution -- the "k-NN
        extended model" the paper sketches but omits.  We model the
        count as Poisson with the exact k = 1 log-mass as its rate,
        which makes the k = 1 case coincide with eq. 2 exactly.

    Returns
    -------
    numpy.ndarray
        Probabilities in ``[0, 1]``, one per target.  A target whose
        mindist is the global minimum gets probability 1 (it is the
        pivot and must be read).

    Notes
    -----
    For target ``i`` with b_i-sphere radius ``r_i = mindist_i``, every
    page with a *smaller* mindist intersects the sphere and contributes
    the no-point-in-intersection factor of eq. 3; pages with larger
    mindist cannot contain a closer point and contribute nothing.
    """
    if k < 1:
        raise CostModelError("k must be at least 1")
    query = np.asarray(query, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    results = np.ones(targets.size, dtype=np.float64)
    if targets.size == 0:
        return results
    radii = pages.mindists[targets].astype(np.float64)
    # Only pages below the largest target radius enter any product.
    cols = np.flatnonzero(pages.mindists < radii.max())
    higher = pages.mindists[cols] < radii[:, None]
    live = np.flatnonzero(higher.any(axis=1))
    if live.size == 0:
        return results
    dim = pages.lowers.shape[1]
    fraction = _fraction_block(
        query,
        effective_cube_radius(radii[live], dim, metric),
        pages.lowers[cols].T,
        pages.uppers[cols].T,
    )
    np.clip(fraction, 0.0, 1.0 - 1e-15, out=fraction)
    terms = pages.counts[cols] * np.log1p(-fraction)
    # rate = -log P(no point in any intersection); exp(-rate) is eq. 2
    # exactly, and doubles as the Poisson rate for k > 1.  Each target
    # sums its own compacted page set in pending order: a masked or
    # padded row would regroup numpy's pairwise sum.  The compacted
    # rows lie end to end in ``picked``, so each is one slice of it.
    higher = higher[live]
    picked = terms[higher]
    ends = np.cumsum(higher.sum(axis=1)).tolist()
    rates = np.array(
        [
            -float(np.add.reduce(picked[start:end]))
            for start, end in zip([0] + ends, ends)
        ]
    )
    # The Poisson tail is capped at 1, so no probability leaves [0, 1].
    results[live] = _poisson_lower_tail(rates, k)
    return results


def _poisson_lower_tail(rates: np.ndarray, k: int) -> np.ndarray:
    """``P(Poisson(rate) < k)`` -- probability of fewer than k hits,
    elementwise over ``rates``.

    Row ``i`` of ``log_terms`` is ``log(e^-rate rate^i / i!)``, built
    by adding ``log(rate) - log(i)`` to row ``i - 1``; ``cumsum`` along
    the rows adds strictly in row order, like a term-by-term loop.
    """
    out = np.ones(rates.shape, dtype=np.float64)
    positive = rates > 0.0
    rate = rates[positive]
    steps = np.empty((k, rate.size), dtype=np.float64)
    steps[0] = -rate
    if k > 1:
        steps[1:] = np.log(rate) - np.log(np.arange(1.0, k))[:, None]
    log_terms = np.cumsum(steps, axis=0)
    total = np.cumsum(np.exp(log_terms), axis=0)[-1]
    out[positive] = np.minimum(total, 1.0)
    return out


def intersection_fractions(
    query: np.ndarray,
    radius: float,
    lowers: np.ndarray,
    uppers: np.ndarray,
) -> np.ndarray:
    """``V_int / V_mbr`` for many boxes, computed per dimension.

    Dividing the per-dimension interval overlaps (instead of the volume
    products) avoids floating-point underflow for tiny boxes and
    handles degenerate (zero-extent) dimensions exactly: a flat side
    contributes fraction 1 when its coordinate lies inside the query
    cube's interval and 0 otherwise.
    """
    if radius < 0:
        raise CostModelError("radius must be non-negative")
    return _fraction_block(
        np.asarray(query, dtype=np.float64),
        np.array([radius], dtype=np.float64),
        np.asarray(lowers).T,
        np.asarray(uppers).T,
    )[0]


def _fraction_block(
    query: np.ndarray,
    radii: np.ndarray,
    lowers_t: np.ndarray,
    uppers_t: np.ndarray,
) -> np.ndarray:
    """:func:`intersection_fractions` for many cube radii at once.

    ``(t,)`` radii against boxes given dimension-first, ``(d, n)``,
    give ``(t, n)`` fractions.  Every element goes through the same
    operations as one radius alone, and the product over dimensions
    multiplies in dimension order either way; keeping the dimensions
    on the leading axis just makes that product one elementwise pass
    per dimension.
    """
    low = (query[:, None] - radii)[:, :, None]
    high = (query[:, None] + radii)[:, :, None]
    sides = uppers_t - lowers_t
    flat = ~(sides > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.minimum(uppers_t[:, None, :], high)
        frac -= np.maximum(lowers_t[:, None, :], low)
        np.maximum(frac, 0.0, out=frac)
        np.divide(frac, np.where(flat, 1.0, sides)[:, None, :], out=frac)
    if flat.any():
        # Degenerate side: inside the interval iff overlap >= 0, which
        # after clamping means the raw overlap was >= 0.
        dims, cols = np.nonzero(flat)
        edge = lowers_t[dims, cols][:, None]
        frac[dims, :, cols] = (edge >= low[dims, :, 0]) & (
            edge <= high[dims, :, 0]
        )
    # Every fraction already lies in [0, 1]: the overlap is clamped at
    # 0, and as rounding is monotone it never exceeds the side it is
    # divided by; a flat side's is 0 or 1.
    return np.multiply.reduce(frac, axis=0)
