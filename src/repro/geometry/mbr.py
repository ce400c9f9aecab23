"""Minimum bounding rectangles (MBRs) and box distance computations.

An :class:`MBR` is an axis-aligned box given by its per-dimension lower
and upper bounds.  The module also offers vectorized helpers that compute
mindist/maxdist from one query point to *many* boxes at once; these are
the hot path of every best-first search in the repository.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.exceptions import GeometryError

__all__ = [
    "MBR",
    "mindist_to_boxes",
    "maxdist_to_boxes",
    "mindist_matrix",
    "maxdist_matrix",
    "mindist_components",
    "maxdist_components",
]


class MBR:
    """An axis-aligned minimum bounding rectangle.

    Parameters
    ----------
    lower, upper:
        Array-likes of equal length holding per-dimension bounds with
        ``lower[i] <= upper[i]`` for every dimension ``i``.

    Notes
    -----
    Instances are immutable: the bound arrays are copied and marked
    read-only, so an MBR can be shared freely between directory entries,
    cost-model snapshots, and quantizers.
    """

    __slots__ = ("_lower", "_upper")

    def __init__(self, lower: Iterable[float], upper: Iterable[float]):
        lower = np.asarray(lower, dtype=np.float64).copy()
        upper = np.asarray(upper, dtype=np.float64).copy()
        if lower.ndim != 1 or upper.ndim != 1:
            raise GeometryError("MBR bounds must be one-dimensional arrays")
        if lower.shape != upper.shape:
            raise GeometryError(
                f"bound shapes differ: {lower.shape} vs {upper.shape}"
            )
        if lower.size == 0:
            raise GeometryError("MBR must have at least one dimension")
        if np.any(lower > upper):
            raise GeometryError("MBR has lower > upper in some dimension")
        lower.flags.writeable = False
        upper.flags.writeable = False
        self._lower = lower
        self._upper = upper

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def of_points(cls, points: np.ndarray) -> "MBR":
        """Return the tightest MBR enclosing ``points`` (shape (n, d))."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise GeometryError("of_points needs a non-empty (n, d) array")
        return cls(points.min(axis=0), points.max(axis=0))

    @classmethod
    def unit_cube(cls, dim: int) -> "MBR":
        """The unit hypercube ``[0, 1]^dim``."""
        if dim <= 0:
            raise GeometryError("dimension must be positive")
        return cls(np.zeros(dim), np.ones(dim))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def lower(self) -> np.ndarray:
        """Per-dimension lower bounds (read-only array)."""
        return self._lower

    @property
    def upper(self) -> np.ndarray:
        """Per-dimension upper bounds (read-only array)."""
        return self._upper

    @property
    def dim(self) -> int:
        """Number of dimensions."""
        return self._lower.size

    @property
    def extents(self) -> np.ndarray:
        """Per-dimension side lengths ``upper - lower``."""
        return self._upper - self._lower

    @property
    def center(self) -> np.ndarray:
        """The center point of the box."""
        return 0.5 * (self._lower + self._upper)

    def volume(self) -> float:
        """Product of the side lengths (zero for degenerate boxes)."""
        return float(np.prod(self.extents))

    def margin(self) -> float:
        """Sum of the side lengths (the R*-tree 'margin' heuristic)."""
        return float(np.sum(self.extents))

    def longest_dimension(self) -> int:
        """Index of the dimension with the largest extent."""
        return int(np.argmax(self.extents))

    # ------------------------------------------------------------------
    # Predicates and point queries
    # ------------------------------------------------------------------
    def contains_point(self, point: np.ndarray) -> bool:
        """True if ``point`` lies inside the box (boundary inclusive)."""
        point = np.asarray(point, dtype=np.float64)
        self._check_dim(point)
        return bool(
            np.all(point >= self._lower) and np.all(point <= self._upper)
        )

    def contains_mbr(self, other: "MBR") -> bool:
        """True if ``other`` lies entirely inside this box."""
        self._check_dim(other.lower)
        return bool(
            np.all(other.lower >= self._lower)
            and np.all(other.upper <= self._upper)
        )

    def intersects(self, other: "MBR") -> bool:
        """True if the two boxes share at least a boundary point."""
        self._check_dim(other.lower)
        return bool(
            np.all(self._lower <= other.upper)
            and np.all(other.lower <= self._upper)
        )

    def intersection_volume(self, other: "MBR") -> float:
        """Volume of the overlap region (zero when disjoint)."""
        self._check_dim(other.lower)
        side = np.minimum(self._upper, other.upper) - np.maximum(
            self._lower, other.lower
        )
        if np.any(side <= 0.0):
            return 0.0
        return float(np.prod(side))

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------
    def union(self, other: "MBR") -> "MBR":
        """The smallest box containing both inputs."""
        self._check_dim(other.lower)
        return MBR(
            np.minimum(self._lower, other.lower),
            np.maximum(self._upper, other.upper),
        )

    def extended_by_point(self, point: np.ndarray) -> "MBR":
        """The smallest box containing this box and ``point``."""
        point = np.asarray(point, dtype=np.float64)
        self._check_dim(point)
        return MBR(
            np.minimum(self._lower, point), np.maximum(self._upper, point)
        )

    def minkowski_enlarged(self, radius: float) -> "MBR":
        """The box enlarged by ``radius`` on every side (max-metric sum)."""
        if radius < 0:
            raise GeometryError("enlargement radius must be non-negative")
        return MBR(self._lower - radius, self._upper + radius)

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def mindist(self, point: np.ndarray, metric=None) -> float:
        """Minimum distance from ``point`` to any point of the box."""
        from repro.geometry.metrics import EUCLIDEAN

        metric = metric or EUCLIDEAN
        point = np.asarray(point, dtype=np.float64)
        self._check_dim(point)
        gap = np.maximum(
            np.maximum(self._lower - point, point - self._upper), 0.0
        )
        return metric.length(gap)

    def maxdist(self, point: np.ndarray, metric=None) -> float:
        """Maximum distance from ``point`` to any point of the box."""
        from repro.geometry.metrics import EUCLIDEAN

        metric = metric or EUCLIDEAN
        point = np.asarray(point, dtype=np.float64)
        self._check_dim(point)
        gap = np.maximum(
            np.abs(point - self._lower), np.abs(point - self._upper)
        )
        return metric.length(gap)

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MBR):
            return NotImplemented
        return bool(
            self._lower.shape == other._lower.shape
            and np.array_equal(self._lower, other._lower)
            and np.array_equal(self._upper, other._upper)
        )

    def __hash__(self) -> int:
        return hash((self._lower.tobytes(), self._upper.tobytes()))

    def __repr__(self) -> str:
        return f"MBR(lower={self._lower.tolist()}, upper={self._upper.tolist()})"

    def _check_dim(self, array: np.ndarray) -> None:
        if array.shape[-1] != self.dim:
            raise GeometryError(
                f"dimension mismatch: MBR is {self.dim}-d, "
                f"argument is {array.shape[-1]}-d"
            )


# ----------------------------------------------------------------------
# Vectorized many-box helpers
# ----------------------------------------------------------------------
def mindist_components(
    query: np.ndarray, lowers: np.ndarray, uppers: np.ndarray
) -> np.ndarray:
    """Per-dimension gap between ``query`` and each of ``n`` boxes.

    Parameters
    ----------
    query:
        Query point, shape ``(d,)``.
    lowers, uppers:
        Box bounds, shape ``(n, d)``.

    Returns
    -------
    numpy.ndarray
        Shape ``(n, d)`` of non-negative per-dimension distances from the
        query to the nearest face of each box (zero when the query's
        coordinate lies inside the box's interval).
    """
    query = np.asarray(query, dtype=np.float64)
    return np.maximum(np.maximum(lowers - query, query - uppers), 0.0)


def maxdist_components(
    query: np.ndarray, lowers: np.ndarray, uppers: np.ndarray
) -> np.ndarray:
    """Per-dimension distance from ``query`` to the farthest face of
    each of ``n`` boxes, shape ``(n, d)``."""
    query = np.asarray(query, dtype=np.float64)
    return np.maximum(np.abs(query - lowers), np.abs(query - uppers))


def mindist_to_boxes(
    query: np.ndarray,
    lowers: np.ndarray,
    uppers: np.ndarray,
    metric=None,
) -> np.ndarray:
    """Vectorized mindist from one query point to ``n`` boxes.

    ``lowers``/``uppers`` have shape ``(n, d)``; the result has shape
    ``(n,)``.  This is the hot path of every best-first search.
    """
    from repro.geometry.metrics import EUCLIDEAN

    metric = metric or EUCLIDEAN
    return metric.lengths(mindist_components(query, lowers, uppers))


def maxdist_to_boxes(
    query: np.ndarray,
    lowers: np.ndarray,
    uppers: np.ndarray,
    metric=None,
) -> np.ndarray:
    """Vectorized maxdist from one query point to ``n`` boxes."""
    from repro.geometry.metrics import EUCLIDEAN

    metric = metric or EUCLIDEAN
    return metric.lengths(maxdist_components(query, lowers, uppers))


def _checked_query_matrix_args(
    queries: np.ndarray, lowers: np.ndarray, uppers: np.ndarray
) -> np.ndarray:
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2:
        raise GeometryError("queries must be a (q, d) array")
    if lowers.ndim != 2 or queries.shape[1] != lowers.shape[1]:
        raise GeometryError(
            f"dimension mismatch: queries are {queries.shape[1]}-d, "
            f"boxes are {lowers.shape[-1]}-d"
        )
    if lowers.shape != uppers.shape:
        raise GeometryError("box bound shapes differ")
    return queries


def mindist_matrix(
    queries: np.ndarray,
    lowers: np.ndarray,
    uppers: np.ndarray,
    metric=None,
) -> np.ndarray:
    """Mindist from ``q`` query points to ``n`` boxes in one numpy pass.

    ``queries`` has shape ``(q, d)`` and ``lowers``/``uppers`` shape
    ``(n, d)``; the result has shape ``(q, n)``.  This is the batch
    query engine's replacement for ``q`` separate
    :func:`mindist_to_boxes` passes over the directory.
    """
    from repro.geometry.metrics import EUCLIDEAN

    metric = metric or EUCLIDEAN
    queries = _checked_query_matrix_args(queries, lowers, uppers)
    q = queries[:, None, :]
    gap = np.maximum(
        np.maximum(lowers[None, :, :] - q, q - uppers[None, :, :]), 0.0
    )
    return metric.lengths(gap)


def maxdist_matrix(
    queries: np.ndarray,
    lowers: np.ndarray,
    uppers: np.ndarray,
    metric=None,
) -> np.ndarray:
    """Maxdist from ``q`` query points to ``n`` boxes in one numpy pass.

    Same shapes as :func:`mindist_matrix`.
    """
    from repro.geometry.metrics import EUCLIDEAN

    metric = metric or EUCLIDEAN
    queries = _checked_query_matrix_args(queries, lowers, uppers)
    q = queries[:, None, :]
    gap = np.maximum(
        np.abs(q - lowers[None, :, :]), np.abs(q - uppers[None, :, :])
    )
    return metric.lengths(gap)
