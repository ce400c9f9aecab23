"""Distance metrics used by the indexes and the cost model.

The paper derives its formulas for two metrics: the Euclidean metric
(L2) and the maximum metric (L-infinity).  Both are implemented here
behind a small :class:`Metric` interface, along with general ``L_p``
metrics.  Each metric knows how to

* measure the length of one difference vector (:meth:`Metric.length`),
* measure many vectors at once (:meth:`Metric.lengths`),
* split a length into per-dimension terms folded by one ufunc
  (:meth:`Metric.terms`, :attr:`Metric.fold`, :meth:`Metric.power`), so a
  search can abandon a vector after a prefix of its dimensions, and
* report the volume of its unit ball, which the cost model needs to turn
  point densities into nearest-neighbor radii (eqs. 7-9 of the paper).
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import GeometryError

__all__ = [
    "Metric",
    "EuclideanMetric",
    "MaximumMetric",
    "LpMetric",
    "EUCLIDEAN",
    "MAXIMUM",
    "get_metric",
]


class Metric:
    """Abstract distance metric over ``R^d``.

    Subclasses implement :meth:`lengths` and its decomposition
    (:attr:`fold`, :meth:`terms`, :meth:`power`); the remaining
    convenience methods are derived from :meth:`lengths`.

    The decomposition says a length is a monotone function of a fold
    over per-dimension terms: ``power(lengths(v))`` equals
    ``fold.reduce(terms(v), axis=-1)`` up to rounding.  Every term is
    non-negative and folding in more terms never lowers the result, so a
    fold over *some* dimensions is a lower bound of the power of the
    whole length -- what early-abandoning searches compare against
    ``power(bound)``.
    """

    #: short, stable identifier (used in benchmark reports)
    name: str = "abstract"

    #: ufunc folding per-dimension terms (``np.add`` or ``np.maximum``)
    fold: np.ufunc

    def lengths(self, vectors: np.ndarray) -> np.ndarray:
        """Lengths of ``vectors`` (shape ``(..., d)``) -> shape ``(...,)``."""
        raise NotImplementedError

    def terms(self, vectors: np.ndarray, out=None) -> np.ndarray:
        """Per-dimension terms of ``vectors``, elementwise (``out`` may
        be ``vectors`` itself)."""
        raise NotImplementedError

    def power(self, length: float) -> float:
        """``length`` in term space: the fold a vector of that length
        has over all of its dimensions."""
        raise NotImplementedError

    def length(self, vector: np.ndarray) -> float:
        """Length of a single difference vector."""
        return float(self.lengths(np.asarray(vector, dtype=np.float64)))

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        """Distance between two points."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        return self.length(a - b)

    def distances(self, query: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Distances from ``query`` (shape ``(d,)``) to rows of ``points``."""
        query = np.asarray(query, dtype=np.float64)
        points = np.asarray(points, dtype=np.float64)
        return self.lengths(points - query)

    def unit_ball_volume(self, dim: int) -> float:
        """Volume of the metric's unit ball in ``dim`` dimensions."""
        raise NotImplementedError

    def ball_volume(self, radius: float, dim: int) -> float:
        """Volume of the ball of the given radius."""
        if radius < 0:
            raise GeometryError("radius must be non-negative")
        return self.unit_ball_volume(dim) * radius**dim

    def ball_radius(self, volume: float, dim: int) -> float:
        """Radius of the ball with the given volume (inverse of above)."""
        if volume < 0:
            raise GeometryError("volume must be non-negative")
        unit = self.unit_ball_volume(dim)
        return (volume / unit) ** (1.0 / dim)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class EuclideanMetric(Metric):
    """The ordinary L2 metric."""

    name = "euclidean"
    fold = np.add

    def lengths(self, vectors: np.ndarray) -> np.ndarray:
        return np.sqrt(np.sum(np.square(vectors), axis=-1))

    def terms(self, vectors: np.ndarray, out=None) -> np.ndarray:
        return np.square(vectors, out=out)

    def power(self, length: float) -> float:
        return length * length

    def unit_ball_volume(self, dim: int) -> float:
        # V_sphere(r) = sqrt(pi)^d / Gamma(d/2 + 1) * r^d   (paper eq. 8)
        if dim <= 0:
            raise GeometryError("dimension must be positive")
        return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


class MaximumMetric(Metric):
    """The maximum (Chebyshev / L-infinity) metric."""

    name = "maximum"
    fold = np.maximum

    def lengths(self, vectors: np.ndarray) -> np.ndarray:
        return np.max(np.abs(vectors), axis=-1)

    def terms(self, vectors: np.ndarray, out=None) -> np.ndarray:
        return np.abs(vectors, out=out)

    def power(self, length: float) -> float:
        return length

    def unit_ball_volume(self, dim: int) -> float:
        # V_cube(r) = (2r)^d   (paper eq. 9)
        if dim <= 0:
            raise GeometryError("dimension must be positive")
        return 2.0**dim


class LpMetric(Metric):
    """A general Minkowski ``L_p`` metric for finite ``p >= 1``."""

    def __init__(self, p: float):
        if p < 1:
            raise GeometryError("L_p metrics require p >= 1")
        self.p = float(p)
        self.name = f"l{p:g}"

    fold = np.add

    def lengths(self, vectors: np.ndarray) -> np.ndarray:
        return np.sum(np.abs(vectors) ** self.p, axis=-1) ** (1.0 / self.p)

    def terms(self, vectors: np.ndarray, out=None) -> np.ndarray:
        return np.power(np.abs(vectors, out=out), self.p, out=out)

    def power(self, length: float) -> float:
        return length**self.p

    def unit_ball_volume(self, dim: int) -> float:
        # Volume of the unit L_p ball: (2 Gamma(1/p + 1))^d / Gamma(d/p + 1)
        if dim <= 0:
            raise GeometryError("dimension must be positive")
        return (2.0 * math.gamma(1.0 / self.p + 1.0)) ** dim / math.gamma(
            dim / self.p + 1.0
        )

    def __repr__(self) -> str:
        return f"LpMetric(p={self.p})"


#: Shared singletons -- metrics are stateless, so reuse them.
EUCLIDEAN = EuclideanMetric()
MAXIMUM = MaximumMetric()

_REGISTRY = {
    "euclidean": EUCLIDEAN,
    "l2": EUCLIDEAN,
    "maximum": MAXIMUM,
    "chebyshev": MAXIMUM,
    "linf": MAXIMUM,
}


def get_metric(name) -> Metric:
    """Resolve a metric from a name or pass a :class:`Metric` through.

    Accepted names: ``euclidean``/``l2``, ``maximum``/``chebyshev``/
    ``linf``, or ``l<p>`` for a finite p (e.g. ``l1``, ``l3``).
    """
    if isinstance(name, Metric):
        return name
    key = str(name).lower()
    if key in _REGISTRY:
        return _REGISTRY[key]
    if key.startswith("l"):
        try:
            return LpMetric(float(key[1:]))
        except ValueError:
            pass
    raise GeometryError(f"unknown metric: {name!r}")
