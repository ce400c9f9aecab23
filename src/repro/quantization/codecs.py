"""Pluggable second-level page codecs.

The paper's grid quantizer is one way to spend a page's bit budget;
this module generalizes "independent quantization" to independent
*codec* selection per page.  A codec must provide the same three
operations the search path consumes -- ``cell_bounds`` /
``cell_mindist`` / ``cell_maxdist`` over the page's decoded codes --
with **conservative** per-point boxes, so pruning and the degraded
interval contract stay exact regardless of which codec stored the page.

Two codecs exist:

* ``CODEC_GRID`` (0) -- the reference grid quantizer
  (:class:`~repro.quantization.grid.GridQuantizer`).  Its on-disk page
  format is byte-identical to the pre-codec format (the codec tag
  occupies a former header pad byte that was always zero), so legacy
  containers load unchanged.
* ``CODEC_PQ`` (1) -- a per-page k-means codebook.  Each page fits its
  own codebook of ``K = min(2^b, m)`` clusters per subspace over ``S``
  contiguous-dimension subspaces and stores, per cluster, the exact
  float32 bounding box of its assigned points.  Codes select boxes, so
  distance bounds are asymmetric-distance lookups into the gathered
  boxes -- tighter than grid cells whenever the page's points cluster,
  which is exactly when the cost model picks this codec.

Determinism contract: :func:`fit_pq` is a pure function of its inputs
(sorted quantile initialization, fixed Lloyd iterations, lowest-index
tie-breaks, no RNG), so re-encoding a page always reproduces the same
bytes -- required by the container's ``level_crcs`` verification and by
maintenance re-encodes.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.exceptions import QuantizationError, StorageError
from repro.geometry.mbr import maxdist_components, mindist_components
from repro.geometry.metrics import EUCLIDEAN
from repro.quantization.bitpack import pack_codes, packed_size, unpack_codes

__all__ = [
    "CODEC_GRID",
    "CODEC_PQ",
    "PQView",
    "subspace_spans",
    "fit_pq",
    "pq_page_fits",
    "encode_pq_body",
    "decode_pq_body",
    "effective_bits",
    "effective_bits_bound",
    "MAX_EFF_BITS",
]

CODEC_GRID = 0
CODEC_PQ = 1

#: PQ page subheader following the shared quantized-page header:
#: u8 subspace count S, u8 reserved, u16 cluster count K
PQ_SUBHEADER = struct.Struct("<BBH")

#: Lloyd iterations of the deterministic k-means.
_LLOYD_ITERS = 6

#: relative slack on the mean-side lower bound of
#: :func:`effective_bits_bound`, far above the float rounding of the two
#: means it compares (each a sum of at most a page of float64 sides)
_SIDE_BOUND_SLACK = 1e-9

#: ceiling for the codec-aware effective resolution (strictly below the
#: exact 32-bit level so the cost model never treats a PQ page as free)
MAX_EFF_BITS = 31.99


def subspace_spans(dim: int, n_sub: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` dimension spans of the subspaces.

    Sizes differ by at most one; earlier subspaces take the remainder.
    """
    if not 1 <= n_sub <= dim:
        raise QuantizationError("subspace count must be in [1, dim]")
    base, extra = divmod(dim, n_sub)
    spans = []
    start = 0
    for s in range(n_sub):
        size = base + (1 if s < extra else 0)
        spans.append((start, start + size))
        start += size
    return spans


def _lloyd(coords: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Deterministic k-means assignment of every subspace in one pass.

    ``coords`` is ``(w, S, m)`` and ``centroids`` ``(w, S, k)``: the
    subspace coordinates with the span width ``w`` outermost, narrower
    spans zero-padded (a padded coordinate adds an exact ``+0.0`` to
    every squared distance).  ``centroids`` is updated in place; the
    result is the per-subspace cluster index ``(S, m)``.  Lloyd runs a
    fixed number of iterations; argmin ties go to the lowest cluster
    index; an emptied cluster keeps its previous centroid.  One
    ``bincount`` over ``assign + s*k`` accumulates the counts and sums
    of all subspaces, adding each cluster's points in point order.
    """
    _, n_sub, m = coords.shape
    k = centroids.shape[2]
    base = np.arange(n_sub, dtype=np.int64)[:, None] * k
    assign = np.zeros((n_sub, m), dtype=np.int64)
    for _ in range(_LLOYD_ITERS):
        diffs = [
            x[:, :, None] - c[:, None, :] for x, c in zip(coords, centroids)
        ]
        d2 = np.square(diffs[0], out=diffs[0])
        for diff in diffs[1:]:
            d2 += np.square(diff, out=diff)
        assign = np.argmin(d2, axis=2)
        flat = (assign + base).ravel()
        counts = np.bincount(flat, minlength=n_sub * k)
        nonempty = counts > 0
        for x, c in zip(coords, centroids):
            sums = np.bincount(
                flat, weights=x.ravel(), minlength=n_sub * k
            )
            c.reshape(-1)[nonempty] = sums[nonempty] / counts[nonempty]
    return assign


def _sound_f32_bounds(
    lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Round boxes outward to float32 so containment survives the cast.

    Float32-canonical inputs (the normal case) cast exactly and the
    nudge is a no-op; arbitrary float64 inputs get widened by one ulp
    where the cast would have tightened the box.
    """
    lo32 = lo.astype(np.float32)
    hi32 = hi.astype(np.float32)
    lo32 = np.where(
        lo32.astype(np.float64) > lo,
        np.nextafter(lo32, np.float32(-np.inf)),
        lo32,
    )
    hi32 = np.where(
        hi32.astype(np.float64) < hi,
        np.nextafter(hi32, np.float32(np.inf)),
        hi32,
    )
    return lo32.astype("<f4"), hi32.astype("<f4")


def fit_pq(
    points: np.ndarray, n_sub: int, bits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit a per-page PQ codebook; returns ``(codes, box_lo, box_hi)``.

    ``codes`` is ``(m, S)`` uint32 cluster selectors; ``box_lo`` /
    ``box_hi`` are ``(K, d)`` little-endian float32 arrays where the
    columns of subspace ``s`` hold that subspace's cluster boxes.

    Each subspace starts from evenly spaced points of its
    lexicographically sorted vectors (a quantile sketch -- stable and
    data-deterministic); one Lloyd pass then fits all ``S`` subspaces
    together (:func:`_lloyd`).  An empty cluster slot is filled from
    the first non-empty slot of the same subspace -- codes never
    reference it, but the arrays must be fully deterministic for
    byte-stable re-encoding.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise QuantizationError("expected (m, d) points")
    m, d = points.shape
    if m < 1:
        raise QuantizationError("PQ needs at least one point")
    if not 1 <= bits <= 16:
        raise QuantizationError("PQ bits must be in [1, 16]")
    k = min(1 << bits, m)
    spans = subspace_spans(d, n_sub)
    width = max(b - a for a, b in spans)
    coords = np.zeros((width, n_sub, m))
    centroids = np.zeros((width, n_sub, k))
    picks = (np.arange(k, dtype=np.int64) * m) // k
    for s, (a, b) in enumerate(spans):
        sub = points[:, a:b].T
        order = np.lexsort(sub[::-1])
        coords[: b - a, s] = sub
        centroids[: b - a, s] = sub[:, order[picks]]
    assign = _lloyd(coords, centroids)
    flat = (assign + np.arange(n_sub, dtype=np.int64)[:, None] * k).ravel()
    lo = np.full((width, n_sub * k), np.inf)
    hi = np.full((width, n_sub * k), -np.inf)
    for i in range(width):
        np.minimum.at(lo[i], flat, coords[i].ravel())
        np.maximum.at(hi[i], flat, coords[i].ravel())
    lo = lo.reshape(width, n_sub, k)
    hi = hi.reshape(width, n_sub, k)
    filled = np.isfinite(lo[0])
    first = np.argmax(filled, axis=1)
    box_lo = np.empty((k, d))
    box_hi = np.empty((k, d))
    for s, (a, b) in enumerate(spans):
        slot = np.where(filled[s], np.arange(k), first[s])
        box_lo[:, a:b] = lo[: b - a, s, slot].T
        box_hi[:, a:b] = hi[: b - a, s, slot].T
    lo32, hi32 = _sound_f32_bounds(box_lo, box_hi)
    return assign.T.astype(np.uint32), lo32, hi32


def pq_body_size(m: int, dim: int, n_sub: int, bits: int) -> int:
    """Bytes of a PQ page body (everything after the shared header)."""
    k = min(1 << bits, m)
    return (
        PQ_SUBHEADER.size
        + 2 * k * dim * 4
        + packed_size(m * n_sub, bits)
    )


def pq_page_fits(
    m: int, dim: int, n_sub: int, bits: int, block_size: int
) -> bool:
    """Whether an ``m``-point PQ page fits a block (worst-case K)."""
    from repro.storage.serializer import QUANT_PAGE_HEADER

    return (
        QUANT_PAGE_HEADER.size + pq_body_size(m, dim, n_sub, bits)
        <= block_size
    )


def encode_pq_body(fit: tuple, m: int, n_sub: int, bits: int) -> bytes:
    """Serialize a PQ body: subheader + codebook boxes + packed codes.

    ``fit`` is the :func:`fit_pq` result ``(codes, box_lo, box_hi)`` of
    the page's ``m`` points at ``n_sub`` subspaces and ``bits``-bit
    codes.  A fit whose code array is not ``(m, n_sub)``, or whose
    cluster count exceeds ``2^bits``, raises :class:`QuantizationError`:
    it was fitted for another point set or configuration.
    """
    codes, lo32, hi32 = fit
    if codes.shape != (m, n_sub):
        raise QuantizationError(
            f"PQ fit has codes of shape {codes.shape}, page needs "
            f"{(m, n_sub)}"
        )
    k = lo32.shape[0]
    if k > 1 << bits:
        raise QuantizationError(
            f"PQ fit has {k} clusters, more than {bits}-bit codes select"
        )
    return (
        PQ_SUBHEADER.pack(n_sub, 0, k)
        + lo32.tobytes()
        + hi32.tobytes()
        + pack_codes(codes, bits)
    )


def decode_pq_body(
    body: bytes, m: int, bits: int, dim: int
) -> tuple[np.ndarray, "PQView"]:
    """Parse and validate a PQ page body; returns ``(codes, view)``.

    Every structural defect -- impossible subspace/cluster counts,
    truncated codebook or code stream, codes referencing clusters past
    ``K``, inverted boxes -- raises :class:`StorageError` so corruption
    is loud, never a wrong answer.
    """
    if len(body) < PQ_SUBHEADER.size:
        raise StorageError("PQ page body shorter than its subheader")
    n_sub, _reserved, k = PQ_SUBHEADER.unpack_from(body)
    if not 1 <= n_sub <= dim:
        raise StorageError(
            f"PQ subspace count {n_sub} invalid for dimension {dim}"
        )
    if not 1 <= bits <= 16:
        raise StorageError(f"PQ code width {bits} out of range")
    if not 1 <= k <= (1 << bits):
        raise StorageError(
            f"PQ cluster count {k} invalid for {bits}-bit codes"
        )
    cb_bytes = 2 * k * dim * 4
    code_bytes = packed_size(m * n_sub, bits)
    if len(body) < PQ_SUBHEADER.size + cb_bytes + code_bytes:
        raise StorageError("PQ page body truncated")
    cb = np.frombuffer(
        body, dtype="<f4", count=2 * k * dim, offset=PQ_SUBHEADER.size
    ).astype(np.float64)
    box_lo = cb[: k * dim].reshape(k, dim)
    box_hi = cb[k * dim :].reshape(k, dim)
    if not np.all(np.isfinite(box_lo)) or not np.all(np.isfinite(box_hi)):
        raise StorageError("PQ codebook contains non-finite bounds")
    if np.any(box_lo > box_hi):
        raise StorageError("PQ codebook box inverted (lower > upper)")
    codes = unpack_codes(
        body[PQ_SUBHEADER.size + cb_bytes :], bits, m, n_sub
    )
    if codes.size and int(codes.max()) >= k:
        raise StorageError(
            f"PQ code references cluster >= K={k}"
        )
    return codes, PQView(box_lo, box_hi, n_sub, dim)


class PQView:
    """The search-facing codec view of one decoded PQ page.

    Mirrors the :class:`~repro.quantization.grid.GridQuantizer` bound
    interface (``cell_bounds`` / ``cell_mindist`` / ``cell_maxdist``
    over a codes array), backed by the page's cluster boxes instead of
    a uniform grid.
    """

    def __init__(
        self,
        box_lo: np.ndarray,
        box_hi: np.ndarray,
        n_sub: int,
        dim: int,
    ):
        self.box_lo = box_lo
        self.box_hi = box_hi
        self.n_sub = int(n_sub)
        self.dim = int(dim)
        self.spans = subspace_spans(dim, n_sub)
        self._span_sizes = [b - a for a, b in self.spans]
        self._dim_index = np.arange(self.dim)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the codebook (decoded-cache accounting)."""
        return self.box_lo.nbytes + self.box_hi.nbytes

    def cell_bounds(
        self, codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-point conservative boxes gathered from the codebook."""
        codes = np.asarray(codes)
        m = codes.shape[0]
        lowers = np.empty((m, self.dim))
        uppers = np.empty((m, self.dim))
        for s, (a, b) in enumerate(self.spans):
            sel = codes[:, s].astype(np.int64)
            lowers[:, a:b] = self.box_lo[:, a:b][sel]
            uppers[:, a:b] = self.box_hi[:, a:b][sel]
        return lowers, uppers

    def _gather(self, table: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Per-point ``(m, d)`` rows of a per-cluster ``(K, d)`` table:
        entry ``[i, j]`` is ``table[codes[i, subspace(j)], j]``.

        Subspaces are contiguous, so repeating each code column over its
        span gives the per-dimension cluster selectors in C order; the
        gathered rows stay C-contiguous, which keeps the metric's
        row reduction bit-equal to the ``cell_bounds`` path.
        """
        rows = np.repeat(np.asarray(codes), self._span_sizes, axis=1)
        flat = np.multiply(rows, self.dim, dtype=np.intp)
        flat += self._dim_index
        return np.take(table, flat)

    def cell_mindist(
        self, query: np.ndarray, codes: np.ndarray, metric=None
    ) -> np.ndarray:
        """Asymmetric-distance lower bounds via a per-query gap table.

        The per-dimension gaps are computed once per *cluster* (``K x
        d``) by :func:`~repro.geometry.mbr.mindist_components`, then
        gathered per point, so the result is bit-equal to
        ``mindist_to_boxes(query, *self.cell_bounds(codes), metric)``.
        """
        metric = metric or EUCLIDEAN
        gaps = mindist_components(query, self.box_lo, self.box_hi)
        return metric.lengths(self._gather(gaps, codes))

    def cell_maxdist(
        self, query: np.ndarray, codes: np.ndarray, metric=None
    ) -> np.ndarray:
        """Upper bounds via a per-query table; bit-equal to
        ``maxdist_to_boxes(query, *self.cell_bounds(codes), metric)``."""
        metric = metric or EUCLIDEAN
        gaps = maxdist_components(query, self.box_lo, self.box_hi)
        return metric.lengths(self._gather(gaps, codes))

    def __repr__(self) -> str:
        return (
            f"PQView(K={self.box_lo.shape[0]}, S={self.n_sub}, "
            f"dim={self.dim})"
        )


def effective_bits(
    extents: np.ndarray,
    codes: np.ndarray,
    view: PQView,
) -> float:
    """Grid-equivalent resolution of a fitted PQ page.

    The cost model's refinement probability (eq. 15) is parameterized
    by the cell volume ``V_mbr / 2^(d*g)``; the PQ equivalent ``g`` per
    dimension is ``log2(extent_j / mean_box_side_j)``, and the
    geometric-mean aggregation (an arithmetic mean in log space) makes
    the implied cell volume match the mean box volume exactly.
    Degenerate MBR sides are excluded; the result is clamped to
    ``[1, MAX_EFF_BITS]`` so it stays a valid model input.
    """
    extents = np.asarray(extents, dtype=np.float64)
    lowers, uppers = view.cell_bounds(codes)
    mean_sides = (uppers - lowers).mean(axis=0)
    live = extents > 0.0
    if not np.any(live):
        return MAX_EFF_BITS
    sides = mean_sides[live]
    ext = extents[live]
    per_dim = np.where(
        sides > 0.0,
        np.log2(ext / np.maximum(sides, 1e-300)),
        MAX_EFF_BITS,
    )
    eff = float(per_dim.mean())
    return float(min(max(eff, 1.0), MAX_EFF_BITS))


def effective_bits_bound(
    points: np.ndarray, extents: np.ndarray, k: int
) -> float:
    """Upper bound on :func:`effective_bits` of any fit of ``points``.

    Holds for every :func:`fit_pq` configuration with at most ``k``
    clusters per subspace, without fitting one.  In any partition of
    the ``m`` points into at most ``k`` groups, a point in a group of
    two or more has a box side in dimension ``j`` of at least its
    nearest-neighbour gap there (its group's range covers the gap to
    some other member), and at most ``k`` points are singletons.  So
    the mean side is at least ``lb_j``: the sum of all gaps but the
    ``k`` largest, over ``m``.  This holds for multi-dimensional
    subspaces too, since a box side is the range of the group's members
    in that one dimension, and the float32 boxes only widen it.
    :func:`effective_bits` falls as sides grow, so the same formula
    over ``lb_j`` bounds it from above.  ``lb_j`` carries the relative
    slack ``_SIDE_BOUND_SLACK`` so that float rounding in either mean
    cannot cross it.  A live dimension with ``lb_j = 0`` bounds nothing
    (a tiny non-zero side is unbounded in log space): the result is
    then ``MAX_EFF_BITS``.
    """
    extents = np.asarray(extents, dtype=np.float64)
    live = extents > 0.0
    if not np.any(live):
        return MAX_EFF_BITS
    x = np.sort(np.asarray(points, dtype=np.float64)[:, live], axis=0)
    m = x.shape[0]
    if k >= m:
        return MAX_EFF_BITS
    gaps = np.diff(x, axis=0)
    nearest = np.empty_like(x)
    nearest[0] = gaps[0]
    nearest[-1] = gaps[-1]
    np.minimum(gaps[:-1], gaps[1:], out=nearest[1:-1])
    nearest.sort(axis=0)
    lb = nearest[: m - k].sum(axis=0) / m * (1.0 - _SIDE_BOUND_SLACK)
    if not np.all(lb > 0.0):
        return MAX_EFF_BITS
    eff = float(np.log2(extents[live] / lb).mean())
    return float(min(max(eff, 1.0), MAX_EFF_BITS))
