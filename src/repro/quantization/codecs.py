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
    "MAX_EFF_BITS",
]

CODEC_GRID = 0
CODEC_PQ = 1

#: PQ page subheader following the shared quantized-page header:
#: u8 subspace count S, u8 reserved, u16 cluster count K
PQ_SUBHEADER = struct.Struct("<BBH")

#: Lloyd iterations of the deterministic per-subspace k-means.
_LLOYD_ITERS = 6

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


def _kmeans_1sub(sub: np.ndarray, k: int) -> np.ndarray:
    """Deterministic k-means assignment for one subspace.

    Returns the per-point cluster index ``(m,)``.  Initialization takes
    evenly spaced points of the lexicographically sorted subspace
    vectors (a quantile sketch -- stable and data-deterministic); Lloyd
    runs a fixed number of iterations; argmin ties go to the lowest
    cluster index; an emptied cluster keeps its previous centroid.
    """
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
        centroids[nonempty] = (
            sums[nonempty] / counts[nonempty][:, None]
        )
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
    Unused dimensions of a cluster slot (and entirely empty slots) are
    filled from slot 0 of the same subspace -- codes never reference
    them, but the arrays must be fully deterministic for byte-stable
    re-encoding.
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
    codes = np.empty((m, len(spans)), dtype=np.uint32)
    box_lo = np.empty((k, d), dtype=np.float64)
    box_hi = np.empty((k, d), dtype=np.float64)
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


def encode_pq_body(points: np.ndarray, n_sub: int, bits: int) -> bytes:
    """Serialize the PQ body: subheader + codebook boxes + packed codes."""
    codes, lo32, hi32 = fit_pq(points, n_sub, bits)
    k = lo32.shape[0]
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
