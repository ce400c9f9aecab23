"""Byte-level (de)serialization of the page types used by the indexes.

Pages are real bytes: capacities fall out of byte budgets exactly as the
paper's fixed block size requires.  Three page kinds exist:

* **Directory pages** -- runs of directory entries, each holding an
  exact (float32) MBR plus child/page references (paper eq. 22 sizes the
  first-level scan by the entry size).
* **Quantized data pages** -- a small header (point count, bits per
  dimension ``g``) followed by the bit-packed cell codes.  For ``g = 32``
  the page stores exact float32 coordinates *and* the point ids, because
  the paper omits the (redundant) third-level record for exact pages.
  For ``g < 32`` ids live in the third-level record only.
* **Exact data records** -- per-point interleaved float32 coordinates
  plus a uint32 point id, so refining one point touches at most two
  consecutive blocks.

All encodings are little-endian and dimension-stable: the dimension is
not stored per page (it is a property of the index).
"""

from __future__ import annotations

import struct

import numpy as np

from repro.exceptions import PageOverflowError, StorageError
from repro.quantization.bitpack import pack_codes, unpack_codes

__all__ = [
    "QUANT_PAGE_HEADER",
    "DIR_ENTRY_FIXED_BYTES",
    "directory_entry_size",
    "exact_point_record_size",
    "encode_quantized_page",
    "encode_pq_page",
    "decode_quantized_page",
    "decoded_page_nbytes",
    "encode_exact_record",
    "decode_exact_record",
    "quantized_page_capacity",
    "exact_points_per_block",
]

#: header of a quantized data page: u32 point count, u8 bits, u8 codec
#: id, 2 pad bytes.  The codec byte occupies a former pad byte that was
#: always written as zero, so grid pages (codec 0) are byte-identical to
#: the pre-codec format and legacy containers decode unchanged.
QUANT_PAGE_HEADER = struct.Struct("<IBBxx")

#: per-directory-entry overhead besides the MBR floats:
#: u32 quantized page id, u32 exact first block, u32 exact block count,
#: u32 point count
DIR_ENTRY_FIXED_BYTES = 16


def directory_entry_size(dim: int) -> int:
    """Bytes of one first-level directory entry (float32 MBR + refs)."""
    if dim <= 0:
        raise StorageError("dimension must be positive")
    return 2 * 4 * dim + DIR_ENTRY_FIXED_BYTES


def exact_point_record_size(dim: int) -> int:
    """Bytes of one exact point record: float32 coords + uint32 id."""
    if dim <= 0:
        raise StorageError("dimension must be positive")
    return 4 * dim + 4


def quantized_page_capacity(block_size: int, dim: int, bits: int) -> int:
    """Max number of points a quantized page can hold at ``bits`` b/dim.

    For ``bits < 32`` the budget is pure bit-packed codes; for
    ``bits = 32`` each point costs ``4*dim + 4`` bytes because the exact
    page also stores the point id (there is no third-level record to
    hold it).
    """
    if not 1 <= bits <= 32:
        raise StorageError("bits per dimension must be in [1, 32]")
    if dim <= 0:
        raise StorageError("dimension must be positive")
    payload_bytes = block_size - QUANT_PAGE_HEADER.size
    if payload_bytes <= 0:
        return 0
    if bits == 32:
        return payload_bytes // exact_point_record_size(dim)
    return (payload_bytes * 8) // (dim * bits)


def exact_points_per_block(block_size: int, dim: int) -> int:
    """How many exact point records fit one block (for sizing only)."""
    return block_size // exact_point_record_size(dim)


def encode_quantized_page(
    codes_or_points: np.ndarray,
    bits: int,
    block_size: int,
    ids: np.ndarray | None = None,
) -> bytes:
    """Serialize a quantized data page.

    Parameters
    ----------
    codes_or_points:
        For ``bits < 32``: integer cell codes, shape ``(m, d)``, each in
        ``[0, 2**bits)``.  For ``bits = 32``: float32-representable
        coordinates, shape ``(m, d)``.
    bits:
        Bits per dimension ``g``.
    block_size:
        Fixed page size to validate against.
    ids:
        Point ids, required iff ``bits = 32``.
    """
    arr = np.asarray(codes_or_points)
    if arr.ndim != 2:
        raise StorageError("page contents must be a (m, d) array")
    m, d = arr.shape
    if quantized_page_capacity(block_size, d, bits) < m:
        raise PageOverflowError(
            f"{m} points at {bits} bits/dim exceed a {block_size}-byte page"
        )
    header = QUANT_PAGE_HEADER.pack(m, bits, 0)
    if bits == 32:
        if ids is None:
            raise StorageError("32-bit pages must store point ids")
        ids = np.asarray(ids, dtype="<u4")
        if ids.shape != (m,):
            raise StorageError("ids must be a (m,) array")
        body = arr.astype("<f4").tobytes() + ids.tobytes()
    else:
        if ids is not None:
            raise StorageError("only 32-bit pages store ids inline")
        body = pack_codes(arr.astype(np.uint32), bits)
    payload = header + body
    if len(payload) > block_size:
        raise PageOverflowError(
            f"serialized page is {len(payload)} bytes > {block_size}"
        )
    return payload


def encode_pq_page(
    fit: tuple, m: int, bits: int, n_sub: int, block_size: int
) -> bytes:
    """Serialize a PQ-codec data page (codec id 1).

    ``fit`` is the page's :func:`repro.quantization.codecs.fit_pq`
    result ``(codes, box_lo, box_hi)`` for its ``m`` points; a fit of
    another point count or subspace count raises.  ``fit_pq`` is
    deterministic, so re-encoding the same points always reproduces
    the same bytes.
    """
    from repro.quantization.codecs import CODEC_PQ, encode_pq_body

    if not 1 <= bits <= 16:
        raise StorageError("PQ bits per code must be in [1, 16]")
    payload = QUANT_PAGE_HEADER.pack(m, bits, CODEC_PQ) + encode_pq_body(
        fit, m, n_sub, bits
    )
    if len(payload) > block_size:
        raise PageOverflowError(
            f"serialized PQ page is {len(payload)} bytes > {block_size}"
        )
    return payload


def decode_quantized_page(
    payload: bytes, dim: int
) -> tuple[np.ndarray, int, np.ndarray | None, object | None]:
    """Inverse of :func:`encode_quantized_page` / :func:`encode_pq_page`.

    Returns ``(contents, bits, ids, aux)``: for grid pages with
    ``bits < 32`` the contents are uint32 cell codes and ``ids`` /
    ``aux`` are ``None``; for ``bits = 32`` the contents are float64
    coordinates and ``ids`` the stored point ids; for PQ pages the
    contents are the ``(m, S)`` cluster selectors and ``aux`` is the
    page's :class:`~repro.quantization.codecs.PQView`.
    """
    if len(payload) < QUANT_PAGE_HEADER.size:
        raise StorageError("payload shorter than the page header")
    m, bits, codec = QUANT_PAGE_HEADER.unpack_from(payload)
    body = payload[QUANT_PAGE_HEADER.size :]
    from repro.quantization.codecs import CODEC_GRID, CODEC_PQ

    if codec == CODEC_PQ:
        from repro.quantization.codecs import decode_pq_body

        codes, view = decode_pq_body(body, m, bits, dim)
        return codes, bits, None, view
    if codec != CODEC_GRID:
        raise StorageError(f"unknown page codec id {codec}")
    if bits == 32:
        coord_bytes = m * dim * 4
        need = coord_bytes + m * 4
        if len(body) < need:
            raise StorageError("32-bit page payload truncated")
        coords = np.frombuffer(body, dtype="<f4", count=m * dim)
        ids = np.frombuffer(
            body[coord_bytes:], dtype="<u4", count=m
        ).astype(np.int64)
        return coords.reshape(m, dim).astype(np.float64), bits, ids, None
    codes = unpack_codes(body, bits, m, dim)
    return codes, bits, None, None


def decoded_page_nbytes(payload: bytes, dim: int) -> int:
    """Bytes of the arrays :func:`decode_quantized_page` makes of
    ``payload`` -- uint32 codes, float64 coordinates and int64 ids, or a
    PQ page's selectors and float64 codebook -- read from its headers
    without decoding it."""
    m, bits, codec = QUANT_PAGE_HEADER.unpack_from(payload)
    from repro.quantization.codecs import CODEC_PQ, PQ_SUBHEADER

    if codec == CODEC_PQ:
        n_sub, _reserved, k = PQ_SUBHEADER.unpack_from(
            payload, QUANT_PAGE_HEADER.size
        )
        return 4 * m * n_sub + 2 * 8 * k * dim
    if bits == 32:
        return 8 * m * dim + 8 * m
    return 4 * m * dim


def encode_exact_record(points: np.ndarray, ids: np.ndarray) -> bytes:
    """Serialize exact data as per-point interleaved (coords, id) rows."""
    points = np.asarray(points, dtype=np.float64)
    ids = np.asarray(ids)
    if points.ndim != 2 or ids.ndim != 1 or points.shape[0] != ids.size:
        raise StorageError("need (m, d) points and matching (m,) ids")
    m, d = points.shape
    rows = np.empty((m, exact_point_record_size(d)), dtype=np.uint8)
    rows[:, : 4 * d] = (
        points.astype("<f4").view(np.uint8).reshape(m, 4 * d)
    )
    rows[:, 4 * d :] = (
        ids.astype("<u4").view(np.uint8).reshape(m, 4)
    )
    return rows.tobytes()


def decode_exact_record(
    payload: bytes, m: int, dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_exact_record` for ``m`` points."""
    record = exact_point_record_size(dim)
    need = m * record
    if len(payload) < need:
        raise StorageError("exact record payload shorter than expected")
    rows = np.frombuffer(payload, dtype=np.uint8, count=need).reshape(
        m, record
    )
    coords = (
        np.ascontiguousarray(rows[:, : 4 * dim])
        .view("<f4")
        .reshape(m, dim)
        .astype(np.float64)
    )
    ids = (
        np.ascontiguousarray(rows[:, 4 * dim :])
        .view("<u4")
        .reshape(m)
        .astype(np.int64)
    )
    return coords, ids


def encode_directory(
    lowers: np.ndarray,
    uppers: np.ndarray,
    quant_pages: np.ndarray,
    exact_firsts: np.ndarray,
    exact_counts: np.ndarray,
    point_counts: np.ndarray,
    block_size: int,
) -> list[bytes]:
    """Serialize the flat first-level directory into block payloads.

    Entries are packed densely; an entry never straddles a block
    boundary (the per-block entry count is fixed), matching how eq. 22
    sizes the first-level scan.
    """
    lowers = np.asarray(lowers, dtype=np.float64)
    uppers = np.asarray(uppers, dtype=np.float64)
    if lowers.ndim != 2 or lowers.shape != uppers.shape:
        raise StorageError("directory bounds must be matching (n, d)")
    n, d = lowers.shape
    entry = directory_entry_size(d)
    per_block = block_size // entry
    if per_block < 1:
        raise StorageError("directory entry larger than a block")
    rows = np.empty((n, entry), dtype=np.uint8)
    rows[:, : 4 * d] = lowers.astype("<f4").view(np.uint8).reshape(n, 4 * d)
    rows[:, 4 * d : 8 * d] = (
        uppers.astype("<f4").view(np.uint8).reshape(n, 4 * d)
    )
    refs = np.column_stack(
        [
            np.asarray(quant_pages, dtype="<u4"),
            np.asarray(exact_firsts, dtype="<u4"),
            np.asarray(exact_counts, dtype="<u4"),
            np.asarray(point_counts, dtype="<u4"),
        ]
    ).astype("<u4")
    rows[:, 8 * d :] = refs.view(np.uint8).reshape(n, 16)
    blocks = []
    for start in range(0, n, per_block):
        blocks.append(rows[start : start + per_block].tobytes())
    return blocks


def decode_directory(
    blocks: list[bytes], dim: int, n_entries: int
) -> dict[str, np.ndarray]:
    """Inverse of :func:`encode_directory`.

    Returns arrays ``lowers``, ``uppers`` (float64, shape ``(n, d)``)
    and ``quant_pages``, ``exact_firsts``, ``exact_counts``,
    ``point_counts`` (int64, shape ``(n,)``).
    """
    entry = directory_entry_size(dim)
    rows_list = []
    remaining = n_entries
    for payload in blocks:
        take = min(remaining, len(payload) // entry)
        chunk = np.frombuffer(
            payload, dtype=np.uint8, count=take * entry
        ).reshape(take, entry)
        rows_list.append(chunk)
        remaining -= take
        if remaining == 0:
            break
    if remaining != 0:
        raise StorageError("directory blocks truncated")
    rows = np.concatenate(rows_list, axis=0)
    d = dim

    def _f4(cols: np.ndarray) -> np.ndarray:
        return (
            np.ascontiguousarray(cols).view("<f4").astype(np.float64)
        ).reshape(n_entries, d)

    def _u4(cols: np.ndarray) -> np.ndarray:
        return (
            np.ascontiguousarray(cols).view("<u4").astype(np.int64)
        ).reshape(n_entries)

    return {
        "lowers": _f4(rows[:, : 4 * d]),
        "uppers": _f4(rows[:, 4 * d : 8 * d]),
        "quant_pages": _u4(rows[:, 8 * d : 8 * d + 4]),
        "exact_firsts": _u4(rows[:, 8 * d + 4 : 8 * d + 8]),
        "exact_counts": _u4(rows[:, 8 * d + 8 : 8 * d + 12]),
        "point_counts": _u4(rows[:, 8 * d + 12 : 8 * d + 16]),
    }


__all__.extend(["encode_directory", "decode_directory"])
