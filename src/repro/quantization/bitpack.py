"""Dense packing of g-bit unsigned integers into a byte stream.

Cell codes on a quantized data page occupy exactly ``g`` bits each,
concatenated in row-major point order with no per-point padding -- this
is what makes the byte budget of the fixed block size translate directly
into the paper's capacity/accuracy trade-off.

The implementation expands each code into its ``g`` constituent bits with
numpy (no Python-level bit loops), so packing a full page of several
thousand codes is a handful of vectorized operations.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import QuantizationError

__all__ = [
    "pack_codes",
    "unpack_codes",
    "unpack_codes_bulk",
    "packed_size",
]


def packed_size(n_codes: int, bits: int) -> int:
    """Bytes needed to store ``n_codes`` codes of ``bits`` bits each."""
    _check_bits(bits)
    if n_codes < 0:
        raise QuantizationError("code count must be non-negative")
    return (n_codes * bits + 7) // 8


def pack_codes(codes: np.ndarray, bits: int) -> bytes:
    """Pack an integer array into a dense little-bit-endian bit stream.

    Parameters
    ----------
    codes:
        Any-shape array of unsigned integers, each in ``[0, 2**bits)``.
        The array is flattened in C order before packing.
    bits:
        Width of each code in bits, ``1 <= bits <= 32``.
    """
    _check_bits(bits)
    flat = np.ascontiguousarray(codes, dtype=np.uint32).ravel()
    if flat.size == 0:
        return b""
    limit = np.uint64(1) << np.uint64(bits)
    if np.any(flat.astype(np.uint64) >= limit):
        raise QuantizationError(f"code out of range for {bits} bits")
    # Expand each code into its `bits` bits, least-significant first.
    shifts = np.arange(bits, dtype=np.uint32)
    bit_matrix = (flat[:, None] >> shifts[None, :]) & np.uint32(1)
    bit_stream = bit_matrix.astype(np.uint8).ravel()
    return np.packbits(bit_stream, bitorder="little").tobytes()


def unpack_codes(
    payload: bytes, bits: int, n_points: int, dim: int
) -> np.ndarray:
    """Inverse of :func:`pack_codes` for a ``(n_points, dim)`` code array."""
    _check_bits(bits)
    if n_points < 0 or dim <= 0:
        raise QuantizationError("invalid shape for unpacking")
    n_codes = n_points * dim
    if n_codes == 0:
        return np.zeros((0, dim), dtype=np.uint32)
    total_bits = n_codes * bits
    need_bytes = (total_bits + 7) // 8
    if len(payload) < need_bytes:
        raise QuantizationError(
            f"payload of {len(payload)} bytes too short for "
            f"{n_codes} codes of {bits} bits"
        )
    raw = np.frombuffer(payload, dtype=np.uint8, count=need_bytes)
    bit_stream = np.unpackbits(raw, bitorder="little")[:total_bits]
    # Column b of the (n_codes, bits) matrix is bit-plane b of every
    # code; OR-ing the shifted planes avoids the wide shift-and-sum.
    planes = bit_stream.reshape(n_codes, bits)
    codes = planes[:, 0].astype(np.uint32)
    for b in range(1, bits):
        codes |= planes[:, b].astype(np.uint32) << np.uint32(b)
    return codes.reshape(n_points, dim)


def unpack_codes_bulk(
    payloads, bits: int, n_points, dim: int
) -> list[np.ndarray]:
    """Unpack many same-width pages: the batch engine's decode entry point.

    Equal to ``[unpack_codes(p, bits, m, dim) for p, m in zip(payloads,
    n_points)]``, after checking that the inputs align.  Per-page
    bit-plane decoding is faster than one pass over the concatenated
    bit streams of all pages, which would first copy them all.

    Parameters
    ----------
    payloads:
        Per-page packed byte strings (possibly of different lengths).
    bits:
        Shared code width in bits, ``1 <= bits <= 32``.
    n_points:
        Per-page point counts, aligned with ``payloads``.
    dim:
        Codes per point.

    Returns
    -------
    list of numpy.ndarray
        One ``(m_i, dim)`` uint32 array per input page.
    """
    _check_bits(bits)
    if dim <= 0:
        raise QuantizationError("invalid shape for unpacking")
    payloads = list(payloads)
    counts = [int(m) for m in n_points]
    if len(payloads) != len(counts):
        raise QuantizationError("payloads and n_points must align")
    return [unpack_codes(p, bits, m, dim) for p, m in zip(payloads, counts)]


def _check_bits(bits: int) -> None:
    if not 1 <= bits <= 32:
        raise QuantizationError("bits must be in [1, 32]")
