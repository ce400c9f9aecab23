"""Tests for dense g-bit code packing."""

import numpy as np
import pytest

from repro.exceptions import QuantizationError
from repro.quantization.bitpack import (
    pack_codes,
    packed_size,
    unpack_codes,
    unpack_codes_bulk,
)


class TestPackedSize:
    def test_exact_byte_boundary(self):
        assert packed_size(8, 1) == 1
        assert packed_size(2, 4) == 1

    def test_rounds_up(self):
        assert packed_size(3, 3) == 2  # 9 bits -> 2 bytes

    def test_zero_codes(self):
        assert packed_size(0, 7) == 0

    def test_invalid(self):
        with pytest.raises(QuantizationError):
            packed_size(4, 0)
        with pytest.raises(QuantizationError):
            packed_size(-1, 4)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "bits", [1, 2, 3, 4, 5, 7, 8, 11, 16, 23, 31, 32]
    )
    def test_random_roundtrip(self, bits, rng):
        m, d = 50, 7
        codes = rng.integers(0, 2**bits, size=(m, d), dtype=np.uint64)
        codes = codes.astype(np.uint32)
        payload = pack_codes(codes, bits)
        assert len(payload) == packed_size(m * d, bits)
        assert np.array_equal(unpack_codes(payload, bits, m, d), codes)

    def test_extreme_values(self):
        for bits in (1, 9, 31, 32):
            codes = np.array(
                [[0, 2**bits - 1], [2**bits - 1, 0]], dtype=np.uint32
            )
            payload = pack_codes(codes, bits)
            assert np.array_equal(unpack_codes(payload, bits, 2, 2), codes)

    def test_empty(self):
        assert pack_codes(np.zeros((0, 3), dtype=np.uint32), 5) == b""
        out = unpack_codes(b"", 5, 0, 3)
        assert out.shape == (0, 3)

    def test_density(self):
        """Packing is dense: 1000 3-bit codes -> 375 bytes exactly."""
        codes = np.zeros(1000, dtype=np.uint32)
        assert len(pack_codes(codes, 3)) == 375


class TestBulkUnpack:
    def test_matches_scalar_unpack(self, rng):
        sizes = [0, 5, 31, 12]
        pages = [
            rng.integers(0, 2**11, size=(m, 6), dtype=np.uint64).astype(
                np.uint32
            )
            for m in sizes
        ]
        payloads = [pack_codes(c, 11) for c in pages]
        for codes, out in zip(
            pages, unpack_codes_bulk(payloads, 11, sizes, 6)
        ):
            assert np.array_equal(out, codes)

    def test_empty_batch(self):
        assert unpack_codes_bulk([], 8, [], 3) == []

    def test_all_empty_pages(self):
        out = unpack_codes_bulk([b"", b""], 8, [0, 0], 3)
        assert len(out) == 2
        assert all(o.shape == (0, 3) for o in out)

    def test_truncated_member_rejected(self):
        good = pack_codes(np.zeros((4, 4), dtype=np.uint32), 8)
        with pytest.raises(QuantizationError):
            unpack_codes_bulk([good, good[:-1]], 8, [4, 4], 4)

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(QuantizationError):
            unpack_codes_bulk([b""], 8, [0, 0], 3)
        with pytest.raises(QuantizationError):
            unpack_codes_bulk([b""], 8, [-1], 3)
        with pytest.raises(QuantizationError):
            unpack_codes_bulk([b""], 0, [0], 3)


class TestValidation:
    def test_out_of_range_code(self):
        codes = np.array([[4]], dtype=np.uint32)
        with pytest.raises(QuantizationError):
            pack_codes(codes, 2)

    def test_bits_out_of_range(self):
        codes = np.zeros((1, 1), dtype=np.uint32)
        with pytest.raises(QuantizationError):
            pack_codes(codes, 0)
        with pytest.raises(QuantizationError):
            pack_codes(codes, 33)

    def test_short_payload_rejected(self):
        payload = pack_codes(np.zeros((4, 4), dtype=np.uint32), 8)
        with pytest.raises(QuantizationError):
            unpack_codes(payload[:-1], 8, 4, 4)

    def test_bad_shape_rejected(self):
        with pytest.raises(QuantizationError):
            unpack_codes(b"\x00" * 16, 8, 4, 0)


def _shift_and_sum_unpack(payload, bits, n_points, dim):
    """Reference copy of the original unpacker: a uint64 shift-and-sum
    over the (n_codes, bits) bit matrix."""
    if not 1 <= bits <= 32:
        raise QuantizationError("bits must be in [1, 32]")
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
    bit_matrix = bit_stream.reshape(n_codes, bits).astype(np.uint32)
    shifts = np.arange(bits, dtype=np.uint32)
    codes = (bit_matrix << shifts[None, :]).sum(axis=1, dtype=np.uint64)
    return codes.astype(np.uint32).reshape(n_points, dim)


def _error_of(fn, *args):
    with pytest.raises(QuantizationError) as err:
        fn(*args)
    return str(err.value)


class TestBitPlaneUnpack:
    """The bit-plane unpacker equals the shift-and-sum reference."""

    @pytest.mark.parametrize("bits", range(1, 33))
    def test_matches_reference(self, bits, rng):
        for m, d in ((0, 3), (1, 1), (37, 5), (200, 16)):
            codes = rng.integers(
                0, 2**bits, size=(m, d), dtype=np.uint64
            ).astype(np.uint32)
            if m:
                codes[0, 0] = 2**bits - 1  # every bit-plane set
            payload = pack_codes(codes, bits)
            got = unpack_codes(payload, bits, m, d)
            want = _shift_and_sum_unpack(payload, bits, m, d)
            assert got.dtype == want.dtype == np.uint32
            assert got.shape == want.shape == (m, d)
            assert np.array_equal(got, want)
            assert np.array_equal(got, codes)

    @pytest.mark.parametrize("bits", [1, 3, 8, 13, 32])
    def test_trailing_bytes_ignored(self, bits, rng):
        codes = rng.integers(0, 2**bits, size=(9, 2), dtype=np.uint64)
        payload = pack_codes(codes.astype(np.uint32), bits) + b"\xff\xff"
        assert np.array_equal(
            unpack_codes(payload, bits, 9, 2),
            _shift_and_sum_unpack(payload, bits, 9, 2),
        )

    @pytest.mark.parametrize("bits", [1, 5, 8, 17, 32])
    def test_truncated_payload_errors_unchanged(self, bits):
        payload = pack_codes(np.ones((6, 3), dtype=np.uint32), bits)
        for cut in (1, len(payload)):
            short = payload[:-cut]
            assert _error_of(unpack_codes, short, bits, 6, 3) == (
                _error_of(_shift_and_sum_unpack, short, bits, 6, 3)
            )

    @pytest.mark.parametrize("bits", [1, 2, 7, 16, 31, 32])
    def test_bulk_equals_per_page(self, bits, rng):
        sizes = [0, 3, 41, 1, 17]
        pages = [
            rng.integers(0, 2**bits, size=(m, 4), dtype=np.uint64).astype(
                np.uint32
            )
            for m in sizes
        ]
        payloads = [pack_codes(c, bits) for c in pages]
        bulk = unpack_codes_bulk(payloads, bits, sizes, 4)
        for payload, m, out in zip(payloads, sizes, bulk):
            assert np.array_equal(out, unpack_codes(payload, bits, m, 4))
