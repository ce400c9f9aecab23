"""Unit + property tests for the pluggable page codecs.

Covers the PQ codec (deterministic fit, sound conservative bounds,
round-trip through the serializer, loud structural validation of every
corruption class) and the Elias-Fano directory encoding (exact size
prediction, bit-identical round-trips, truncation/corruption errors).
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.exceptions import (
    PageOverflowError,
    QuantizationError,
    StorageError,
)
from repro.geometry.mbr import maxdist_to_boxes, mindist_to_boxes
from repro.geometry.metrics import EUCLIDEAN, MAXIMUM, LpMetric
from repro.quantization.bitpack import packed_size
from repro.quantization.codecs import (
    CODEC_GRID,
    CODEC_PQ,
    MAX_EFF_BITS,
    PQ_SUBHEADER,
    PQView,
    decode_pq_body,
    effective_bits,
    encode_pq_body,
    fit_pq,
    pq_body_size,
    pq_page_fits,
    subspace_spans,
)
from repro.quantization.eliasfano import (
    decode_ef_directory,
    decode_ef_list,
    ef_list_size,
    encode_ef_directory,
    encode_ef_list,
)
from repro.storage.serializer import (
    QUANT_PAGE_HEADER,
    decode_quantized_page,
    encode_pq_page,
    encode_quantized_page,
)


def pq_body(points, n_sub, bits):
    """Encode a fresh fit of ``points`` as a PQ page body."""
    return encode_pq_body(
        fit_pq(points, n_sub, bits), len(points), n_sub, bits
    )


def pq_page(points, bits, n_sub, block_size):
    """Encode a fresh fit of ``points`` as a PQ data page."""
    return encode_pq_page(
        fit_pq(points, n_sub, bits), len(points), bits, n_sub, block_size
    )


def micro_clusters(
    m: int, dim: int, n_clusters: int, seed: int = 0
) -> np.ndarray:
    """Tight clumps -- the regime PQ is built for."""
    rng = np.random.default_rng(seed)
    centers = rng.random((n_clusters, dim))
    pts = centers[rng.integers(0, n_clusters, size=m)]
    pts = pts + rng.normal(0, 0.001, size=(m, dim))
    return np.clip(pts, 0, 1).astype(np.float32).astype(np.float64)


# ----------------------------------------------------------------------
# PQView lookup-table bounds
# ----------------------------------------------------------------------
METRICS = [EUCLIDEAN, MAXIMUM, LpMetric(3)]


def random_view(k: int, dim: int, n_sub: int, seed: int, degenerate=False):
    """A PQView over random f32-exact boxes, as a decoded page holds."""
    rng = np.random.default_rng(seed)
    lo = rng.random((k, dim)).astype(np.float32).astype(np.float64)
    side = rng.random((k, dim)).astype(np.float32).astype(np.float64)
    if degenerate:
        side[rng.random((k, dim)) < 0.5] = 0.0
    return PQView(lo, lo + side * 0.25, n_sub, dim)


def assert_table_bounds_bitwise(view, codes, query, metric):
    lowers, uppers = view.cell_bounds(codes)
    assert np.array_equal(
        view.cell_mindist(query, codes, metric),
        mindist_to_boxes(query, lowers, uppers, metric),
    )
    assert np.array_equal(
        view.cell_maxdist(query, codes, metric),
        maxdist_to_boxes(query, lowers, uppers, metric),
    )


class TestPQTableBounds:
    """The lookup-table bounds are bit-equal to the box-gather path."""

    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
    @pytest.mark.parametrize(
        "k,m,dim,n_sub",
        [
            (1, 40, 6, 2),  # K = 1
            (40, 40, 6, 3),  # K = m
            (8, 300, 7, 3),  # uneven spans: 3 + 2 + 2
            (5, 64, 1, 1),  # one dimension
            (16, 200, 16, 16),  # one dimension per subspace
        ],
    )
    def test_bit_equal(self, metric, k, m, dim, n_sub):
        rng = np.random.default_rng(k * 1000 + dim)
        for degenerate in (False, True):
            view = random_view(k, dim, n_sub, seed=m, degenerate=degenerate)
            codes = rng.integers(0, k, size=(m, n_sub)).astype(np.uint32)
            for query in (
                rng.random(dim),  # inside or near the page
                rng.random(dim) * 1e3 - 5e2,  # far outside it
                view.box_lo[0].copy(),  # on a box corner
            ):
                assert_table_bounds_bitwise(view, codes, query, metric)

    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
    def test_fitted_page_bit_equal(self, metric):
        """Fitted codebooks, both as fit (float32) and as decoded."""
        pts = micro_clusters(500, 7, 12, seed=4)
        codes, lo32, hi32 = fit_pq(pts, 3, 4)
        rng = np.random.default_rng(2)
        for dtype in (np.float32, np.float64):
            view = PQView(lo32.astype(dtype), hi32.astype(dtype), 3, 7)
            for query in (pts[3], rng.random(7), rng.random(7) + 50.0):
                assert_table_bounds_bitwise(view, codes, query, metric)

    def test_empty_codes(self):
        view = random_view(4, 5, 2, seed=1)
        codes = np.zeros((0, 2), dtype=np.uint32)
        assert view.cell_mindist(np.zeros(5), codes).shape == (0,)
        assert view.cell_maxdist(np.zeros(5), codes).shape == (0,)


# ----------------------------------------------------------------------
# subspace_spans
# ----------------------------------------------------------------------
class TestSubspaceSpans:
    @pytest.mark.parametrize("dim,n_sub", [(8, 1), (8, 3), (8, 8), (7, 2)])
    def test_partition_properties(self, dim, n_sub):
        spans = subspace_spans(dim, n_sub)
        assert len(spans) == n_sub
        assert spans[0][0] == 0 and spans[-1][1] == dim
        sizes = [b - a for a, b in spans]
        # contiguous, non-empty, sizes differ by at most one
        assert all(s >= 1 for s in sizes)
        assert max(sizes) - min(sizes) <= 1
        for (_, b_prev), (a_next, _) in zip(spans, spans[1:]):
            assert b_prev == a_next

    def test_rejects_bad_counts(self):
        with pytest.raises(QuantizationError):
            subspace_spans(4, 0)
        with pytest.raises(QuantizationError):
            subspace_spans(4, 5)


# ----------------------------------------------------------------------
# fit_pq: determinism + soundness
# ----------------------------------------------------------------------
class TestFitPQ:
    def test_deterministic_same_bytes(self):
        pts = micro_clusters(200, 6, 8, seed=3)
        a_codes, a_lo, a_hi = fit_pq(pts, 2, 4)
        b_codes, b_lo, b_hi = fit_pq(pts.copy(), 2, 4)
        assert a_lo.tobytes() == b_lo.tobytes()
        assert a_hi.tobytes() == b_hi.tobytes()
        assert (a_codes == b_codes).all()
        # the full encoded body is byte-stable too (re-encode contract)
        assert pq_body(pts, 2, 4) == pq_body(pts, 2, 4)

    @pytest.mark.parametrize("n_sub,bits", [(1, 4), (3, 2), (6, 3)])
    def test_bounds_contain_points(self, n_sub, bits):
        pts = micro_clusters(150, 6, 5, seed=7)
        codes, lo32, hi32 = fit_pq(pts, n_sub, bits)
        view = PQView(
            lo32.astype(np.float64), hi32.astype(np.float64), n_sub, 6
        )
        lowers, uppers = view.cell_bounds(codes)
        assert (lowers <= pts + 1e-12).all()
        assert (uppers >= pts - 1e-12).all()

    def test_bounds_sound_for_non_f32_inputs(self):
        # coordinates that are NOT float32-representable: the outward
        # ulp nudge must keep containment through the f32 cast
        rng = np.random.default_rng(11)
        pts = rng.random((80, 4)) * 1e-3 + 1.0 / 3.0
        codes, lo32, hi32 = fit_pq(pts, 2, 3)
        view = PQView(
            lo32.astype(np.float64), hi32.astype(np.float64), 2, 4
        )
        lowers, uppers = view.cell_bounds(codes)
        assert (lowers <= pts).all()
        assert (uppers >= pts).all()

    def test_single_point_page(self):
        pts = np.array([[0.25, 0.5, 0.75]])
        codes, lo32, hi32 = fit_pq(pts, 1, 4)
        # K = min(2^4, 1) = 1
        assert lo32.shape == (1, 3) and hi32.shape == (1, 3)
        assert (codes == 0).all()
        np.testing.assert_array_equal(lo32, hi32)

    def test_input_validation(self):
        pts = micro_clusters(10, 4, 2)
        with pytest.raises(QuantizationError):
            fit_pq(pts, 2, 0)
        with pytest.raises(QuantizationError):
            fit_pq(pts, 2, 17)
        with pytest.raises(QuantizationError):
            fit_pq(pts[0], 1, 4)  # not (m, d)
        with pytest.raises(QuantizationError):
            fit_pq(pts[:0], 1, 4)  # empty


# ----------------------------------------------------------------------
# PQ body / page round-trips
# ----------------------------------------------------------------------
class TestPQRoundTrip:
    @pytest.mark.parametrize("n_sub,bits", [(1, 2), (2, 4), (4, 3)])
    def test_body_roundtrip(self, n_sub, bits):
        pts = micro_clusters(120, 4, 6, seed=1)
        codes, lo32, hi32 = fit_pq(pts, n_sub, bits)
        body = pq_body(pts, n_sub, bits)
        assert len(body) == pq_body_size(120, 4, n_sub, bits)
        got_codes, view = decode_pq_body(body, 120, bits, 4)
        assert (got_codes == codes).all()
        np.testing.assert_array_equal(
            view.box_lo, lo32.astype(np.float64)
        )
        np.testing.assert_array_equal(
            view.box_hi, hi32.astype(np.float64)
        )

    def test_page_roundtrip_via_serializer(self):
        pts = micro_clusters(100, 5, 4, seed=2)
        payload = pq_page(pts, 4, 2, 8192)
        m, bits, codec = QUANT_PAGE_HEADER.unpack_from(payload)
        assert (m, bits, codec) == (100, 4, CODEC_PQ)
        contents, got_bits, ids, aux = decode_quantized_page(payload, 5)
        assert got_bits == 4 and ids is None
        assert isinstance(aux, PQView)
        lowers, uppers = aux.cell_bounds(contents)
        assert (lowers <= pts).all() and (uppers >= pts).all()

    def test_grid_page_has_no_aux(self):
        codes = np.arange(12, dtype=np.uint32).reshape(4, 3) % 8
        payload = encode_quantized_page(codes, 3, 512)
        m, bits, codec = QUANT_PAGE_HEADER.unpack_from(payload)
        assert codec == CODEC_GRID
        contents, got_bits, ids, aux = decode_quantized_page(payload, 3)
        assert aux is None and ids is None
        assert (contents == codes).all()

    def test_pq_mindist_maxdist_bracket_true_distance(self):
        pts = micro_clusters(90, 4, 3, seed=9)
        payload = pq_page(pts, 4, 2, 8192)
        codes, _bits, _ids, view = decode_quantized_page(payload, 4)
        query = np.array([0.5, 0.1, 0.9, 0.3])
        true = EUCLIDEAN.distances(query, pts)
        lo = view.cell_mindist(query, codes)
        hi = view.cell_maxdist(query, codes)
        assert (lo <= true + 1e-9).all()
        assert (hi >= true - 1e-9).all()

    def test_page_overflow_rejected(self):
        pts = micro_clusters(300, 8, 4)
        with pytest.raises(PageOverflowError):
            pq_page(pts, 8, 4, 512)

    def test_pq_page_fits_matches_encoder(self):
        pts = micro_clusters(60, 4, 4)
        for block in (256, 512, 1024, 4096):
            fits = pq_page_fits(60, 4, 2, 4, block)
            if fits:
                assert len(pq_page(pts, 4, 2, block)) <= block
            else:
                with pytest.raises(PageOverflowError):
                    pq_page(pts, 4, 2, block)


# ----------------------------------------------------------------------
# structural validation: corruption is loud, never a wrong answer
# ----------------------------------------------------------------------
def pq_parts(pts, n_sub, bits):
    body = pq_body(pts, n_sub, bits)
    m = pts.shape[0]
    k = min(1 << bits, m)
    cb_bytes = 2 * k * pts.shape[1] * 4
    return body, k, cb_bytes


class TestPQCorruption:
    pts = micro_clusters(64, 4, 4, seed=5)

    def test_truncated_subheader(self):
        body = pq_body(self.pts, 2, 4)
        with pytest.raises(StorageError, match="subheader"):
            decode_pq_body(body[:2], 64, 4, 4)

    def test_truncated_body(self):
        body = pq_body(self.pts, 2, 4)
        with pytest.raises(StorageError, match="truncated"):
            decode_pq_body(body[:-4], 64, 4, 4)

    def test_bad_subspace_count(self):
        body, k, _ = pq_parts(self.pts, 2, 4)
        bad = PQ_SUBHEADER.pack(9, 0, k) + body[PQ_SUBHEADER.size :]
        with pytest.raises(StorageError, match="subspace count"):
            decode_pq_body(bad, 64, 4, 4)

    def test_bad_cluster_count(self):
        body, _k, _ = pq_parts(self.pts, 2, 4)
        bad = PQ_SUBHEADER.pack(2, 0, 500) + body[PQ_SUBHEADER.size :]
        with pytest.raises(StorageError, match="cluster count"):
            decode_pq_body(bad, 64, 4, 4)

    def test_bad_bits(self):
        body = pq_body(self.pts, 2, 4)
        with pytest.raises(StorageError, match="code width"):
            decode_pq_body(body, 64, 0, 4)

    def test_code_past_k(self):
        # K < 2^bits leaves representable-but-invalid code values
        pts = self.pts[:10]  # K = min(2^4, 10) = 10 < 16
        body = pq_body(pts, 1, 4)
        k = 10
        cb_bytes = 2 * k * 4 * 4
        codes_off = PQ_SUBHEADER.size + cb_bytes
        corrupt = bytearray(body)
        corrupt[codes_off] = 0xFF  # two 4-bit codes = 15 >= K
        with pytest.raises(StorageError, match="cluster >= K"):
            decode_pq_body(bytes(corrupt), 10, 4, 4)

    def test_non_finite_codebook(self):
        body, _k, _ = pq_parts(self.pts, 2, 4)
        corrupt = bytearray(body)
        struct.pack_into("<f", corrupt, PQ_SUBHEADER.size, float("nan"))
        with pytest.raises(StorageError, match="non-finite"):
            decode_pq_body(bytes(corrupt), 64, 4, 4)

    def test_inverted_box(self):
        body, k, _cb = pq_parts(self.pts, 2, 4)
        corrupt = bytearray(body)
        # overwrite the first lower bound with a huge value > upper
        struct.pack_into("<f", corrupt, PQ_SUBHEADER.size, 1e30)
        with pytest.raises(StorageError, match="inverted"):
            decode_pq_body(bytes(corrupt), 64, 4, 4)

    def test_unknown_page_codec_id(self):
        payload = bytearray(
            encode_quantized_page(
                np.zeros((2, 2), dtype=np.uint32), 4, 512
            )
        )
        payload[5] = 7  # codec byte
        with pytest.raises(StorageError, match="unknown page codec"):
            decode_quantized_page(bytes(payload), 2)


# ----------------------------------------------------------------------
# effective_bits
# ----------------------------------------------------------------------
class TestEffectiveBits:
    def build_view(self, pts, n_sub, bits):
        codes, lo32, hi32 = fit_pq(pts, n_sub, bits)
        view = PQView(
            lo32.astype(np.float64),
            hi32.astype(np.float64),
            n_sub,
            pts.shape[1],
        )
        return codes, view

    def test_clustered_page_beats_its_code_width(self):
        # tight clumps inside a wide MBR: few PQ bits buy many
        # grid-equivalent bits of resolution
        pts = micro_clusters(200, 4, 8, seed=13)
        codes, view = self.build_view(pts, 4, 3)
        extents = pts.max(axis=0) - pts.min(axis=0)
        eff = effective_bits(extents, codes, view)
        assert isinstance(eff, float)
        assert eff > 3.0

    def test_clamped_to_valid_model_range(self):
        pts = micro_clusters(50, 3, 2, seed=17)
        codes, view = self.build_view(pts, 1, 2)
        extents = pts.max(axis=0) - pts.min(axis=0)
        eff = effective_bits(extents, codes, view)
        assert 1.0 <= eff <= MAX_EFF_BITS
        # degenerate MBR (all sides zero) -> exact-level ceiling
        assert (
            effective_bits(np.zeros(3), codes, view) == MAX_EFF_BITS
        )

    def test_duplicate_points_hit_ceiling(self):
        pts = np.tile(np.array([[0.25, 0.5]]), (20, 1))
        codes, view = self.build_view(pts, 1, 2)
        eff = effective_bits(np.array([0.5, 0.5]), codes, view)
        assert eff == MAX_EFF_BITS


# ----------------------------------------------------------------------
# Elias-Fano lists
# ----------------------------------------------------------------------
class TestEliasFanoList:
    @pytest.mark.parametrize(
        "values",
        [
            [],
            [0],
            [0, 0, 0],
            [1, 2, 3, 4, 5],
            [0, 0, 5, 5, 1000000],
            [7, 3, 9, 0, 2],  # non-monotone -> cumsum mode
            list(range(0, 5000, 7)),
        ],
        ids=[
            "empty",
            "single",
            "zeros",
            "monotone",
            "big-universe",
            "cumsum",
            "long",
        ],
    )
    def test_roundtrip(self, values):
        arr = np.asarray(values, dtype=np.int64)
        blob = encode_ef_list(arr)
        got, cursor = decode_ef_list(blob)
        np.testing.assert_array_equal(got, arr)
        assert cursor == len(blob)

    def test_size_prediction_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(0, 200))
            arr = rng.integers(0, 10000, size=n).astype(np.int64)
            if rng.random() < 0.5:
                arr.sort()
            assert ef_list_size(arr) == len(encode_ef_list(arr))

    def test_self_delimiting_concatenation(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        b = np.array([9, 4, 7], dtype=np.int64)
        blob = encode_ef_list(a) + encode_ef_list(b)
        got_a, cursor = decode_ef_list(blob)
        got_b, end = decode_ef_list(blob, cursor)
        np.testing.assert_array_equal(got_a, a)
        np.testing.assert_array_equal(got_b, b)
        assert end == len(blob)

    def test_rejects_negative_and_2d(self):
        with pytest.raises(StorageError, match="non-negative"):
            encode_ef_list(np.array([3, -1]))
        with pytest.raises(StorageError, match="one-dimensional"):
            encode_ef_list(np.zeros((2, 2), dtype=np.int64))

    def test_truncated_header(self):
        with pytest.raises(StorageError, match="header truncated"):
            decode_ef_list(b"\x00\x01\x02")

    def test_truncated_body(self):
        blob = encode_ef_list(np.arange(100, dtype=np.int64) * 13)
        with pytest.raises(StorageError, match="body truncated"):
            decode_ef_list(blob[:-3])

    def test_unknown_mode(self):
        blob = bytearray(encode_ef_list(np.array([1, 2, 3])))
        blob[9] = 5  # mode byte of <IIBBxx
        with pytest.raises(StorageError, match="unknown Elias-Fano mode"):
            decode_ef_list(bytes(blob))

    def test_bitmap_with_too_few_bits(self):
        blob = bytearray(encode_ef_list(np.array([0, 1, 2, 3])))
        # zero out the upper bitmap: fewer set bits than n
        for i in range(12, len(blob)):
            blob[i] = 0
        with pytest.raises(StorageError, match="too few set bits"):
            decode_ef_list(bytes(blob))


# ----------------------------------------------------------------------
# Elias-Fano directory blocks
# ----------------------------------------------------------------------
def make_directory(n: int, dim: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    lowers = rng.random((n, dim)).astype(np.float32).astype(np.float64)
    uppers = lowers + rng.random((n, dim)).astype(np.float32)
    uppers = uppers.astype(np.float32).astype(np.float64)
    quant_pages = np.arange(n, dtype=np.int64)
    exact_counts = rng.integers(1, 5, size=n).astype(np.int64)
    exact_firsts = np.concatenate(
        ([0], np.cumsum(exact_counts)[:-1])
    ).astype(np.int64)
    point_counts = rng.integers(1, 400, size=n).astype(np.int64)
    return (
        lowers,
        uppers,
        quant_pages,
        exact_firsts,
        exact_counts,
        point_counts,
    )


class TestEliasFanoDirectory:
    @pytest.mark.parametrize("n,dim", [(1, 4), (37, 8), (500, 16)])
    def test_roundtrip_bit_identical(self, n, dim):
        cols = make_directory(n, dim, seed=n)
        blocks = encode_ef_directory(*cols, block_size=4096)
        assert all(len(b) <= 4096 for b in blocks)
        out = decode_ef_directory(blocks, dim, n)
        np.testing.assert_array_equal(out["lowers"], cols[0])
        np.testing.assert_array_equal(out["uppers"], cols[1])
        np.testing.assert_array_equal(out["quant_pages"], cols[2])
        np.testing.assert_array_equal(out["exact_firsts"], cols[3])
        np.testing.assert_array_equal(out["exact_counts"], cols[4])
        np.testing.assert_array_equal(out["point_counts"], cols[5])

    def test_fewer_blocks_than_dense(self):
        from repro.storage.serializer import directory_entry_size

        n, dim, block = 500, 16, 4096
        cols = make_directory(n, dim, seed=42)
        blocks = encode_ef_directory(*cols, block_size=block)
        per_block_dense = block // directory_entry_size(dim)
        dense_blocks = -(-n // per_block_dense)
        assert len(blocks) < dense_blocks

    def test_entry_larger_than_block_rejected(self):
        cols = make_directory(4, 64, seed=1)
        with pytest.raises(StorageError, match="larger than a block"):
            encode_ef_directory(*cols, block_size=256)

    def test_truncated_block_stream(self):
        cols = make_directory(80, 8, seed=3)
        blocks = encode_ef_directory(*cols, block_size=1024)
        assert len(blocks) > 1
        with pytest.raises(StorageError, match="truncated"):
            decode_ef_directory(blocks[:-1], 8, 80)

    def test_corrupt_block_header(self):
        cols = make_directory(20, 4, seed=4)
        blocks = encode_ef_directory(*cols, block_size=2048)
        bad = bytearray(blocks[0])
        struct.pack_into("<H", bad, 0, 0xFFFF)  # absurd entry count
        with pytest.raises(StorageError):
            decode_ef_directory([bytes(bad)], 4, 20)

    def test_mismatched_columns_rejected(self):
        cols = list(make_directory(10, 4))
        cols[2] = cols[2][:5]  # short quant_pages column
        with pytest.raises(StorageError, match="must be"):
            encode_ef_directory(*cols, block_size=2048)
