"""Property-based tests (hypothesis) on the core data structures."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.tree import IQTree, canonicalize
from repro.geometry.mbr import MBR
from repro.geometry.metrics import EUCLIDEAN
from repro.exceptions import QuantizationError
from repro.quantization.bitpack import (
    pack_codes,
    unpack_codes,
    unpack_codes_bulk,
)
from repro.quantization.grid import GridQuantizer
from repro.storage.disk import DiskModel
from repro.storage.scheduler import (
    batched_fetch_cost,
    plan_batched_fetch,
)
from repro.storage.serializer import (
    decode_exact_record,
    encode_exact_record,
)
from tests.scenarios import assert_matches_scan, small_disk


finite_coords = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, width=32
)


def points_arrays(min_rows=1, max_rows=40, min_dim=1, max_dim=6):
    return hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(
            st.integers(min_rows, max_rows), st.integers(min_dim, max_dim)
        ),
        elements=finite_coords,
    )


class TestBitpackProperties:
    @given(
        bits=st.integers(1, 31),
        shape=st.tuples(st.integers(1, 30), st.integers(1, 8)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, bits, shape, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 2**bits, size=shape, dtype=np.uint64)
        codes = codes.astype(np.uint32)
        back = unpack_codes(pack_codes(codes, bits), bits, *shape)
        assert np.array_equal(back, codes)

    @given(
        shape=st.tuples(st.integers(1, 30), st.integers(1, 8)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_full_width_roundtrip(self, shape, seed):
        """bits=32 must round-trip the entire uint32 range."""
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 2**32, size=shape, dtype=np.uint64)
        codes = codes.astype(np.uint32)
        codes.flat[0] = 0
        codes.flat[-1] = 2**32 - 1
        back = unpack_codes(pack_codes(codes, 32), 32, *shape)
        assert np.array_equal(back, codes)

    @given(
        bits=st.integers(1, 32),
        shape=st.tuples(st.integers(1, 20), st.integers(1, 6)),
        cut=st.integers(1, 64),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_truncated_payload_always_rejected(self, bits, shape, cut, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 2**bits, size=shape, dtype=np.uint64)
        payload = pack_codes(codes.astype(np.uint32), bits)
        short = payload[: -min(cut, len(payload))]
        with pytest.raises(QuantizationError):
            unpack_codes(short, bits, *shape)
        with pytest.raises(QuantizationError):
            unpack_codes_bulk([short], bits, [shape[0]], shape[1])

    @given(
        bits=st.integers(1, 32),
        sizes=st.lists(st.integers(0, 25), min_size=1, max_size=6),
        dim=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_bulk_matches_scalar_unpack(self, bits, sizes, dim, seed):
        rng = np.random.default_rng(seed)
        pages = [
            rng.integers(0, 2**bits, size=(m, dim), dtype=np.uint64).astype(
                np.uint32
            )
            for m in sizes
        ]
        payloads = [pack_codes(c, bits) for c in pages]
        bulk = unpack_codes_bulk(payloads, bits, sizes, dim)
        assert len(bulk) == len(pages)
        for codes, out in zip(pages, bulk):
            assert out.dtype == np.uint32
            assert np.array_equal(out, codes)


class TestMBRProperties:
    @given(points=points_arrays())
    @settings(max_examples=60, deadline=None)
    def test_of_points_contains_all(self, points):
        box = MBR.of_points(points)
        for p in points:
            assert box.contains_point(p)

    @given(points=points_arrays(min_rows=2))
    @settings(max_examples=60, deadline=None)
    def test_mindist_maxdist_bracket(self, points):
        box = MBR.of_points(points[1:])
        query = points[0]
        dmin = box.mindist(query)
        dmax = box.maxdist(query)
        dists = EUCLIDEAN.distances(query, points[1:])
        assert np.all(dists >= dmin - 1e-6 * max(1.0, dmax))
        assert np.all(dists <= dmax + 1e-6 * max(1.0, dmax))

    @given(points=points_arrays(min_rows=4))
    @settings(max_examples=40, deadline=None)
    def test_union_contains_both(self, points):
        half = len(points) // 2
        a = MBR.of_points(points[:half]) if half else None
        if a is None:
            return
        b = MBR.of_points(points[half:])
        u = a.union(b)
        assert u.contains_mbr(a) and u.contains_mbr(b)


class TestGridQuantizerProperties:
    @given(
        bits=st.integers(1, 12),
        seed=st.integers(0, 2**16),
        n=st.integers(1, 60),
        dim=st.integers(1, 6),
    )
    @settings(max_examples=50, deadline=None)
    def test_cells_contain_points_and_bounds_bracket(
        self, bits, seed, n, dim
    ):
        rng = np.random.default_rng(seed)
        pts = canonicalize(rng.random((n, dim)) * 10 - 5)
        box = MBR.of_points(pts)
        q = GridQuantizer(box, bits)
        codes = q.encode(pts)
        lowers, uppers = q.cell_bounds(codes)
        assert np.all(pts >= lowers - 1e-9)
        assert np.all(pts <= uppers + 1e-9)
        query = canonicalize(rng.random(dim) * 12 - 6)
        true = EUCLIDEAN.distances(query, pts)
        lo = q.cell_mindist(query, codes)
        hi = q.cell_maxdist(query, codes)
        assert np.all(lo <= true + 1e-9)
        assert np.all(true <= hi + 1e-9)


class TestSchedulerProperties:
    @given(
        blocks=st.sets(st.integers(0, 400), min_size=1, max_size=40),
        window=st.floats(0, 50, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_plan_covers_exactly_requested(self, blocks, window):
        wanted = sorted(blocks)
        runs = list(plan_batched_fetch(wanted, window))
        covered = []
        total_wanted = 0
        prev_end = -1
        for start, count, wanted_count in runs:
            assert start > prev_end
            prev_end = start + count - 1
            covered.extend(range(start, start + count))
            total_wanted += wanted_count
        assert set(wanted) <= set(covered)
        assert total_wanted == len(wanted)
        # First and last block of every run are wanted (no waste ends).
        for start, count, _w in runs:
            assert start in blocks
            assert start + count - 1 in blocks

    @given(blocks=st.sets(st.integers(0, 300), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_cost_no_worse_than_extremes(self, blocks):
        model = DiskModel(t_seek=0.01, t_xfer=0.001)
        wanted = sorted(blocks)
        cost = batched_fetch_cost(wanted, model)
        random_cost = model.random_read_time(len(wanted))
        span_scan = model.scan_time(wanted[-1] - wanted[0] + 1)
        assert cost <= random_cost + 1e-12
        assert cost <= span_scan + 1e-12


class TestSerializerProperties:
    @given(
        n=st.integers(1, 40),
        dim=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_exact_record_roundtrip(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        pts = canonicalize(rng.random((n, dim)) * 100 - 50)
        ids = rng.integers(0, 2**31, size=n)
        back_pts, back_ids = decode_exact_record(
            encode_exact_record(pts, ids), n, dim
        )
        assert np.array_equal(back_pts, pts)
        assert np.array_equal(back_ids, ids)


class TestSearchProperties:
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(20, 300),
        dim=st.integers(2, 8),
        k=st.integers(1, 5),
    )
    @settings(max_examples=15, deadline=None)
    def test_iqtree_knn_matches_brute_force(self, seed, n, dim, k):
        rng = np.random.default_rng(seed)
        tree = IQTree.build(rng.random((n, dim)), disk=small_disk(512))
        query = canonicalize(rng.random(dim) * 1.5 - 0.25)
        assert_matches_scan(tree, query, tree.nearest(query, k=k), k=k)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_range_query_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        tree = IQTree.build(rng.random((150, 5)), disk=small_disk(512))
        query = canonicalize(rng.random(5))
        radius = float(rng.random()) * 0.8
        res = tree.range_query(query, radius)
        assert_matches_scan(tree, query, res, radius=radius)
