"""Tests for IQ-tree construction and structure."""

import numpy as np
import pytest

from repro.exceptions import BuildError, SearchError
from repro.core.tree import IQTree, canonicalize
from repro.storage.disk import SimulatedDisk


@pytest.fixture
def tree(uniform_points, small_disk):
    return IQTree.build(uniform_points, disk=small_disk)


class TestCanonicalize:
    def test_idempotent(self, rng):
        data = rng.random((50, 3))
        once = canonicalize(data)
        assert np.array_equal(once, canonicalize(once))

    def test_float32_representable(self, rng):
        data = canonicalize(rng.random((50, 3)))
        assert np.array_equal(data, data.astype(np.float32))


class TestBuild:
    def test_basic_properties(self, tree, uniform_points):
        assert tree.n_points == len(uniform_points)
        assert tree.dim == 8
        assert tree.n_pages >= 1
        assert np.array_equal(tree.points, canonicalize(uniform_points))

    def test_three_files_exist(self, tree):
        sizes = tree.size_summary()
        assert sizes["directory_blocks"] >= 1
        assert sizes["quantized_blocks"] == tree.n_pages
        assert sizes["exact_blocks"] >= 0

    def test_page_bits_in_range(self, tree):
        bits = tree.page_bits
        assert np.all((bits >= 1) & (bits <= 32))

    def test_page_mbrs_contain_their_points(self, tree):
        for j in range(tree.n_pages):
            part = tree._partitions[j].partition
            box = tree.page_mbr(j)
            pts = part.points(tree.points)
            assert np.all(pts >= box.lower - 1e-9)
            assert np.all(pts <= box.upper + 1e-9)

    def test_no_quantization_variant(self, uniform_points, small_disk):
        tree = IQTree.build(uniform_points, disk=small_disk, optimize=False)
        assert np.all(tree.page_bits == 32)
        assert tree.size_summary()["exact_blocks"] == 0

    def test_fixed_bits_variant(self, uniform_points, small_disk):
        tree = IQTree.build(
            uniform_points, disk=small_disk, optimize=False, fixed_bits=4
        )
        assert np.all(tree.page_bits == 4)

    def test_fixed_bits_requires_optimize_false(self, uniform_points):
        with pytest.raises(BuildError):
            IQTree.build(uniform_points, fixed_bits=4)

    def test_fractal_dim_options(self, clustered_points, small_disk):
        auto = IQTree.build(clustered_points, disk=small_disk)
        assert 0 < auto.cost_model.fractal_dim <= 6
        fixed = IQTree.build(
            clustered_points,
            disk=SimulatedDisk(small_disk.model),
            fractal_dim=2.5,
        )
        assert fixed.cost_model.fractal_dim == 2.5
        none = IQTree.build(
            clustered_points,
            disk=SimulatedDisk(small_disk.model),
            fractal_dim=None,
        )
        assert none.cost_model.fractal_dim == 6.0

    def test_empty_rejected(self, small_disk):
        with pytest.raises(BuildError):
            IQTree.build(np.empty((0, 4)), disk=small_disk)

    def test_single_point(self, small_disk):
        tree = IQTree.build(np.array([[0.5, 0.5]]), disk=small_disk)
        res = tree.nearest(np.array([0.0, 0.0]))
        assert res.ids[0] == 0

    def test_trace_available_when_optimized(self, tree):
        assert tree.trace is not None
        assert tree.trace.n_final == tree.n_pages

    def test_repr(self, tree):
        assert "IQTree" in repr(tree)


class TestStoredRepresentation:
    def test_quantized_pages_roundtrip(self, tree):
        """Every page decodes to cells containing its points."""
        for j in range(tree.n_pages):
            handle = tree._read_page(j)
            part = tree._partitions[j].partition
            pts = part.points(tree.points)
            if handle.points is not None:
                order = np.argsort(handle.ids)
                sorted_ids = handle.ids[order]
                expect_order = np.argsort(part.indices)
                assert np.array_equal(
                    sorted_ids, part.indices[expect_order]
                )
                assert np.allclose(
                    handle.points[order], pts[expect_order]
                )
            else:
                q = tree._quantizer_for(j)
                lowers, uppers = q.cell_bounds(handle.codes)
                assert np.all(pts >= lowers - 1e-9)
                assert np.all(pts <= uppers + 1e-9)

    def test_exact_store_refine(self, tree):
        from repro.core.tree import ExactStore

        store = ExactStore(tree)
        query = np.full(8, 0.5)
        for j in range(tree.n_pages):
            if tree._bits[j] >= 32:
                continue
            part = tree._partitions[j].partition
            dist, pid = store.refine(query, j, 0)
            assert pid == part.indices[0]
            assert dist == tree.metric.distance(query, tree.points[pid])
            break

    def test_exact_store_caches_blocks(self, tree):
        from repro.core.tree import ExactStore

        target = None
        for j in range(tree.n_pages):
            if tree._bits[j] < 32 and tree._counts[j] >= 2:
                target = j
                break
        if target is None:
            pytest.skip("no multi-point quantized page in this tree")
        store = ExactStore(tree)
        query = np.full(8, 0.5)
        before = tree.disk.stats.blocks_read
        store.refine(query, target, 0)
        first_cost = tree.disk.stats.blocks_read - before
        store.refine(query, target, 1)  # adjacent record, usually same block
        assert store.refinements == 2
        assert tree.disk.stats.blocks_read - before <= first_cost + 1


class TestQueryValidation:
    def test_bad_k(self, tree):
        with pytest.raises(SearchError):
            tree.nearest(np.zeros(8), k=0)
        with pytest.raises(SearchError):
            tree.nearest(np.zeros(8), k=tree.n_points + 1)

    def test_bad_query_shape(self, tree):
        with pytest.raises(SearchError):
            tree.nearest(np.zeros(5))

    def test_bad_scheduler(self, tree):
        with pytest.raises(SearchError):
            tree.nearest(np.zeros(8), scheduler="psychic")

    def test_negative_radius(self, tree):
        with pytest.raises(SearchError):
            tree.range_query(np.zeros(8), -1.0)
