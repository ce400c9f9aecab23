"""Tests for saving/loading an IQ-tree to a real file (IQTREE02 containers)."""

import numpy as np
import pytest

from repro.cli import main
from repro.exceptions import IntegrityError, StorageError
from repro.core.optimizer import fixed_bits_partitions
from repro.core.tree import IQTree
from repro.costmodel.model import CostModel
from repro.geometry.metrics import get_metric
from repro.storage.disk import DiskModel, SimulatedDisk
from repro.storage.persistence import (
    MAGIC_V2,
    load_iqtree,
    save_iqtree,
    section_spans,
    serialize_iqtree,
    verify_container,
)


@pytest.fixture
def tree(uniform_points, small_disk):
    return IQTree.build(uniform_points[:800], disk=small_disk)


def float64_tree(rng, n=300, dim=6):
    """A tree over true float64 data (not float32-representable)."""
    points = rng.random((n, dim))
    disk = SimulatedDisk(DiskModel(block_size=512))
    solution = fixed_bits_partitions(points, 512, 8)
    metric = get_metric("euclidean")
    cost_model = CostModel(
        disk.model,
        dim,
        n,
        fractal_dim=float(dim),
        data_space_volume=1.0,
        metric=metric,
        k=1,
    )
    return IQTree(
        points, solution, disk, metric, cost_model, None, True
    )


class TestRoundTrip:
    def test_structure_preserved(self, tree, tmp_path):
        path = tmp_path / "index.iqt"
        save_iqtree(tree, path)
        loaded = load_iqtree(path)
        assert loaded.n_points == tree.n_points
        assert loaded.dim == tree.dim
        assert loaded.n_pages == tree.n_pages
        assert np.array_equal(loaded.page_bits, tree.page_bits)
        assert np.array_equal(loaded.points, tree.points)
        assert loaded.metric.name == tree.metric.name
        assert loaded.cost_model.fractal_dim == pytest.approx(
            tree.cost_model.fractal_dim
        )

    def test_points_bit_exact(self, tree, tmp_path):
        path = tmp_path / "index.iqt"
        save_iqtree(tree, path)
        loaded = load_iqtree(path)
        assert loaded.points.dtype == np.float64
        assert loaded.points.tobytes() == tree.points.tobytes()

    def test_float64_data_bit_exact(self, tmp_path, rng):
        """v2 preserves coordinates v1 silently rounded to float32."""
        tree = float64_tree(rng)
        assert tree.points.astype(np.float32).astype(
            np.float64
        ).tobytes() != tree.points.tobytes()
        path = tmp_path / "f64.iqt"
        save_iqtree(tree, path)
        loaded = load_iqtree(path, verify=True)
        assert loaded.points.tobytes() == tree.points.tobytes()
        q = rng.random(6)
        a = tree.nearest(q, k=4)
        b = loaded.nearest(q, k=4)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.distances, b.distances)

    def test_queries_identical_after_reload(self, tree, tmp_path, rng):
        path = tmp_path / "index.iqt"
        save_iqtree(tree, path)
        loaded = load_iqtree(path)
        for _ in range(5):
            q = rng.random(8)
            a = tree.nearest(q, k=3)
            b = loaded.nearest(q, k=3)
            assert np.array_equal(a.ids, b.ids)
            assert np.allclose(a.distances, b.distances)

    def test_io_costs_identical_after_reload(self, tree, tmp_path, rng):
        path = tmp_path / "index.iqt"
        save_iqtree(tree, path)
        loaded = load_iqtree(path)
        q = rng.random(8)
        tree.disk.park()
        loaded.disk.park()
        assert tree.nearest(q).io.elapsed == pytest.approx(
            loaded.nearest(q).io.elapsed
        )

    def test_loaded_tree_supports_maintenance(self, tree, tmp_path):
        path = tmp_path / "index.iqt"
        save_iqtree(tree, path)
        loaded = load_iqtree(path)
        new_id = loaded.insert(np.full(8, 0.77))
        hit = loaded.nearest(np.full(8, 0.77), k=1)
        assert hit.ids[0] == new_id

    def test_maintenance_state_saved(self, tree, tmp_path, rng):
        """Save after churn: the mutated structure round-trips."""
        for _ in range(30):
            tree.insert(rng.random(8))
        tree.delete(5)
        path = tmp_path / "churned.iqt"
        save_iqtree(tree, path)
        loaded = load_iqtree(path)
        assert loaded.n_live_points == tree.n_live_points
        q = rng.random(8)
        assert np.allclose(
            loaded.nearest(q, k=4).distances,
            tree.nearest(q, k=4).distances,
        )

    def test_insert_extended_mbrs_survive_reload(self, tree, tmp_path, rng):
        """v2 stores page MBRs explicitly, so the insert-extended (not
        re-tightened) bounds round-trip and the relaid files match."""
        for _ in range(20):
            tree.insert(rng.random(8))
        path = tmp_path / "churned.iqt"
        save_iqtree(tree, path)
        loaded = load_iqtree(path, verify=True)
        for j in range(tree.n_pages):
            assert loaded.page_mbr(j) == tree.page_mbr(j)

    def test_custom_disk_on_load(self, tree, tmp_path):
        path = tmp_path / "index.iqt"
        save_iqtree(tree, path)
        disk = SimulatedDisk(tree.disk.model)
        loaded = load_iqtree(path, disk=disk)
        assert loaded.disk is disk


class TestAtomicSave:
    def test_no_temp_file_left_on_success(self, tree, tmp_path):
        path = tmp_path / "index.iqt"
        save_iqtree(tree, path)
        assert [p.name for p in tmp_path.iterdir()] == ["index.iqt"]

    def test_save_over_existing_container(self, tree, tmp_path, rng):
        path = tmp_path / "index.iqt"
        save_iqtree(tree, path)
        tree.insert(rng.random(8))
        save_iqtree(tree, path)
        loaded = load_iqtree(path, verify=True)
        assert loaded.n_points == tree.n_points

    def test_fsync_optional(self, tree, tmp_path):
        path = tmp_path / "index.iqt"
        save_iqtree(tree, path, fsync=False)
        assert verify_container(path).ok

    def test_serialize_is_deterministic(self, tree):
        assert serialize_iqtree(tree) == serialize_iqtree(tree)


class TestVerifyFlag:
    def test_verify_accepts_clean_container(self, tree, tmp_path):
        path = tmp_path / "index.iqt"
        save_iqtree(tree, path)
        load_iqtree(path, verify=True)

    def test_verify_requires_default_disk(self, tree, tmp_path):
        path = tmp_path / "index.iqt"
        save_iqtree(tree, path)
        with pytest.raises(StorageError, match="disk=None"):
            load_iqtree(
                path, disk=SimulatedDisk(tree.disk.model), verify=True
            )


class TestValidation:
    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.iqt"
        path.write_bytes(b"NOTATREE" + b"\x00" * 64)
        with pytest.raises(StorageError):
            load_iqtree(path)
        assert not verify_container(path).ok

    def test_v1_magic_is_an_unknown_format(self, tmp_path):
        """The retired float32 ``IQTREE01`` format is not a container."""
        path = tmp_path / "v1.iqt"
        path.write_bytes(b"IQTREE01" + b"\x00" * 64)
        with pytest.raises(StorageError, match="not an IQ-tree container"):
            load_iqtree(path)
        report = verify_container(path)
        assert [(s.name, s.ok) for s in report.sections] == [
            ("header", False)
        ]
        assert main(["fsck", str(path)]) == 1

    def test_mismatched_block_size_rejected(self, tree, tmp_path):
        path = tmp_path / "index.iqt"
        save_iqtree(tree, path)
        other = SimulatedDisk(DiskModel(block_size=4096))
        with pytest.raises(StorageError):
            load_iqtree(path, disk=other)

    def test_trailing_garbage_rejected(self, tree, tmp_path):
        path = tmp_path / "index.iqt"
        save_iqtree(tree, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(IntegrityError, match="trailing"):
            load_iqtree(path)

    def test_section_spans_cover_container(self, tree, tmp_path):
        path = tmp_path / "index.iqt"
        save_iqtree(tree, path)
        raw = path.read_bytes()
        spans = section_spans(raw)
        assert raw[: len(MAGIC_V2)] == MAGIC_V2
        assert spans["header"] == (0, 48)
        assert spans["meta"][0] == 48
        assert spans["payload"][1] == len(raw)
        # Sections tile the file with no gaps.
        assert spans["meta"][1] == spans["index"][0]
        assert spans["index"][1] == spans["payload"][0]
        assert (
            spans["payload"][1] - spans["payload"][0]
            == tree.n_points * tree.dim * 8
        )
