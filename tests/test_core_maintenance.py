"""Tests for dynamic insert/delete/reoptimize (paper Section 6)."""

import numpy as np
import pytest

from repro.exceptions import BuildError, SearchError
from repro.core.tree import IQTree
from tests.scenarios import assert_matches_scan


@pytest.fixture
def tree(uniform_points, small_disk):
    return IQTree.build(uniform_points[:500], disk=small_disk)


class TestInsert:
    def test_insert_returns_new_id(self, tree, rng):
        n_before = tree.n_points
        new_id = tree.insert(rng.random(8))
        assert new_id == n_before
        assert tree.n_points == n_before + 1

    def test_inserted_point_found(self, tree):
        point = np.full(8, 0.4321)
        new_id = tree.insert(point)
        res = tree.nearest(point, k=1)
        assert res.ids[0] == new_id
        assert res.distances[0] == pytest.approx(0.0, abs=1e-6)

    def test_many_inserts_stay_correct(self, tree, rng):
        for _ in range(60):
            tree.insert(rng.random(8))
        for q in rng.random((5, 8)):
            assert_matches_scan(tree, q, tree.nearest(q, k=5), k=5)

    def test_overflow_triggers_split_or_requantize(self, tree, rng):
        pages_before = tree.n_pages
        bits_before = tree.page_bits.copy()
        # Insert many points into one tight region to overflow a page.
        target = tree.points[0] + rng.normal(0, 1e-4, size=(300, 8))
        for p in np.clip(target, 0, 1):
            tree.insert(p)
        changed = (
            tree.n_pages != pages_before
            or len(tree.page_bits) != len(bits_before)
            or not np.array_equal(tree.page_bits, bits_before)
        )
        assert changed
        # Structure still valid: every page fits its bits.
        from repro.quantization.capacity import capacity_for_bits

        for opt in tree._partitions:
            cap = capacity_for_bits(
                tree.disk.model.block_size, tree.dim, opt.bits
            )
            assert opt.partition.size <= cap

    def test_insert_outside_all_mbrs(self, tree):
        new_id = tree.insert(np.full(8, 0.9999))
        res = tree.nearest(np.full(8, 0.9999), k=1)
        assert res.ids[0] == new_id

    def test_wrong_dimension_rejected(self, tree):
        with pytest.raises(SearchError):
            tree.insert(np.zeros(3))

    def test_failed_overflow_insert_leaves_tree_intact(
        self, tree, rng, monkeypatch
    ):
        """A BuildError mid-insert must not corrupt the tree.

        Forcing ``max_bits_for_count`` to 0 makes every overflow
        resolution fail (``_sized`` rejects both split halves), the
        worst case of an unsplittable page.  The insert must roll back
        completely: same points, same partitions, still clean, and
        queries answer exactly as before.
        """
        import repro.core.maintenance as maintenance

        tree._ensure_clean()
        points_before = tree.points.copy()
        partitions_before = list(tree._partitions)
        q = rng.random(8)
        baseline = tree.nearest(q, k=3)

        monkeypatch.setattr(
            maintenance, "max_bits_for_count", lambda *args: 0
        )
        with pytest.raises(BuildError):
            tree.insert(rng.random(8))
        monkeypatch.undo()

        assert tree.n_points == points_before.shape[0]
        assert np.array_equal(tree.points, points_before)
        assert tree._partitions == partitions_before
        assert not tree._dirty
        after = tree.nearest(q, k=3)
        assert np.array_equal(after.ids, baseline.ids)
        assert np.array_equal(after.distances, baseline.distances)


class TestDelete:
    def test_deleted_point_not_returned(self, tree):
        victim = 42
        point = tree.points[victim].copy()
        tree.delete(victim)
        res = tree.nearest(point, k=3)
        assert victim not in res.ids

    def test_delete_keeps_structure_correct(self, tree, rng):
        removed = set()
        for pid in range(0, 100, 7):
            tree.delete(pid)
            removed.add(pid)
        q = rng.random(8)
        res = tree.nearest(q, k=5)
        assert not (set(res.ids.tolist()) & removed)
        assert_matches_scan(tree, q, res, k=5)  # scans the survivors

    def test_delete_unknown_id_rejected(self, tree):
        with pytest.raises(SearchError):
            tree.delete(10**9)

    def test_delete_twice_rejected(self, tree):
        tree.delete(7)
        with pytest.raises(SearchError):
            tree.delete(7)

    def test_delete_whole_page(self, tree):
        part0 = tree._partitions[0].partition
        ids = part0.indices.tolist()
        pages_before = tree.n_pages
        for pid in ids:
            tree.delete(pid)
        tree.nearest(np.full(8, 0.5))  # forces re-layout
        assert tree.n_pages == pages_before - 1

    def test_cannot_delete_last_point(self, small_disk):
        tree = IQTree.build(np.array([[0.1, 0.2]]), disk=small_disk)
        with pytest.raises(BuildError):
            tree.delete(0)


class TestLocatePoint:
    def test_clean_and_dirty_lookups_agree(self, tree):
        from repro.core.maintenance import locate_point

        tree.delete(11)
        tree.nearest(np.full(8, 0.5))  # re-layout: a clean tree
        assert not tree._dirty
        clean = [locate_point(tree, pid) for pid in range(tree.n_points)]
        for j, opt in enumerate(tree._partitions):
            assert {clean[pid] for pid in opt.partition.indices} == {j}
        assert clean[11] is None
        for pid in (-1, tree.n_points, 10**9):
            assert locate_point(tree, pid) is None
        tree._dirty = True  # the partition-scan path
        assert [
            locate_point(tree, pid) for pid in range(tree.n_points)
        ] == clean


class TestReoptimize:
    def test_reoptimize_after_churn(self, tree, rng):
        for _ in range(50):
            tree.insert(rng.random(8))
        for pid in range(0, 40, 3):
            tree.delete(pid)
        tree.reoptimize()
        # Ids are compacted: the index is rebuilt over live points only.
        q = rng.random(8)
        assert_matches_scan(tree, q, tree.nearest(q, k=3), k=3)

    def test_reoptimize_refreshes_trace(self, tree, rng):
        for _ in range(30):
            tree.insert(rng.random(8))
        tree.reoptimize()
        assert tree.trace is not None
        assert tree.trace.n_final == tree.n_pages


class TestLayoutFree:
    """Bursts of maintenance ops must not rebuild the files mid-burst."""

    def test_insert_burst_relays_out_once(self, tree, rng):
        tree._ensure_clean()
        quant_before = tree._quant_file
        for _ in range(20):
            tree.insert(rng.random(8))
        # Still the same sealed files: no intermediate re-layout.
        assert tree._quant_file is quant_before
        assert tree._dirty
        tree._ensure_clean()
        assert tree._quant_file is not quant_before

    def test_delete_on_dirty_tree_stays_layout_free(self, tree, rng):
        tree._ensure_clean()
        quant_before = tree._quant_file
        new_id = tree.insert(rng.random(8))
        tree.delete(new_id)       # locate must work on the dirty tree
        tree.delete(3)            # and for pre-existing ids too
        assert tree._quant_file is quant_before
        assert tree._dirty

    def test_delete_then_insert_roundtrip(self, tree, rng):
        """Deleting a point and inserting the same coordinates yields a
        fresh id that answers exactly."""
        victim = 17
        coords = tree.points[victim].copy()
        tree.delete(victim)
        new_id = tree.insert(coords)
        assert new_id != victim
        res = tree.nearest(coords, k=1)
        assert res.ids[0] == new_id
        assert res.distances[0] == 0.0

    def test_mixed_burst_matches_brute_force(self, tree, rng):
        for i in range(30):
            if i % 3 == 0:
                tree.delete(i * 7)
            else:
                tree.insert(rng.random(8))
        q = rng.random(8)
        assert_matches_scan(tree, q, tree.nearest(q, k=5), k=5)


class TestPoolInvalidationOnRelayout:
    """Regression: a lazy re-layout moves every file to a fresh extent;
    blocks of the *old* extents must not linger in the buffer pool as
    phantom residents (they can never be read again, so they only
    distort capacity and hit accounting)."""

    def test_relayout_evicts_old_extent_residents(self, tree, rng):
        from repro.storage.cache import BufferPool

        pool = BufferPool(capacity=64)
        tree.use_buffer_pool(pool)
        tree.nearest(rng.random(8), k=3)  # warm the pool
        old_addresses = [
            inner.extent_start + i
            for slot in ("_dir_file", "_quant_file", "_exact_file")
            for inner in [getattr(tree, slot)._file]
            for i in range(inner.n_blocks)
        ]
        assert any(pool.peek(a) for a in old_addresses)

        tree.insert(rng.random(8))
        tree._ensure_clean()  # re-layout onto fresh extents

        stale = [a for a in old_addresses if pool.peek(a)]
        assert stale == []

    def test_relayout_keeps_pool_usable(self, tree, rng):
        from repro.storage.cache import BufferPool

        pool = BufferPool(capacity=64)
        tree.use_buffer_pool(pool)
        tree.nearest(rng.random(8), k=3)
        tree.insert(rng.random(8))
        q = rng.random(8)
        first = tree.nearest(q, k=3)
        second = tree.nearest(q, k=3)
        assert np.array_equal(first.ids, second.ids)
        # The second read of the new extent hits the pool.
        assert pool.hit_rate > 0.0
