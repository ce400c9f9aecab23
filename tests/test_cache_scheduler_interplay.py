"""Interplay tests: buffer pool + scheduler + maintenance together.

The subsystems are individually tested elsewhere; these tests exercise
combinations that production use hits constantly: cached repeated
queries with the optimized scheduler, maintenance invalidating layouts
under an attached pool, and persistence of a pooled tree.
"""

import numpy as np
import pytest

from repro.core.tree import IQTree
from repro.datasets import gaussian_clusters, make_workload
from repro.experiments.harness import experiment_disk
from repro.storage.persistence import load_iqtree, save_iqtree
from tests.scenarios import assert_matches_scan


@pytest.fixture(scope="module")
def workload():
    return make_workload(
        gaussian_clusters,
        n=6_000,
        n_queries=6,
        seed=0,
        dim=8,
        n_clusters=8,
        spread=0.05,
    )


class TestCachedOptimizedQueries:
    def test_warm_optimized_queries_correct(self, workload):
        data, queries = workload
        tree = IQTree.build(data, disk=experiment_disk())
        tree.use_buffer_pool(100_000)
        cold = [tree.nearest(q, k=3) for q in queries]
        warm = [tree.nearest(q, k=3) for q in queries]
        for c, w in zip(cold, warm):
            assert np.array_equal(c.ids, w.ids)
            assert np.allclose(c.distances, w.distances)

    def test_warm_optimized_cheaper_than_cold(self, workload):
        data, queries = workload
        tree = IQTree.build(data, disk=experiment_disk())
        tree.use_buffer_pool(100_000)
        cold_total = warm_total = 0.0
        for q in queries:
            tree.disk.park()
            cold_total += tree.nearest(q).io.elapsed
        for q in queries:
            tree.disk.park()
            warm_total += tree.nearest(q).io.elapsed
        assert warm_total < cold_total * 0.5

    def test_small_pool_partial_benefit(self, workload):
        data, queries = workload
        tree = IQTree.build(data, disk=experiment_disk())
        pool = tree.use_buffer_pool(8)  # just the directory, roughly
        for q in queries:
            tree.disk.park()
            tree.nearest(q)
        assert 0.0 < pool.hit_rate < 1.0


class TestMaintenanceWithPool:
    def test_inserts_keep_answers_correct(self, workload, rng):
        data, queries = workload
        tree = IQTree.build(data, disk=experiment_disk())
        tree.use_buffer_pool(50_000)
        tree.nearest(queries[0])  # warm something
        new_points = rng.random((50, 8))
        tree.insert_many(new_points)
        q = queries[1]
        assert_matches_scan(tree, q, tree.nearest(q, k=4), k=4)

    def test_delete_then_query_with_pool(self, workload):
        data, queries = workload
        tree = IQTree.build(data, disk=experiment_disk())
        tree.use_buffer_pool(50_000)
        victim = int(tree.nearest(queries[0], k=1).ids[0])
        tree.delete(victim)
        res = tree.nearest(queries[0], k=3)
        assert victim not in res.ids


class TestReplaceBlockInvalidation:
    def _cached_file(self):
        from repro.storage.blockfile import BlockFile
        from repro.storage.cache import BufferPool, CachedBlockFile
        from repro.storage.disk import DiskModel, SimulatedDisk

        disk = SimulatedDisk(
            DiskModel(t_seek=0.01, t_xfer=0.001, block_size=64)
        )
        f = BlockFile(disk)
        for i in range(8):
            f.append_block(bytes([i]) * 4)
        f.seal()
        return CachedBlockFile(f, BufferPool(8)), disk

    def test_replace_evicts_resident_block(self):
        # Regression: replace_block used to leave the old address
        # resident in the pool, so the next read of the rewritten block
        # was charged as a hit (free) even though its bytes changed --
        # cache accounting drifting from physical reality.
        cached, disk = self._cached_file()
        cached.read_block(3)
        address = cached._file.extent_start + 3
        assert cached.pool.peek(address)
        cached.replace_block(3, b"new!")
        assert not cached.pool.peek(address)
        before = disk.stats.blocks_read
        assert cached.read_block(3) == b"new!"
        assert disk.stats.blocks_read == before + 1  # a real transfer
        assert cached.pool.misses == 2 and cached.pool.hits == 0

    def test_replace_of_nonresident_block_is_noop_on_pool(self):
        cached, _disk = self._cached_file()
        cached.read_block(1)
        cached.replace_block(5, b"x")  # 5 never admitted
        address = cached._file.extent_start + 1
        assert cached.pool.peek(address)  # unrelated residency kept


class TestPersistenceWithPool:
    def test_pooled_tree_saves_and_reloads(self, workload, tmp_path):
        data, queries = workload
        tree = IQTree.build(data, disk=experiment_disk())
        tree.use_buffer_pool(10_000)
        tree.nearest(queries[0])
        path = tmp_path / "pooled.iqt"
        save_iqtree(tree, path)
        loaded = load_iqtree(path)
        a = tree.nearest(queries[2], k=3)
        b = loaded.nearest(queries[2], k=3)
        assert np.array_equal(a.ids, b.ids)
