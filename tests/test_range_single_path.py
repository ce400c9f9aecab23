"""One range-query path and one third-level record store.

A single ``tree.range_query`` runs the engine's range pipeline on a
one-query batch, so it must agree with ``QueryEngine.range_batch`` on
an identically built twin tree down to the distance bytes and the I/O
ledger.  The best-first searches (``ExactStore.refine``) and the batch
engine (``ExactStore.fetch_all``) share one record store; its two
methods must decode the same records from one block cache.
"""

import numpy as np
import pytest

from repro.core.tree import ExactStore, IQTree
from repro.engine import QueryEngine
from repro.obs.instruments import (
    BATCH_QUERIES,
    BATCHES,
    QUERY_SECONDS,
    REGISTRY,
)
from repro.storage.disk import DiskModel, SimulatedDisk

RADII = (0.0, 0.15, 0.3, 0.5)
QUANTIZED = dict(optimize=False, fixed_bits=4)

BUILDS = {
    "grid": ("uniform", dict(optimize=False, fixed_bits=5)),
    "pq": ("clustered", dict(codec="pq")),
    "exact": ("uniform", dict(optimize=False)),
}


def build(points, options, cache: bool) -> IQTree:
    disk = SimulatedDisk(
        DiskModel(t_seek=0.010, t_xfer=0.001, block_size=512)
    )
    tree = IQTree.build(points, disk=disk, **options)
    if cache:
        tree.use_decoded_cache(1 << 22)
    tree.disk.park()
    return tree


@pytest.fixture
def live_registry():
    REGISTRY.reset()
    REGISTRY.enable()
    try:
        yield REGISTRY
    finally:
        REGISTRY.disable()
        REGISTRY.reset()


class TestRangeQueryIsOneQueryBatch:
    @pytest.mark.parametrize("cache", [False, True])
    @pytest.mark.parametrize("kind", sorted(BUILDS))
    def test_matches_range_batch_on_twin(
        self, kind, cache, uniform_points, clustered_points, rng
    ):
        source, options = BUILDS[kind]
        points = uniform_points if source == "uniform" else clustered_points
        tree = build(points, options, cache)
        twin = build(points, options, cache)
        queries = points[rng.choice(points.shape[0], 6, replace=False)]
        refinements = 0
        with QueryEngine(twin) as engine:
            for query in queries:
                for radius in RADII:
                    single = tree.range_query(query, radius)
                    batch = engine.range_batch(query[None], radius)
                    got = batch[0]
                    assert np.array_equal(single.ids, got.ids)
                    assert (
                        single.distances.tobytes() == got.distances.tobytes()
                    )
                    assert single.certain is None and got.certain is None
                    assert single.intervals == got.intervals
                    assert single.lost_pages == got.lost_pages
                    assert single.io == batch.stats.io
                    assert single.refinements == batch.stats.refinements
                    assert single.pages_read == (
                        batch.stats.pages_read
                        + batch.stats.decoded_pages_reused
                    )
                    refinements += single.refinements
        if kind == "exact":
            assert refinements == 0
        else:
            assert refinements > 0

    def test_single_query_records_no_batch(self, live_registry, rng):
        tree = build(rng.random((600, 6)), QUANTIZED, cache=False)
        result = tree.range_query(np.full(6, 0.5), 0.3)
        assert result.refinements > 0
        assert BATCHES.value() == 0
        assert BATCH_QUERIES.value() == 0
        assert QUERY_SECONDS.count() == 1

    def test_range_batch_still_records_its_batch(self, live_registry, rng):
        tree = build(rng.random((600, 6)), QUANTIZED, cache=False)
        tree.query_engine().range_batch(rng.random((3, 6)), 0.3)
        assert BATCHES.value() == 1
        assert BATCH_QUERIES.value() == 3
        assert QUERY_SECONDS.count() == 3


@pytest.fixture
def quantized_tree(uniform_points) -> IQTree:
    return build(uniform_points[:800], QUANTIZED, cache=False)


def refined_page(tree: IQTree, min_points: int = 2) -> int:
    for page in range(tree.n_pages):
        if tree._bits[page] < 32 and tree._counts[page] >= min_points:
            return page
    raise AssertionError("tree has no multi-point quantized page")


class TestExactStore:
    def test_refine_and_fetch_all_agree_on_every_record(
        self, quantized_tree
    ):
        tree = quantized_tree
        page = refined_page(tree)
        keys = [(page, local) for local in range(int(tree._counts[page]))]
        batched = ExactStore(tree).fetch_all(keys)
        single = ExactStore(tree)
        query = np.full(tree.dim, 0.5)
        assert sorted(batched) == keys
        for key in keys:
            dist, pid = single.refine(query, *key)
            coords = batched[key][0]
            assert batched[key][1] == pid
            assert (
                np.float64(dist).tobytes()
                == np.float64(tree.metric.distance(query, coords)).tobytes()
            )
            assert np.array_equal(coords, tree.points[pid])

    def test_two_records_in_one_block_cost_one_block(self, quantized_tree):
        tree = quantized_tree
        page = refined_page(tree)
        record = 4 * tree.dim + 4
        assert 2 * record <= tree.disk.model.block_size
        store = ExactStore(tree)
        before = tree.disk.stats.blocks_read
        found = store.fetch_all([(page, 0), (page, 1), (page, 0)])
        assert tree.disk.stats.blocks_read - before == 1
        assert len(found) == 2 and store.refinements == 2

    def test_refine_reuses_blocks_of_fetch_all(self, quantized_tree):
        tree = quantized_tree
        page = refined_page(tree)
        store = ExactStore(tree)
        store.fetch_all([(page, 0)])
        before = tree.disk.stats.blocks_read
        store.refine(np.full(tree.dim, 0.5), page, 1)
        assert tree.disk.stats.blocks_read == before
        assert store.refinements == 2

    def test_quarantined_block_keys_land_in_failed(self, quantized_tree):
        tree = quantized_tree
        page = refined_page(tree)
        other = next(
            p for p in range(page + 1, tree.n_pages) if tree._bits[p] < 32
        )
        ctx = tree.use_fault_tolerance()
        ctx.quarantine.add(
            tree._exact_file.extent_start + int(tree._exact_firsts[page])
        )
        store = ExactStore(tree)
        found = store.fetch_all([(page, 0), (page, 1), (other, 0)])
        assert store.failed == {(page, 0), (page, 1)}
        assert list(found) == [(other, 0)]
        assert store.refinements == 1
