"""One decoded-page store: entries, pins, byte accounting and the gauge.

A batch keeps one entry per page it loaded -- the store's own entry
object when the tree has a store, otherwise one it builds for itself --
and each entry carries the page's cell boxes in the one layout the
kernels read.  These tests pin what that design promises:

* a store smaller than one batch evicts pages the batch still holds,
  and the batch answers, charges and reports exactly what a store-less
  batch does;
* the store's resident bytes are the bytes of every array its entries
  hold, column block and page box included, and a warm batch derives no
  cell boxes at all;
* a page a single query read but never needed is stored undecoded: it
  counts its payload, is charged against the budget what it holds once
  decoded, and is decoded in place by whichever query needs it;
* the resident-bytes gauge is the sum over every attached store, so a
  sharded router's per-shard stores add up.
"""

from __future__ import annotations

import contextlib
import sys
import threading
from unittest import mock

import numpy as np
import pytest

from repro.core.tree import IQTree
from repro.engine import QueryEngine
from repro.engine.sharding import ShardRouter
from repro.geometry.mbr import mindist_to_boxes
from repro.obs.instruments import DECODED_CACHE_BYTES, REGISTRY
from repro.quantization.codecs import PQView
from repro.quantization.grid import GridQuantizer
from repro.storage import serializer
from repro.storage.disk import DiskModel, SimulatedDisk
from repro.storage.runtime_faults import ReadFaultInjector, RetryPolicy

DIM = 8


def make_disk(block_size: int = 1024) -> SimulatedDisk:
    return SimulatedDisk(
        DiskModel(t_seek=0.0025, t_xfer=0.0002, block_size=block_size)
    )


def build(codec: str = "grid", n: int = 3000) -> IQTree:
    """Clustered points beside uniform ones: exact pages next to
    quantized ones of ``codec``; the same tree on every call."""
    rng = np.random.default_rng(4)
    centers = rng.random((6, DIM))
    clustered = centers[rng.integers(0, 6, n)] + 0.02 * rng.standard_normal(
        (n, DIM)
    )
    data = np.vstack([clustered, rng.random((n // 2, DIM))])
    return IQTree.build(data, disk=make_disk(2048), codec=codec)


def quantized_grid_tree() -> IQTree:
    data = np.random.default_rng(6).random((2500, DIM))
    return IQTree.build(data, disk=make_disk(), optimize=False, fixed_bits=5)


@pytest.fixture
def live_registry():
    REGISTRY.reset()
    REGISTRY.enable()
    try:
        yield REGISTRY
    finally:
        REGISTRY.disable()
        REGISTRY.reset()


def answers(batch) -> list:
    return [
        (
            r.ids.tolist(),
            r.distances.tobytes(),
            None if r.certain is None else r.certain.tolist(),
            r.intervals,
            r.lost_pages,
            r.degraded,
        )
        for r in batch
    ]


def expected_bytes(entry) -> int:
    """Bytes of every array ``entry`` holds, counted from its parts."""
    handle = entry.handle
    arrays = [handle.codes, handle.points, handle.ids]
    if handle.aux is not None:
        arrays += [handle.aux.box_lo, handle.aux.box_hi]
    if entry.bounds is not None:
        arrays += list(entry.bounds)
    return sum(a.nbytes for a in arrays if a is not None)


def nearest_page(tree, query) -> int:
    return int(
        np.argmin(
            mindist_to_boxes(query, tree._lowers, tree._uppers, tree.metric)
        )
    )


# ----------------------------------------------------------------------
# A store smaller than one batch
# ----------------------------------------------------------------------
class TestStoreSmallerThanBatch:
    def fault(self, tree, kind, queries):
        if kind == "none":
            return
        if kind == "quantized":
            start = tree._quant_file.extent_start
            dead = [start + nearest_page(tree, queries[0])]
        else:  # every record: each refinement becomes an interval
            start = tree._exact_file.extent_start
            dead = range(start, start + tree._exact_file.n_blocks)
        injector = ReadFaultInjector()
        for address in dead:
            injector.fail_always(address)
        tree.disk.install_fault_injector(injector)
        tree.use_fault_tolerance(RetryPolicy(max_attempts=2))

    def page_bytes(self, queries) -> int:
        """Bytes of the largest entry the batch loads, boxes included."""
        tree = quantized_grid_tree()
        store = tree.use_decoded_cache(1 << 30)
        QueryEngine(tree).knn_batch(queries, k=5)
        return max(e.nbytes for e in store._entries.values())

    @pytest.mark.parametrize("kind", ["none", "quantized", "exact"])
    def test_cold_batch_matches_storeless_batch(self, kind):
        queries = np.random.default_rng(8).random((12, DIM))
        budget = 2 * self.page_bytes(queries)
        plain, stored = quantized_grid_tree(), quantized_grid_tree()
        for tree in (plain, stored):
            self.fault(tree, kind, queries)
        store = stored.use_decoded_cache(budget)
        want = QueryEngine(plain).knn_batch(queries, k=5)
        got = QueryEngine(stored).knn_batch(queries, k=5)
        assert got.stats.pages_read > 2
        assert store.evictions > 0  # pages left the store mid-batch
        assert store.current_bytes <= store.budget_bytes
        assert answers(got) == answers(want)
        assert got.stats == want.stats
        if kind != "none":
            assert any(r.degraded for r in got)

    def test_warm_hits_evicted_mid_batch_keep_their_answers(self):
        queries = np.random.default_rng(9).random((12, DIM))
        budget = 2 * self.page_bytes(queries)
        plain, stored = quantized_grid_tree(), quantized_grid_tree()
        store = stored.use_decoded_cache(budget)
        engine = QueryEngine(stored)
        # Leave the pages of the last queries resident, then run a batch
        # whose fresh pages evict them while the batch holds them.
        engine.knn_batch(queries[-2:], k=5)
        resident = set(store._entries)
        evictions = store.evictions
        got = engine.knn_batch(queries, k=5)
        assert got.stats.decoded_pages_reused > 0
        assert store.evictions > evictions
        assert not resident <= set(store._entries)
        assert store.current_bytes <= store.budget_bytes
        want = QueryEngine(plain).knn_batch(queries, k=5)
        assert answers(got) == answers(want)


@contextlib.contextmanager
def spying_cell_bounds():
    """Record every ``cell_bounds`` call of the grid and PQ codecs."""
    calls: list[str] = []

    def spying(owner):
        real = owner.cell_bounds

        def spy(self, codes):
            calls.append(owner.__name__)
            return real(self, codes)

        return mock.patch.object(owner, "cell_bounds", spy)

    with spying(GridQuantizer), spying(PQView):
        yield calls


# ----------------------------------------------------------------------
# Byte accounting and one derivation per page
# ----------------------------------------------------------------------
class TestAccountingAndDerivation:
    @pytest.mark.parametrize("codec", ["grid", "pq"])
    def test_bytes_and_single_derivation(self, codec):
        tree = build(codec)
        store = tree.use_decoded_cache(1 << 30)
        rng = np.random.default_rng(12)
        queries = tree.points[rng.integers(0, tree.n_points, 10)] + 0.01
        engine = QueryEngine(tree)
        # Single queries publish entries without boxes; batches derive
        # the boxes of those and of their own fresh pages.
        for q in queries[:3]:
            tree.nearest(q, k=4)
        with spying_cell_bounds() as calls:
            engine.knn_batch(queries[:6], k=4)
        assert calls  # the spy sees derivations
        tree.range_query(queries[6], 0.05)
        engine.knn_batch(queries, k=4)
        kinds = {
            "exact" if e.handle.points is not None
            else "pq" if e.handle.aux is not None
            else "grid"
            for e in store._entries.values()
        }
        assert kinds == {"exact", codec}
        assert store.current_bytes == sum(
            expected_bytes(e) for e in store._entries.values()
        )
        for page, entry in store._entries.items():
            assert entry.nbytes == expected_bytes(entry)
            if entry.bounds is not None:
                columns, box = entry.bounds
                n = tree._part_ids[page].size
                assert columns.shape == (DIM, 2, n)
                assert box.shape == (2, DIM)
                # The abandoning pass reads dimension rows of these
                # blocks in place (or of the block a frozen stack joins
                # them into); a strided block makes every read a gather.
                assert columns.flags.c_contiguous

        with spying_cell_bounds() as calls:
            warm = engine.knn_batch(queries, k=4)
        assert warm.stats.pages_read == 0
        assert warm.stats.decoded_pages_reused > 0
        assert calls == []

    def test_storeless_batch_builds_the_same_boxes(self):
        """The page table of a store-less batch equals the one a warm
        store serves: the same entries, built privately."""
        from repro.engine.decode import PageDecodeCache

        plain, stored = quantized_grid_tree(), quantized_grid_tree()
        stored.use_decoded_cache(1 << 30)
        pages = np.arange(plain.n_pages)
        tables = []
        for tree in (plain, stored, stored):
            cache = PageDecodeCache(tree)
            cache.load(pages)
            tables.append(cache.page_table())
        cold, warm = tables[0].quant, tables[2].quant
        assert len(warm.blocks) == len(cold.blocks) == plain.n_pages
        for a, b in zip(warm.blocks, cold.blocks):
            assert a.flags.c_contiguous and b.flags.c_contiguous
            assert a.tobytes() == b.tobytes()
        assert warm.boxes.tobytes() == cold.boxes.tobytes()
        assert [a.tobytes() for a in warm.rows] == [
            a.tobytes() for a in cold.rows
        ]


# ----------------------------------------------------------------------
# Undecoded entries: pages read by single queries, decoded on demand
# ----------------------------------------------------------------------
def held_bytes(entry) -> int:
    """What ``entry`` holds: its payload until it is decoded."""
    return len(entry.payload) if entry.handle is None else (
        expected_bytes(entry)
    )


def undecoded_pages(store) -> list[int]:
    return [p for p, e in store._entries.items() if e.handle is None]


class TestUndecodedEntries:
    @pytest.mark.parametrize("codec", ["grid", "pq"])
    def test_accounting_after_single_queries_and_batches(self, codec):
        tree = build(codec)
        store = tree.use_decoded_cache(1 << 30)
        rng = np.random.default_rng(13)
        queries = tree.points[rng.integers(0, tree.n_points, 8)] + 0.01
        engine = QueryEngine(tree)
        for q in queries[:4]:
            tree.nearest(q, k=4)
        engine.knn_batch(queries[4:6], k=4)
        tree.nearest(queries[6], k=4, scheduler="standard")
        tree.range_query(queries[7], 0.05)
        assert undecoded_pages(store)
        assert len(undecoded_pages(store)) < len(store)
        assert store.current_bytes == sum(
            held_bytes(e) for e in store._entries.values()
        )
        for page, entry in store._entries.items():
            assert entry.nbytes == held_bytes(entry)
            payload = tree._quant_file.peek_block(page)
            assert entry.charge == (
                serializer.decoded_page_nbytes(payload, DIM)
                + sum(a.nbytes for a in entry.bounds or ())
            )
        assert store.charged_bytes == sum(
            e.charge for e in store._entries.values()
        )
        assert store.current_bytes < store.charged_bytes

    def test_decoding_in_place_recounts_and_keeps_lru_order(self):
        tree = build("pq")
        store = tree.use_decoded_cache(1 << 30)
        tree.nearest(tree.points[0] + 0.01, k=4)
        page = undecoded_pages(store)[0]
        entry = store._entries[page]
        order, before = list(store._entries), store.current_bytes
        evictions, charged = store.evictions, store.charged_bytes
        handle = tree._decode_entry(page, entry)
        assert entry.handle is handle and entry.payload is None
        assert entry.nbytes == expected_bytes(entry) == entry.charge
        assert store.current_bytes == before + entry.nbytes - len(
            tree._quant_file.peek_block(page)
        )
        assert store.charged_bytes == charged
        assert store.evictions == evictions
        assert list(store._entries) == order
        # A second decode is a no-op.
        assert tree._decode_entry(page, entry) is handle
        assert store.current_bytes == sum(
            held_bytes(e) for e in store._entries.values()
        )

    @pytest.mark.parametrize("codec", ["grid", "pq"])
    def test_batch_hitting_undecoded_entries_matches_storeless(self, codec):
        plain, stored = build(codec), build(codec)
        store = stored.use_decoded_cache(1 << 30)
        rng = np.random.default_rng(14)
        queries = stored.points[rng.integers(0, stored.n_points, 6)] + 0.01
        for q in queries:
            stored.nearest(q, k=4)
        undecoded = set(undecoded_pages(store))
        got = QueryEngine(stored).knn_batch(queries, k=4)
        want = QueryEngine(plain).knn_batch(queries, k=4)
        assert answers(got) == answers(want)
        # The batch decoded stored payloads in place.
        assert got.stats.decoded_pages_reused > 0
        assert undecoded - set(undecoded_pages(store))

    def test_threads_decoding_shared_entries(self):
        """Single queries on threads share one store: each undecoded
        entry is decoded in place once, under races, and the byte
        counts stay the sums of what the entries hold."""
        tree = build("pq")
        rng = np.random.default_rng(15)
        queries = tree.points[rng.integers(0, tree.n_points, 6)] + 0.01
        want = [tree.nearest(q, k=4).ids.tolist() for q in queries]
        store = tree.use_decoded_cache(1 << 30)
        results: list = []
        errors: list = []

        def worker(offset):
            try:
                for i in range(12):
                    j = (i + offset) % len(queries)
                    got = tree.nearest(queries[j], k=4).ids.tolist()
                    results.append(got == want[j])
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 48 and all(results)
        assert store.current_bytes == sum(
            held_bytes(e) for e in store._entries.values()
        )
        assert store.charged_bytes == sum(
            e.charge for e in store._entries.values()
        )

    @pytest.mark.parametrize("codec", ["grid", "pq"])
    def test_decoded_size_read_from_the_header(self, codec):
        from repro.core.tree import decode_page
        from repro.engine.page_cache import PageEntry, _entry_bytes

        tree = build(codec)
        kinds = set()
        for page in range(tree.n_pages):
            payload = tree._quant_file.peek_block(page)
            handle = decode_page(page, payload, DIM)
            kinds.add((handle.points is None, handle.aux is None))
            assert serializer.decoded_page_nbytes(payload, DIM) == (
                _entry_bytes(PageEntry(handle))
            )
        assert len(kinds) == 2  # exact pages and quantized ones


# ----------------------------------------------------------------------
# The resident-bytes gauge
# ----------------------------------------------------------------------
class TestGaugeSumsAttachedStores:
    def test_router_gauge_is_the_sum_over_shards(self, live_registry):
        tree = IQTree.build(np.random.default_rng(0).random((4000, 8)))
        router = ShardRouter(tree, 4, decode_cache=1 << 24)
        try:
            # Stores of other trees still alive count too; the router's
            # own stores start empty.
            base = DECODED_CACHE_BYTES.value()
            queries = np.random.default_rng(1).random((32, 8))
            router.knn_batch(queries, k=5)
            stores = [shard.tree.decoded_cache for shard in router.shards]
            held = [store.current_bytes for store in stores]
            assert sum(v > 0 for v in held) > 1
            assert DECODED_CACHE_BYTES.value() - base == sum(held)
            # Detaching one store takes exactly its bytes out.
            router.shards[0].tree.clear_decoded_cache()
            assert DECODED_CACHE_BYTES.value() - base == sum(held[1:])
        finally:
            router.close()
