"""The cross-batch decoded-page cache.

The :class:`~repro.engine.page_cache.DecodedPageCache` must never serve
a stale decoded page: its per-entry CRC token has to catch in-place
``replace_block`` rewrites (the regression the PR-4 pool-invalidation
fix guarded at the *block* level), structural re-layouts must clear it
wholesale, and quarantined pages must bypass it so they are still
reported lost.
"""

import numpy as np
import pytest

from repro.core.tree import IQTree
from repro.engine.page_cache import DecodedPageCache
from repro.exceptions import SearchError
from repro.storage.cache import BufferPool
from repro.storage.disk import DiskModel, SimulatedDisk
from repro.storage.runtime_faults import ReadFaultInjector


def make_disk() -> SimulatedDisk:
    return SimulatedDisk(
        DiskModel(t_seek=0.0025, t_xfer=0.0002, block_size=2048)
    )


@pytest.fixture
def data(rng) -> np.ndarray:
    return rng.random((1500, 8)).astype(np.float32).astype(np.float64)


@pytest.fixture
def tree(data) -> IQTree:
    return IQTree.build(data, disk=make_disk(), optimize=False, fixed_bits=6)


def warm(tree, queries, k=5):
    """Run single queries so the attached cache sees every decode."""
    for q in queries:
        tree.nearest(q, k=k)


class TestBasics:
    def test_budget_must_be_positive(self):
        with pytest.raises(SearchError):
            DecodedPageCache(0)
        with pytest.raises(SearchError):
            DecodedPageCache(-1)

    def test_attach_by_budget_or_instance(self, tree):
        cache = tree.use_decoded_cache(1 << 20)
        assert isinstance(cache, DecodedPageCache)
        assert tree.decoded_cache is cache
        other = DecodedPageCache(1 << 20)
        assert tree.use_decoded_cache(other) is other
        tree.clear_decoded_cache()
        assert tree.decoded_cache is None

    def test_pages_decode_once_across_single_queries(self, tree, rng):
        tree.use_decoded_cache(16 << 20)
        query = rng.random(8)
        cold = tree.nearest(query, k=5)
        elapsed_cold = tree.disk.stats.elapsed
        warmres = tree.nearest(query, k=5)
        assert np.array_equal(cold.ids, warmres.ids)
        assert np.array_equal(cold.distances, warmres.distances)
        cache = tree.decoded_cache
        assert cache.hits > 0
        # The warm query still pays the directory scan and third-level
        # refinements, but no quantized-page transfers.
        assert tree.disk.stats.elapsed > elapsed_cold

    @pytest.mark.parametrize("scheduler", ["standard", "optimized"])
    def test_one_lookup_per_pivot(self, scheduler):
        # A cold pivot is looked up once: the standard scheduler reads
        # every page as a pivot, so misses equal pages read, and the
        # optimized one reads the rest in the pivots' windows.
        points = np.random.default_rng(0).random((3000, 8))
        tree = IQTree.build(points)
        cache = tree.use_decoded_cache(1 << 24)
        q = np.random.default_rng(1).random(8)
        result = tree.nearest(q, k=3, scheduler=scheduler)
        assert cache.hits == 0
        if scheduler == "standard":
            assert cache.misses == result.pages_read
        else:
            assert 0 < cache.misses < result.pages_read

    def test_hit_rate_and_repr(self, tree, rng):
        cache = tree.use_decoded_cache(16 << 20)
        assert cache.hit_rate == 0.0  # cold: no division error
        warm(tree, rng.random((3, 8)))
        warm(tree, rng.random((3, 8)))
        assert 0.0 < cache.hit_rate <= 1.0
        assert "DecodedPageCache" in repr(cache)
        assert len(cache) == cache.resident_pages > 0


class TestLRUBudget:
    def test_evicts_least_recently_used_first(self, tree, rng):
        big = tree.use_decoded_cache(1 << 30)
        warm(tree, rng.random((6, 8)))
        per_page = big.current_bytes / max(len(big), 1)
        assert len(big) >= 3
        # Rebuild with room for roughly two pages.
        small = tree.use_decoded_cache(int(per_page * 2.5))
        warm(tree, rng.random((6, 8)))
        assert small.evictions > 0
        assert small.current_bytes <= small.budget_bytes

    def test_oversized_entry_not_retained(self, tree, rng):
        cache = tree.use_decoded_cache(1)  # nothing fits
        warm(tree, rng.random((2, 8)))
        assert len(cache) == 0
        assert cache.current_bytes == 0
        # Rejected up front: an entry that can never fit is not
        # admitted, so nothing is ever evicted on its behalf.
        assert cache.evictions == 0

    def test_oversized_put_leaves_residents_alone(self, tree, rng):
        """Satellite regression: admitting an entry bigger than the
        whole budget used to evict *every* resident entry before the
        newcomer evicted itself -- one oversized page flushed the
        cache.  It must be rejected without touching residents."""
        cache = tree.use_decoded_cache(1 << 30)
        warm(tree, rng.random((4, 8)))
        assert len(cache) > 0
        resident_before = sorted(cache._entries)
        bytes_before = cache.current_bytes
        evictions_before = cache.evictions
        page = resident_before[0]
        big = np.zeros(cache.budget_bytes + 1, dtype=np.uint8)

        class _Fat:
            codes = big
            points = None
            ids = None

        other = next(p for p in resident_before if p != page) if len(
            resident_before
        ) > 1 else None
        cache.put(tree, page, _Fat())
        # The oversized refresh dropped the (stale) old entry for that
        # page but no resident was evicted to make room.
        assert cache.evictions == evictions_before
        assert cache.current_bytes <= bytes_before
        assert page not in cache
        if other is not None:
            assert other in cache

    def test_budget_always_respected(self, tree, rng):
        cache = tree.use_decoded_cache(64 << 10)
        warm(tree, rng.random((10, 8)))
        assert cache.current_bytes <= cache.budget_bytes


class TestInvalidation:
    def test_replace_block_invalidates_stale_decode(self, tree, rng):
        """Satellite regression: an in-place page rewrite must never be
        served from a pre-rewrite decoded copy (CRC sidecar mismatch)."""
        cache = tree.use_decoded_cache(16 << 20)
        warm(tree, rng.random((4, 8)))
        page = next(iter(cache._entries))
        entry = cache._entries[page]
        # Rewrite the backing block in place with different bytes.
        payload = bytearray(tree._quant_file.peek_block(page))
        payload[-1] ^= 0xFF
        tree._quant_file.replace_block(page, bytes(payload))
        assert tree._quant_file.block_crc(page) != entry.crc
        before = cache.invalidations
        assert cache.get(tree, page) is None
        assert cache.invalidations == before + 1
        assert page not in cache

    def test_maintenance_relayout_clears_cache(self, tree, rng):
        cache = tree.use_decoded_cache(16 << 20)
        warm(tree, rng.random((4, 8)))
        assert len(cache) > 0
        tree.insert(rng.random(8))
        tree.nearest(rng.random(8), k=3)  # triggers the re-layout
        # Page indices were reassigned wholesale; nothing stale remains
        # and the old residency was counted as invalidations.
        assert cache.invalidations > 0

    def test_results_stay_exact_after_maintenance(self, tree, rng, data):
        tree.use_decoded_cache(16 << 20)
        queries = rng.random((4, 8))
        warm(tree, queries)
        for pid in (3, 77, 400):
            tree.delete(pid)
        alive = np.setdiff1d(np.arange(len(data)), [3, 77, 400])
        for q in queries:
            res = tree.nearest(q, k=5)
            brute = alive[
                np.argsort(np.linalg.norm(data[alive] - q, axis=1))[:5]
            ]
            assert set(res.ids.tolist()) == set(brute.tolist())

    def test_explicit_invalidate_and_clear(self, tree, rng):
        cache = tree.use_decoded_cache(16 << 20)
        warm(tree, rng.random((4, 8)))
        page = next(iter(cache._entries))
        cache.invalidate(page)
        assert page not in cache
        cache.invalidate(page)  # absent: no-op, no double count
        n = len(cache)
        cache.clear()
        assert len(cache) == 0 and cache.current_bytes == 0
        assert cache.invalidations >= n


class TestCrcReadDiscipline:
    """put() must read the CRC sidecar exactly once per call.

    Satellite regression: it used to read ``block_crc`` twice -- once
    for the bounds-reuse check against the old entry and once for the
    new entry's validity token.  An in-place rewrite landing between
    the two reads paired the *old* page's derived bounds with the *new*
    page's CRC, producing a stale entry that self-validates forever.
    """

    class _Handle:
        codes = np.zeros(64)
        points = None
        ids = None

    class _MutatingQuantFile:
        """A sidecar that changes on every read -- the worst-case
        concurrent writer, compressed into one stub."""

        def __init__(self):
            self.calls = 0

        def block_crc(self, page):
            self.calls += 1
            return 1000 + self.calls

    class _Tree:
        pass

    def make(self):
        tree = self._Tree()
        tree._quant_file = self._MutatingQuantFile()
        return DecodedPageCache(1 << 20), tree

    def test_put_reads_sidecar_once(self):
        cache, tree = self.make()
        bounds = (np.zeros((4, 8)), np.ones((4, 8)))
        cache.put(tree, 3, self._Handle(), bounds=bounds)
        assert tree._quant_file.calls == 1
        # A refresh exercises the bounds-reuse branch as well; it must
        # still be one read, shared by the check and the token.
        cache.put(tree, 3, self._Handle())
        assert tree._quant_file.calls == 2

    def test_refresh_token_matches_compared_value(self):
        cache, tree = self.make()
        bounds = (np.zeros((4, 8)), np.ones((4, 8)))
        cache.put(tree, 3, self._Handle(), bounds=bounds)  # crc 1001
        cache.put(tree, 3, self._Handle())  # single read: crc 1002
        entry = cache._entries[3]
        assert entry.crc == 1002
        # 1002 != 1001, so the old bounds must NOT have been carried
        # over -- the content changed under the refresh.
        assert entry.bounds is None


class TestQuarantineInterplay:
    def test_quarantined_page_not_served_from_cache(self, data, rng):
        """A page that decoded fine before its block went bad must be
        reported lost, not silently served from the decoded cache."""
        tree = IQTree.build(
            data, disk=make_disk(), optimize=False, fixed_bits=6
        )
        tree.use_decoded_cache(16 << 20)
        query = rng.random(8)
        tree.nearest(query, k=5)  # decode everything the query needs
        # Find a quantized page the query touched and poison it.
        observer = ReadFaultInjector()
        tree.disk.install_fault_injector(observer)
        tree.nearest(query, k=5)
        tree.disk.clear_fault_injector()
        start = tree._quant_file.extent_start
        n_pages = tree.n_pages
        touched = [
            a
            for a in observer.attempts_seen
            if start <= a < start + n_pages
        ]
        if not touched:  # the whole quantized level was cache-resident
            touched = [start]
        inj = ReadFaultInjector()
        inj.fail_always(touched[0])
        tree.disk.install_fault_injector(inj)
        ctx = tree.use_fault_tolerance()
        ctx.quarantine.add(touched[0])
        res = tree.nearest(query, k=5)
        assert res.degraded
        assert any(
            lost.page == touched[0] - start for lost in res.lost_pages
        )
