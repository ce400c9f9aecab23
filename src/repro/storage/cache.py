"""An LRU buffer pool over the simulated disk.

The paper measures cold queries (every page read hits the disk), but
any real deployment keeps a buffer pool; Section 2's reference [19]
(Seeger et al.) is exactly about reading page sets under a limited
buffer.  :class:`BufferPool` adds that layer: block reads that hit the
pool cost nothing, misses are charged normally and inserted with LRU
replacement.

The pool works at the disk-address level, so one pool naturally spans
all three IQ-tree files (hot directory blocks stay resident while cold
data pages cycle), and the same pool object can be shared by several
indexes on one disk.

The pool is thread-safe: one lock guards residency and the counters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.exceptions import StorageError
from repro.obs.instruments import (
    POOL_EVICTIONS,
    POOL_HITS,
    POOL_MISSES,
    REGISTRY,
)
from repro.storage.blockfile import BlockFile

__all__ = ["BufferPool", "CachedBlockFile"]


class BufferPool:
    """A fixed-capacity LRU set of resident addresses.

    Parameters
    ----------
    capacity:
        Maximum number of blocks held (0 disables caching).
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise StorageError("pool capacity must be non-negative")
        self.capacity = int(capacity)
        self._resident: OrderedDict[int, None] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def __getstate__(self) -> dict:
        # Locks cannot be copied/pickled; the clone gets a fresh one.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def lookup(self, address: int) -> bool:
        """True (and refresh recency) if ``address`` is resident.

        This is the *charged* residency check: it counts toward
        :attr:`hit_rate` and refreshes LRU recency.  Planning passes
        that only need to know residency must use :meth:`peek`.
        """
        with self._lock:
            hit = address in self._resident
            if hit:
                self._resident.move_to_end(address)
                self.hits += 1
                if REGISTRY.enabled:
                    POOL_HITS.inc()
            else:
                self.misses += 1
                if REGISTRY.enabled:
                    POOL_MISSES.inc()
        return hit

    def peek(self, address: int) -> bool:
        """Side-effect-free residency test.

        Unlike :meth:`lookup`, peeking mutates neither the hit/miss
        counters nor the LRU recency order, so fetch *planning* can
        probe the pool without skewing statistics or eviction order.
        """
        with self._lock:
            return address in self._resident

    def record(self, hits: int = 0, misses: int = 0) -> None:
        """Charge pre-planned lookups to the counters.

        Batched readers plan with :meth:`peek` and then charge the
        final service decision here: a block counts as a hit only when
        it was served from the pool without a disk transfer.
        """
        if hits < 0 or misses < 0:
            raise StorageError("lookup counts must be non-negative")
        with self._lock:
            self.hits += hits
            self.misses += misses
            if REGISTRY.enabled:
                if hits:
                    POOL_HITS.inc(hits)
                if misses:
                    POOL_MISSES.inc(misses)

    def admit(self, address: int) -> None:
        """Insert ``address``, evicting the least recently used block."""
        if self.capacity == 0:
            return
        with self._lock:
            if address in self._resident:
                self._resident.move_to_end(address)
                return
            if len(self._resident) >= self.capacity:
                self._resident.popitem(last=False)
                if REGISTRY.enabled:
                    POOL_EVICTIONS.inc()
            self._resident[address] = None

    def invalidate(self, address: int) -> None:
        """Drop one address (used when a block is rewritten)."""
        with self._lock:
            self._resident.pop(address, None)

    def clear(self) -> None:
        """Drop everything (counters are kept)."""
        with self._lock:
            self._resident.clear()

    @property
    def resident_count(self) -> int:
        """Number of blocks currently held."""
        return len(self._resident)

    @property
    def hit_rate(self) -> float:
        """Fraction of charged lookups served from the pool.

        Defined as ``hits / (hits + misses)``.  When no lookups have
        been charged yet the rate is **0.0** by definition (a cold pool
        has served nothing), never a zero-division error -- callers may
        read it at any time, including on a freshly created pool.
        """
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"BufferPool(capacity={self.capacity}, "
            f"resident={self.resident_count}, "
            f"hit_rate={self.hit_rate:.2f})"
        )


class CachedBlockFile:
    """A :class:`BlockFile` facade that consults a buffer pool.

    Reads of resident blocks return the payload without touching the
    simulated disk; misses are delegated (and charged) block-run-wise.
    Only the read API used by the search algorithms is wrapped; writes
    and construction go to the underlying file directly.
    """

    def __init__(self, file: BlockFile, pool: BufferPool):
        self._file = file
        self.pool = pool

    # ------------------------------------------------------------------
    # Cached reads
    # ------------------------------------------------------------------
    def read_block(self, index: int) -> bytes:
        """Read one block, free on a pool hit."""
        address = self._file.extent_start + index
        if self.pool.lookup(address):
            return self._file.peek_block(index)
        payload = self._file.read_block(index)
        self.pool.admit(address)
        return payload

    def read_run(self, start: int, count: int, wanted: int = -1) -> list[bytes]:
        """Read a run; fully-resident runs are free, otherwise the
        uncovered span is fetched in one transfer (the pool cannot
        split a sequential transfer without paying extra seeks).

        Residency is *planned* with side-effect-free peeks; the pool is
        charged once per requested block afterwards: blocks inside the
        fetched span are transferred from disk (misses, even if they
        happened to be resident), blocks outside it are served from the
        pool (hits).
        """
        base = self._file.extent_start
        indices = range(start, start + count)
        missing = [i for i in indices if not self.pool.peek(base + i)]
        if missing:
            first, last = missing[0], missing[-1]
            fetch_count = last - first + 1
            fetch_wanted = len(missing) if wanted >= 0 else -1
            # Transfer before charging: if the read faults, the ledger
            # must not claim misses (or hits) that were never served.
            self._file.read_run(first, fetch_count, wanted=fetch_wanted)
            self.pool.record(misses=fetch_count)
            for i in range(first, last + 1):
                self.pool.admit(base + i)
            for i in indices:
                if i < first or i > last:  # resident by construction
                    self.pool.lookup(base + i)
        else:
            for i in indices:
                self.pool.lookup(base + i)
        return [self._file.peek_block(i) for i in indices]

    def scan(self) -> list[bytes]:
        """Full sequential scan (cached like any other run)."""
        if self._file.n_blocks == 0:
            return []
        return self.read_run(0, self._file.n_blocks)

    def read_batched(self, indices, avoid=frozenset()) -> dict[int, bytes]:
        """Optimal batched fetch of the non-resident subset.

        Planning peeks the pool without side effects; each requested
        block is then charged exactly once (hit when served from the
        pool, miss when part of the batched disk fetch).  The plan is
        executed run by run, charging and admitting only after each
        transfer succeeds: if one run faults mid-plan, earlier runs are
        fully accounted (they did happen), the failing and later runs
        leave no trace, and pool hits are only charged once every
        transfer has completed -- the ledger never claims service that
        was not rendered.

        ``avoid`` lists file-local indices (quarantined pages) excluded
        from the request and from gap over-reads.
        """
        from repro.storage.scheduler import plan_batched_fetch

        base = self._file.extent_start
        avoid = frozenset(avoid)
        indices = sorted(set(indices) - avoid)
        missing = [i for i in indices if not self.pool.peek(base + i)]
        if missing:
            missing_set = set(missing)
            window = self._file.disk.model.overread_window
            for start, count, wanted in plan_batched_fetch(
                missing, window, forbidden=avoid
            ):
                self._file.read_run(start, count, wanted=wanted)
                self.pool.record(misses=wanted)
                # Admit every transferred block, gap over-reads
                # included -- they are in memory either way, and
                # read_run admits its whole span, so admitting only the
                # requested subset here would make residency (and every
                # later hit/miss) depend on which read path fetched the
                # block.  Only the ledger charge stays per-request
                # (``wanted``).  Quarantined blocks are never admitted.
                for i in range(start, start + count):
                    if i not in avoid:
                        self.pool.admit(base + i)
            for i in indices:
                if i not in missing_set:
                    self.pool.lookup(base + i)
        else:
            for i in indices:
                self.pool.lookup(base + i)
        return {i: self._file.peek_block(i) for i in indices}

    # ------------------------------------------------------------------
    # Writes that must keep the pool coherent
    # ------------------------------------------------------------------
    def replace_block(self, index: int, payload: bytes) -> None:
        """Overwrite a block and invalidate its pool residency.

        Without the invalidation a later timed read charges a pool
        "hit" -- zero simulated I/O -- for bytes that changed underneath
        (dynamic maintenance rewrites pages in place), as if the stale
        cached copy were still servable.  The rewritten block must pay
        a real transfer on its next read.
        """
        self._file.replace_block(index, payload)
        if self._file.sealed:
            self.pool.invalidate(self._file.extent_start + index)

    # ------------------------------------------------------------------
    # Pass-through
    # ------------------------------------------------------------------
    def __getattr__(self, name):
        # ``_file`` may be absent on a bare instance (pickle/copy
        # protocols probe attributes before __init__ runs); falling
        # through to ``self._file`` would recurse forever.
        try:
            file = object.__getattribute__(self, "_file")
        except AttributeError:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            ) from None
        return getattr(file, name)

    def __len__(self) -> int:
        return len(self._file)

    def __repr__(self) -> str:
        return f"CachedBlockFile({self._file!r}, {self.pool!r})"
