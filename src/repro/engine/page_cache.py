"""The decoded-page store: one entry per quantized page, for every query.

A :class:`DecodedPageCache` attached to a tree
(``tree.use_decoded_cache(budget)``) keeps one :class:`PageEntry` per
page -- the decoded handle and, once a batch derived them, the cell
boxes in the one layout the batch kernels read -- under an LRU policy
bounded by a byte budget.  A page touched by consecutive batches and
single queries pays the fetch, the bit-unpack and the box derivation
once while it stays resident.  A batch holds the entries it loaded by
reference (:class:`~repro.engine.decode.PageDecodeCache`), which pins
them: a page evicted mid-batch stays usable by that batch.

A single-query search stores the pages it reads *undecoded*, at read
time: the entry holds the payload until a query needs the page's rows
and decodes it in place (:meth:`~repro.core.tree.IQTree._decode_entry`).
``current_bytes`` counts what the entries hold -- an undecoded entry
its payload -- while the budget is charged what each entry holds once
decoded, read from the payload header.  Decoding in place therefore
never evicts, and which pages stay resident does not depend on which
of them a query happened to decode.

Validity is by content, not by hope: every entry records the CRC32
sidecar value of its backing block at decode time, and a lookup only
hits when the sidecar still matches.  That makes the cache immune to
every write path -- ``replace_block`` during dynamic maintenance changes
the sidecar, so the stale decoded copy is dropped on its next lookup
(and counted as an invalidation).  Structural rewrites
(:meth:`~repro.core.tree.IQTree._layout` after inserts/splits/deletes)
clear the cache wholesale, because page indices themselves are
reassigned.  Quarantined pages are bypassed by the one lookup,
:meth:`~repro.core.tree.IQTree._cached_entry` (a poisoned block must
surface as a lost page, never be silently served from a pre-fault
decode).  The resident-bytes gauge sums every store attached to a tree.

Thread safety: all mutation happens under one re-entrant lock.  The
batch engine only touches the cache from its coordinator thread, but
single-query callers may share a tree across threads.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

from repro.exceptions import SearchError
from repro.obs.instruments import (
    DECODED_CACHE_BYTES,
    DECODED_CACHE_EVICTIONS,
    DECODED_CACHE_HITS,
    DECODED_CACHE_INVALIDATIONS,
    DECODED_CACHE_MISSES,
    REGISTRY,
)
from repro.storage.serializer import decoded_page_nbytes

__all__ = ["DecodedPageCache", "PageEntry"]


@dataclass(eq=False)
class PageEntry:
    """One page: its decoded handle -- or, until a query decodes it, the
    ``payload`` it was read as (``handle`` is None) -- and, once derived,
    its cell boxes ``bounds``, the ``(columns, box)`` pair of
    :func:`~repro.engine.kernels.cell_boxes`.  ``crc``, ``nbytes`` (the
    bytes the entry holds) and ``charge`` (the bytes it holds decoded)
    are the store's; an entry outside a store leaves them at zero."""

    handle: object  # PageHandle (avoid a core->engine import cycle)
    bounds: tuple | None = None
    crc: int = 0
    nbytes: int = 0
    payload: bytes | None = None
    charge: int = 0


def _entry_bytes(entry: PageEntry) -> int:
    handle = entry.handle
    if handle is None:
        return len(entry.payload)
    arrays = (handle.codes, handle.points, handle.ids, *(entry.bounds or ()))
    total = sum(arr.nbytes for arr in arrays if arr is not None)
    aux = getattr(handle, "aux", None)
    if aux is not None:
        total += aux.nbytes
    return total


#: stores attached to a live tree; the resident-bytes gauge sums them
_ATTACHED: "weakref.WeakSet[DecodedPageCache]" = weakref.WeakSet()
_GAUGE_LOCK = threading.Lock()


def _publish_bytes() -> None:
    if REGISTRY.enabled:
        with _GAUGE_LOCK:
            DECODED_CACHE_BYTES.set(
                sum(store.current_bytes for store in list(_ATTACHED))
            )


class DecodedPageCache:
    """LRU store of decoded quantized pages, bounded by a byte budget.

    Parameters
    ----------
    budget_bytes:
        Maximum bytes of decoded matrices plus cell boxes the resident
        entries hold once decoded (an undecoded entry is charged its
        decoded size).  Must be positive; when an insert pushes the
        charge over budget, least-recently-used entries are evicted
        until it fits (an entry larger than the whole budget is simply
        not kept).

    Keys are file-local page indices of the tree's quantized level; the
    content CRC recorded per entry makes a key self-validating, so a
    page rewritten in place can never be served stale.
    """

    def __init__(self, budget_bytes: int):
        if budget_bytes <= 0:
            raise SearchError("decoded-page cache budget must be positive")
        self.budget_bytes = int(budget_bytes)
        self._entries: OrderedDict[int, PageEntry] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        #: bytes the resident entries hold (the gauge)
        self.current_bytes = 0
        #: bytes the resident entries hold once decoded (the budget)
        self.charged_bytes = 0

    def attach(self) -> None:
        """Count this store in the resident-bytes gauge (a tree uses it)."""
        _ATTACHED.add(self)
        _publish_bytes()

    def detach(self) -> None:
        """Take this store out of the resident-bytes gauge."""
        _ATTACHED.discard(self)
        _publish_bytes()

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------
    def get(self, tree, page: int) -> PageEntry | None:
        """The resident entry for ``page``, or None.

        A hit requires the backing block's CRC32 sidecar to still match
        the value recorded at decode time; a mismatch drops the entry
        (counted as an invalidation) and reports a miss.  Hits refresh
        LRU recency.  The entry may still be undecoded.
        """
        with self._lock:
            entry = self._entries.get(page)
            if entry is not None:
                if tree._quant_file.block_crc(page) != entry.crc:
                    self._drop(page)
                    self.invalidations += 1
                    if REGISTRY.enabled:
                        DECODED_CACHE_INVALIDATIONS.inc()
                        _publish_bytes()
                    entry = None
                else:
                    self._entries.move_to_end(page)
            if entry is None:
                self.misses += 1
                if REGISTRY.enabled:
                    DECODED_CACHE_MISSES.inc()
                return None
            self.hits += 1
            if REGISTRY.enabled:
                DECODED_CACHE_HITS.inc()
            return entry

    def put(
        self, tree, page: int, handle, bounds=None, payload=None
    ) -> PageEntry:
        """Insert (or refresh) ``page``: its decoded ``handle``, or --
        ``handle`` None -- the ``payload`` it was read as, undecoded.

        Records the block's current CRC sidecar as the entry's validity
        token and evicts LRU entries until the budget is respected.  An
        entry larger than the whole budget is rejected up front -- it
        could never be served anyway, and admitting it would flush
        every resident entry before evicting itself.  Returns the new
        entry either way, so the caller can use it.  A payload put for
        a page whose resident entry still matches the sidecar keeps that
        entry (and whatever it has decoded or derived) and refreshes it.

        The sidecar is read exactly once per put: reading it separately
        for the bounds-reuse check and the entry token would let a
        concurrent rewrite land between the reads, permanently pairing
        the *old* page's bounds with the *new* page's CRC -- a stale
        entry that self-validates forever.
        """
        with self._lock:
            crc = tree._quant_file.block_crc(page)
            old = self._entries.get(page)
            if old is not None and old.crc == crc and handle is None:
                self._entries.move_to_end(page)
                return old
            if old is not None:
                self._drop(page)
                if bounds is None and old.crc == crc:
                    bounds = old.bounds  # keep already-derived bounds
            entry = PageEntry(
                handle=handle, bounds=bounds, crc=crc, payload=payload
            )
            entry.nbytes = _entry_bytes(entry)
            entry.charge = (
                entry.nbytes
                if handle is not None
                else decoded_page_nbytes(payload, tree.dim)
            )
            if entry.charge <= self.budget_bytes:
                self._entries[page] = entry
                self.current_bytes += entry.nbytes
                self.charged_bytes += entry.charge
                self._evict_over_budget()
            _publish_bytes()
            return entry

    def set_handle(self, page: int, entry: PageEntry, handle) -> None:
        """Decode ``entry`` (the undecoded entry of ``page``) in place:
        it trades its payload for ``handle`` and is re-counted while
        resident.  Its charge already was the decoded size, so nothing
        is evicted and its LRU place is kept."""
        with self._lock:
            if entry.handle is not None:
                return
            # The handle lands before the payload goes: a reader that
            # finds no handle still finds the payload it read first.
            entry.handle = handle
            entry.payload = None
            self._recount(page, entry)
            _publish_bytes()

    def set_bounds(self, page: int, entry: PageEntry, bounds) -> None:
        """Attach derived cell boxes to ``entry`` (the decoded entry of
        ``page``) unless it has some; they count against the budget
        while ``entry`` is resident.  An entry evicted in the meantime
        still gets them, for the batch that holds it."""
        with self._lock:
            if entry.bounds is not None:
                return
            entry.bounds = bounds
            grown = self._recount(page, entry)
            entry.charge += grown
            if self._entries.get(page) is not entry:
                return
            self.charged_bytes += grown
            self._entries.move_to_end(page)
            if entry.charge > self.budget_bytes:
                # Grown past the whole budget: drop this entry alone
                # rather than flushing every resident ahead of it.
                self._drop(page)
                self.evictions += 1
                if REGISTRY.enabled:
                    DECODED_CACHE_EVICTIONS.inc()
            else:
                self._evict_over_budget()
            _publish_bytes()

    def _recount(self, page: int, entry: PageEntry) -> int:
        """Re-count ``entry`` after it changed what it holds; the
        growth counts against ``current_bytes`` while it is resident.
        Returns the growth.  The caller holds the lock."""
        grown = _entry_bytes(entry) - entry.nbytes
        entry.nbytes += grown
        if self._entries.get(page) is entry:
            self.current_bytes += grown
        return grown

    def _drop(self, page: int) -> None:
        """Remove a resident entry and its bytes; the caller holds the
        lock and counts the removal."""
        entry = self._entries.pop(page)
        self.current_bytes -= entry.nbytes
        self.charged_bytes -= entry.charge

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate(self, page: int) -> None:
        """Drop one page (quarantine / explicit rewrite notification)."""
        with self._lock:
            if page not in self._entries:
                return
            self._drop(page)
            self.invalidations += 1
            if REGISTRY.enabled:
                DECODED_CACHE_INVALIDATIONS.inc()
                _publish_bytes()

    def clear(self) -> None:
        """Drop everything (re-layout reassigns page indices wholesale).

        Counters are kept; the store's resident bytes drop to zero.
        """
        with self._lock:
            if self._entries:
                self.invalidations += len(self._entries)
                if REGISTRY.enabled:
                    DECODED_CACHE_INVALIDATIONS.inc(len(self._entries))
            self._entries.clear()
            self.current_bytes = self.charged_bytes = 0
            _publish_bytes()

    def _evict_over_budget(self) -> None:
        while self.charged_bytes > self.budget_bytes and self._entries:
            self._drop(next(iter(self._entries)))
            self.evictions += 1
            if REGISTRY.enabled:
                DECODED_CACHE_EVICTIONS.inc()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def resident_pages(self) -> int:
        """Number of decoded pages currently held."""
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Hits / lookups; 0.0 on a cold cache (never a division error)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __contains__(self, page: int) -> bool:
        return page in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"DecodedPageCache(budget={self.budget_bytes}, "
            f"resident={len(self._entries)} pages / "
            f"{self.current_bytes} bytes, hit_rate={self.hit_rate:.2f})"
        )
