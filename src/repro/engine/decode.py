"""Per-batch page and record loaders of the batch query engine.

:class:`PageDecodeCache` fetches quantized data pages through one
optimal batched transfer (Section 2 strategy) and decodes each page at
most once per batch -- same-width pages go through one
:func:`~repro.quantization.bitpack.unpack_codes_bulk` call.  It keeps
one :class:`~repro.engine.page_cache.PageEntry` per loaded page: the
decoded-page store's own entry when the tree has a store (a hit, or the
entry a fresh decode was published as), otherwise one the batch builds
for itself.  Holding the entry pins it for the batch.  An entry's cell
boxes depend only on the page, so they are derived once per page, into
the entry, and :meth:`PageDecodeCache.page_table` stacks the entries
into one table per batch for the worker kernels, by reference to the
entries' own corner blocks (joined once for a batch of several
queries).

:class:`ExactBatchStore` is an alias of the tree's one third-level
reader, :class:`~repro.core.tree.ExactStore`: the engine hands the
refinement candidates of *all* queries of a batch -- kNN and range
alike, including the one-query batches behind
:func:`~repro.core.search.range_search` -- to its
:meth:`~repro.core.tree.ExactStore.fetch_all`, which plans one optimal
fetch over the union of their blocks and decodes every requested point
record exactly once.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Mapping

import numpy as np

from repro.core.tree import ExactStore, IQTree, PageHandle, decode_page
from repro.engine.kernels import PageStack, PageTable, cell_boxes
from repro.engine.page_cache import PageEntry
from repro.obs.instruments import PAGES_DECODED, REGISTRY
from repro.obs.tracing import span as obs_span
from repro.quantization.bitpack import unpack_codes_bulk
from repro.quantization.capacity import EXACT_BITS
from repro.storage import serializer
from repro.storage.runtime_faults import fetch_with_quarantine

__all__ = ["PageDecodeCache", "ExactBatchStore"]


class PageDecodeCache:
    """Fetch + decode quantized pages at most once per batch.

    With a fault context attached to the tree, unreadable pages land in
    :attr:`lost_pages` instead of aborting the batch; the engine reports
    them per affected query.

    When the tree carries a
    :class:`~repro.engine.page_cache.DecodedPageCache`, pages it holds
    are served from it without touching the disk, and freshly decoded
    pages (plus their derived cell boxes) are published to it -- the
    cross-batch amortization layer.  Quarantined pages bypass the store
    (:meth:`~repro.core.tree.IQTree._cached_entry`): a poisoned block
    must be reported lost, never served from a pre-fault decode, and
    losing a page also drops its store entry.
    """

    def __init__(self, tree: IQTree):
        self._tree = tree
        self._shared = tree._decoded_cache
        #: page -> its decoded entry, in load order
        self._entries: dict[int, PageEntry] = {}
        #: unique pages fetched from the quantized level so far
        self.pages_fetched = 0
        #: unique pages served decoded from the shared cross-batch cache
        self.pages_cached = 0
        #: pages that could not be read (quarantined), in request order
        self.lost_pages: list[int] = []
        self._lost: set[int] = set()

    def load(self, pages: Iterable[int]) -> None:
        """Ensure all ``pages`` are fetched and decoded.

        Missing pages are read in one batched transfer; pages already
        decoded for an earlier query of the batch -- or resident in the
        shared cross-batch cache -- are reused without new I/O.
        """
        tree = self._tree
        shared = self._shared
        need = sorted(
            {int(p) for p in pages} - self._entries.keys() - self._lost
        )
        for page in need:
            entry = tree._cached_entry(page)
            if entry is not None:
                # A page a single query read but never needed is stored
                # undecoded; it is decoded here, in place, once.
                tree._decode_entry(page, entry)
                self._entries[page] = entry
                self.pages_cached += 1
        need = [page for page in need if page not in self._entries]
        if not need:
            return
        ctx = tree._fault_ctx
        with obs_span("fetch", disk=tree.disk, pages=len(need)) as fetch_span:
            if ctx is None:
                payloads = tree._quant_file.read_batched(need)
            else:
                payloads, lost = fetch_with_quarantine(
                    tree._quant_file, tree.disk, ctx, need
                )
                if lost:
                    self.lost_pages.extend(lost)
                    self._lost.update(lost)
                    if shared is not None:
                        for page in lost:
                            shared.invalidate(page)
                    if fetch_span is not None:
                        fetch_span.attrs["degraded"] = True
                        fetch_span.attrs["lost_pages"] = len(lost)
        self.pages_fetched += len(payloads)
        with obs_span("decode", disk=tree.disk, pages=len(payloads)):
            handles = self._decode_bulk(payloads)
        for page in payloads:
            self._entries[page] = (
                PageEntry(handles[page])
                if shared is None
                else shared.put(tree, page, handles[page])
            )

    def page_table(self) -> PageTable:
        """Plain-array snapshot of every loaded page, for the kernels.

        Stacks the loaded pages in ascending page order: exact pages as
        ``(points, ids)`` rows, quantized pages as ``(ids,)`` rows with
        their entries' cell boxes.  The quantized stack holds references
        to the entries' own corner blocks, which a one-query batch's
        kernels read in place, copying only the rows they bound; a
        batch of several queries joins them (:meth:`PageTable.joined`).
        An entry without boxes gets them
        here, on the coordinator, in load order -- published to the
        store, so a warm page never derives them again -- and the worker
        kernels only ever read them.  The snapshot holds only numpy
        arrays -- no tree, file, or cache references -- so it can be
        pickled (or frozen into a shared arena as a fixed number of
        arrays) and shipped to worker processes.
        """
        tree = self._tree
        exact: list[tuple] = []
        quant: list[tuple] = []
        for page, entry in self._entries.items():
            handle = entry.handle
            if handle.points is not None:
                exact.append((page, (handle.points, handle.ids)))
                continue
            if entry.bounds is None:
                bounds = cell_boxes(
                    *tree._codec_view(page, handle).cell_bounds(handle.codes)
                )
                if self._shared is None:
                    entry.bounds = bounds
                else:
                    self._shared.set_bounds(page, entry, bounds)
            quant.append((page, (tree._part_ids[page],), entry.bounds))
        exact.sort(key=lambda item: item[0])
        quant.sort(key=lambda item: item[0])
        dim = tree.dim
        no_ids = np.empty(0, dtype=np.int64)
        return PageTable(
            exact=PageStack.stack(exact, (np.empty((0, dim)), no_ids)),
            quant=PageStack.stack(quant, (no_ids,), dim),
        )

    def _decode_bulk(self, payloads: Mapping[int, bytes]) -> dict:
        dim = self._tree.dim
        if REGISTRY.enabled:  # by the directory's width of each page
            for bits in self._tree._bits[list(payloads)].tolist():
                PAGES_DECODED.inc(bits=bits)
        handles: dict[int, PageHandle] = {}
        grouped: dict[int, list[tuple[int, bytes, int]]] = defaultdict(list)
        for page, payload in payloads.items():
            m, bits, codec = serializer.QUANT_PAGE_HEADER.unpack_from(
                payload
            )
            if bits >= EXACT_BITS or codec != 0:
                # Exact pages carry coords + ids and PQ pages carry a
                # per-page codebook; both decode individually (a plain
                # frombuffer / codebook gather, nothing to batch).
                handles[page] = decode_page(page, payload, dim)
            else:
                body = payload[serializer.QUANT_PAGE_HEADER.size :]
                grouped[bits].append((page, body, m))
        for bits, entries in grouped.items():
            codes_list = unpack_codes_bulk(
                [body for _page, body, _m in entries],
                bits,
                [m for _page, _body, m in entries],
                dim,
            )
            for (page, _body, _m), codes in zip(entries, codes_list):
                handles[page] = PageHandle(page, bits, codes, None, None)
        return handles


#: The batch engine's third-level reader is the tree's one record
#: store; the name is kept because callers look ``fetch_all`` up here.
ExactBatchStore = ExactStore
