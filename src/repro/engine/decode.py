"""Per-batch page and record caches of the batch query engine.

:class:`PageDecodeCache` fetches quantized data pages through one
optimal batched transfer (Section 2 strategy) and decodes each page at
most once per batch -- same-width pages go through one
:func:`~repro.quantization.bitpack.unpack_codes_bulk` call.  The
derived per-point cell bound boxes are cached as well, because they
depend only on the page, not on the query;
:meth:`PageDecodeCache.page_table` stacks them into one table per batch
for the worker kernels.

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
from repro.engine.kernels import PageStack, PageTable
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
    :class:`~repro.engine.page_cache.DecodedPageCache`, already-decoded
    pages are served from it without touching the disk, and freshly
    decoded pages (plus their derived cell bounds) are published back
    -- the cross-batch amortization layer.  Quarantined pages bypass
    the shared cache entirely: a poisoned block must be reported lost,
    never served from a pre-fault decode, and losing a page also drops
    its shared entry.
    """

    def __init__(self, tree: IQTree):
        self._tree = tree
        self._shared = tree._decoded_cache
        self._handles: dict[int, PageHandle] = {}
        self._bounds: dict[int, tuple[np.ndarray, np.ndarray]] = {}
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
        need = sorted(
            {int(p) for p in pages} - self._handles.keys() - self._lost
        )
        if not need:
            return
        ctx = self._tree._fault_ctx
        shared = self._shared
        if shared is not None:
            quarantined = (
                ctx.quarantine.local_indices(self._tree._quant_file)
                if ctx is not None
                else frozenset()
            )
            remaining = []
            for page in need:
                entry = (
                    None
                    if page in quarantined
                    else shared.get(self._tree, page)
                )
                if entry is None:
                    remaining.append(page)
                    continue
                self._handles[page] = entry.handle
                if entry.bounds is not None:
                    self._bounds[page] = entry.bounds
                self.pages_cached += 1
            need = remaining
            if not need:
                return
        with obs_span(
            "fetch", disk=self._tree.disk, pages=len(need)
        ) as fetch_span:
            if ctx is None:
                payloads = self._tree._quant_file.read_batched(need)
            else:
                payloads, lost = fetch_with_quarantine(
                    self._tree._quant_file, self._tree.disk, ctx, need
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
        with obs_span("decode", disk=self._tree.disk, pages=len(payloads)):
            self._decode_bulk(payloads)
        if shared is not None:
            for page in payloads:
                shared.put(self._tree, page, self._handles[page])

    def cell_bounds(self, page: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-point conservative boxes of one quantized page.

        Query-independent, so computed once per page per batch and
        shared by every query that examines the page.
        """
        if page not in self._bounds:
            handle = self._handles[page]
            view = self._tree._codec_view(page, handle)
            bounds = view.cell_bounds(handle.codes)
            self._bounds[page] = bounds
            if self._shared is not None:
                self._shared.set_bounds(page, bounds)
        return self._bounds[page]

    def page_table(self) -> PageTable:
        """Plain-array snapshot of every loaded page, for the kernels.

        Stacks the loaded pages in ascending page order: exact pages as
        ``(points, ids)`` rows, quantized pages as ``(lower, upper,
        ids)`` cell-box rows.  Quantized pages' boxes are derived here,
        on the coordinator, in load order (the order they are published
        to the shared cache), so the worker kernels only ever read
        them.  The snapshot holds only numpy arrays -- no tree, file, or
        cache references -- so it can be pickled (or frozen into a
        shared arena as a fixed number of arrays) and shipped to worker
        processes.
        """
        exact: list[tuple[int, tuple]] = []
        quant: list[tuple[int, tuple]] = []
        for page, handle in self._handles.items():
            if handle.points is not None:
                exact.append((page, (handle.points, handle.ids)))
            else:
                lo, up = self.cell_bounds(page)
                quant.append((page, (lo, up, self._tree._part_ids[page])))
        exact.sort(key=lambda entry: entry[0])
        quant.sort(key=lambda entry: entry[0])
        dim = self._tree.dim
        no_ids = np.empty(0, dtype=np.int64)
        return PageTable(
            exact=PageStack.stack(exact, (np.empty((0, dim)), no_ids)),
            quant=PageStack.stack(
                quant, (np.empty((0, dim)), np.empty((0, dim)), no_ids)
            ),
        )

    def _decode_bulk(self, payloads: Mapping[int, bytes]) -> None:
        dim = self._tree.dim
        grouped: dict[int, list[tuple[int, bytes, int]]] = defaultdict(list)
        for page, payload in payloads.items():
            m, bits, codec = serializer.QUANT_PAGE_HEADER.unpack_from(
                payload
            )
            if bits >= EXACT_BITS or codec != 0:
                # Exact pages carry coords + ids and PQ pages carry a
                # per-page codebook; both decode individually (a plain
                # frombuffer / codebook gather, nothing to batch).
                self._handles[page] = decode_page(page, payload, dim)
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
            if REGISTRY.enabled:
                PAGES_DECODED.inc(len(entries), bits=bits)
            for (page, _body, _m), codes in zip(entries, codes_list):
                self._handles[page] = PageHandle(
                    page, bits, codes, None, None
                )


#: The batch engine's third-level reader is the tree's one record
#: store; the name is kept because callers look ``fetch_all`` up here.
ExactBatchStore = ExactStore
