"""IQ-tree query processing (paper Sections 2.1 and 3.2).

Nearest-neighbor search is Hjaltason-Samet best-first search over a
priority list that mixes two granularities: whole data pages (first-level
MBRs) and the box approximations of individual points (grid or codebook
cells of loaded quantized pages).  A page that becomes the pivot is
loaded and its surviving cells join the list; a *point* that becomes the
pivot is refined -- its exact coordinates are fetched from the third
level -- because, as the paper argues, no strategy can avoid that
look-up.

Reading a page and processing it are separate decisions.  The
scheduler decides which pages to *read*; a quantized page it read keeps
its page entry in the list, under its MBR mindist, and is decoded and
bounded only when that entry pops -- when its turn comes in best-first
order.  A page read speculatively whose turn never comes is never
decoded.  Exact pages are still processed when read: their points lower
the pruning bound the next window is planned with.

A processed page's cells do not enter the list one by one.  They are
sorted once into a *run* ordered by ``(lower bound, local index)`` and
only the run's head sits in the heap.  A page reserves a contiguous
block of tie-break numbers, one per row, when it is *read* (in read
order, sized by the payload header); its surviving cells are numbered
from that block in local order.  A cell's box lies inside its page's
MBR, so its lower bound is at least the page's mindist, and a page
entry's tie is below every cell's: a page always pops before its cells.
Cells a page drops under the smaller bound at its turn could never have
popped.  So the heap pops exactly the cells, in the same order, that a
list which entered every cell when its page was read would pop -- same
refinements, same ledger.

When a run's head pops, the k-NN search keeps taking the run's next
cells while each stays below every other heap entry and within the
pruning bound (:func:`_drain`).  That *stretch* is refined without
touching the heap -- the records the third level has already decoded
for this query are offered to the result a segment at a time -- and
only the first cell past it goes back in.  So the k-NN heap sees one
push per page plus one per run segment, not one per cell or per refined
point.  Distance browsing pops a run one cell at a time (:func:`_pop`).

Two page-access strategies are available:

* ``standard`` -- one random read per pivot page (how classic index
  structures operate);
* ``optimized`` -- the cost-balance scheduler of Section 2.1: when a
  page must be read, neighboring pages in file order whose estimated
  access probabilities (eqs. 2-5) make speculative reading cheaper in
  expectation than a later random seek are fetched in the same
  sequential transfer.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from repro.exceptions import (
    IntegrityError,
    QueryDataError,
    ReadFaultError,
    SearchError,
    StorageError,
)
from repro.costmodel.access_probability import (
    PageView,
    access_probabilities,
)
from repro.core.tree import ExactStore, IQTree, PageHandle
from repro.geometry.mbr import maxdist_to_boxes, mindist_to_boxes
from repro.obs.drift import MONITOR as _DRIFT
from repro.obs.instruments import QUERY_SECONDS, REGISTRY
from repro.quantization.capacity import EXACT_BITS
from repro.storage import serializer
from repro.storage.disk import IOStats
from repro.storage.runtime_faults import LostPage, fault_address
from repro.storage.scheduler import cost_balance_window

__all__ = [
    "NNResult",
    "RangeResult",
    "KBest",
    "nearest_neighbors",
    "range_search",
    "browse_by_distance",
    "cell_interval",
    "certain_mask",
    "degraded_fields",
    "checked_query",
    "checked_queries",
    "io_snapshot",
    "io_delta",
    "next_query_id",
    "locate_address",
    "raise_query_error",
]

#: Monotone query ids used to label QueryDataError context; shared with
#: the batch engine so every query on this process has a distinct id.
_QUERY_IDS = itertools.count(1)


def next_query_id() -> int:
    """Allocate a process-unique query id (error/trace context)."""
    return next(_QUERY_IDS)


def locate_address(tree, address: int) -> tuple[str | None, int | None]:
    """Map a disk address to ``(level_name, file-local block)``.

    Returns ``(None, None)`` when the address belongs to none of the
    tree's three level files (or the tree is mid-relayout).
    """
    for level, slot in (
        ("directory", "_dir_file"),
        ("quantized", "_quant_file"),
        ("exact", "_exact_file"),
    ):
        file = getattr(tree, slot, None)
        if file is None or not file.sealed:
            continue
        base = file.extent_start
        if base <= address < base + file.n_blocks:
            return level, address - base
    return None, None


def raise_query_error(exc: StorageError, tree, query_id: int):
    """Re-raise a mid-query storage failure as a QueryDataError.

    Keeps the original as ``__cause__`` and attaches query id, level
    name, and file-local block index so callers can tell data loss and
    corruption apart from API misuse (both are SearchError subclasses).
    """
    address = fault_address(exc)
    level = block = None
    if address is not None:
        level, block = locate_address(tree, address)
    where = f"the {level} level" if level else "index data"
    detail = f" (block {block})" if block is not None else ""
    raise QueryDataError(
        f"query {query_id} aborted: could not read {where}{detail}: {exc}",
        query_id=query_id,
        level=level,
        block=block,
    ) from exc

# Heap entry kinds: load + expand a page, refine a point, emit an
# already-exact distance (browsing only).
_PAGE = 0
_POINT = 1
_RESULT = 2


class _Ties:
    """Monotone tie-break numbers for heap entries.

    Heap entries are ``(dist, tie, kind, page, item, run, pos)``; unique
    ties make ``(dist, tie)`` a total order, so comparison never reaches
    the payload fields.
    """

    __slots__ = ("next",)

    def __init__(self, start: int = 0):
        self.next = start

    def take(self, n: int = 1) -> int:
        """Reserve ``n`` consecutive numbers; returns the first."""
        base = self.next
        self.next += n
        return base


class _Run:
    """A page's candidates of one kind, sorted for lazy heap entry.

    ``dists`` ascend (stable, so equal distances keep local order);
    ``ties`` are the numbers individual pushes in local order would have
    drawn; ``items`` are local cell indices (``_POINT``) or point ids
    (``_RESULT``).
    """

    __slots__ = ("kind", "page", "dists", "ties", "items")

    def __init__(self, kind, page, dists, ties, items):
        self.kind = kind
        self.page = page
        self.dists = dists
        self.ties = ties
        self.items = items

    def entry(self, pos: int) -> tuple:
        return (
            float(self.dists[pos]), int(self.ties[pos]), self.kind,
            self.page, int(self.items[pos]), self, pos,
        )

    def below(self, entry: tuple, start: int) -> int:
        """The first position from ``start`` on whose ``(dist, tie)``
        is not below ``entry``'s (runs ascend by both)."""
        dist, tie = entry[0], entry[1]
        if start == self.dists.size or (
            (self.dists[start], self.ties[start]) > (dist, tie)
        ):
            return start
        pos = int(np.searchsorted(self.dists, dist))
        if pos < self.dists.size and self.dists[pos] == dist:
            end = int(np.searchsorted(self.dists, dist, side="right"))
            pos += int(np.searchsorted(self.ties[pos:end], tie))
        return pos


def _push_run(heap, ties: _Ties, kind, page, dists, items) -> None:
    """Enter candidates as one run: push only its smallest entry.

    ``dists``/``items`` are in the order individual pushes would have
    drawn tie numbers; the run reserves the same contiguous block.
    """
    if dists.size == 0:
        return
    base = ties.take(dists.size)
    order = np.argsort(dists, kind="stable")
    run = _Run(kind, page, dists[order], order + base, items[order])
    heapq.heappush(heap, run.entry(0))


def _pop(heap) -> tuple:
    """Pop the smallest entry; a run entry's successor takes its place."""
    entry = heapq.heappop(heap)
    run, pos = entry[5], entry[6] + 1
    if run is not None and pos < run.dists.size:
        heapq.heappush(heap, run.entry(pos))
    return entry


#: Stretches shorter than this are refined point by point: a vectorized
#: offer has a fixed cost of about ten numpy calls, which a handful of
#: scalar look-ups undercuts.
_SHORT_STRETCH = 8


def _drain(heap, exact: ExactStore, query, best: KBest, refine) -> int:
    """Refine the point at the heap top and the stretch of its run that
    would pop right after it; returns the run position past the stretch.

    The stretch is the run's following points while each stays below
    every other heap entry and its lower bound within the pruning
    bound: the points :func:`_pop` would take one by one, in the same
    order, but without a heap push and pop per point.  Records already
    decoded for this query are offered a segment at a time
    (:meth:`KBest.offer_stretch`).  A record that needs a third-level
    read, or one of fewer than ``_SHORT_STRETCH`` left in the stretch,
    goes through ``refine(page, local)`` on its own, in its turn.  The
    run's first point past the stretch replaces the top.  An entry
    pushed without a run is popped and refined alone.
    """
    top = heap[0]
    run, pos = top[5], top[6]
    if run is None:
        heapq.heappop(heap)
        refine(top[3], top[4])
        return pos + 1
    lowers, items = run.dists, run.items
    end = lowers.size
    if len(heap) > 1:
        rival = heap[1] if len(heap) == 2 or heap[1] < heap[2] else heap[2]
        end = run.below(rival, pos + 1)
    state = exact.decoded_page(query, run.page)
    while pos < end and lowers[pos] <= best.bound():
        if end - pos < _SHORT_STRETCH or not state.decoded[items[pos]]:
            refine(run.page, int(items[pos]))
            pos += 1
            continue
        locals_ = items[pos:end]
        decoded = state.decoded[locals_]
        size = locals_.size if decoded.all() else int(decoded.argmin())
        locals_ = locals_[:size]
        taken = best.offer_stretch(
            lowers[pos : pos + size],
            state.distances[locals_],
            state.ids[locals_],
        )
        exact.count_refinements(taken)
        pos += taken
        if taken < size:
            break
    if pos < lowers.size:
        heapq.heapreplace(heap, run.entry(pos))
    else:
        heapq.heappop(heap)
    return pos


def _page_entries(page_mindists: np.ndarray) -> list[tuple]:
    """The initial heap: one entry per page, ties ``0..n_pages-1``."""
    heap = [
        (dist, i, _PAGE, i, 0, None, 0)
        for i, dist in enumerate(page_mindists.tolist())
    ]
    heapq.heapify(heap)
    return heap


@dataclass
class NNResult:
    """Result of a k-nearest-neighbor query.

    Attributes
    ----------
    ids:
        Point ids, ascending by distance, shape ``(k,)``.
    distances:
        Matching distances.
    io:
        Simulated-I/O delta of this query.
    pages_read:
        Number of quantized data pages read (a store hit counts as a
        read), whether or not the search needed to decode them.
    refinements:
        Number of third-level exact look-ups performed.
    certain:
        Per-result exactness mask aligned with ``ids`` (``None`` unless
        the query degraded).  ``certain[i]`` is False when result ``i``
        carries a quantization interval instead of an exact distance.
    intervals:
        For each uncertain result id, the ``(mindist, maxdist)`` cell
        interval that provably contains its true distance; the reported
        ``distances`` entry is the conservative ``maxdist``.
    lost_pages:
        :class:`~repro.storage.runtime_faults.LostPage` records for
        second-level pages the query could not read at all -- any of
        their points could have been an answer (recall bound).
    degraded:
        True when any fallback fired (``certain``/``intervals``/
        ``lost_pages`` carry the details).
    """

    ids: np.ndarray
    distances: np.ndarray
    io: IOStats
    pages_read: int
    refinements: int
    certain: np.ndarray | None = None
    intervals: dict[int, tuple[float, float]] | None = None
    lost_pages: tuple = ()
    degraded: bool = False


@dataclass
class RangeResult(NNResult):
    """Result of a range query (all points within a radius).

    Fields as in :class:`NNResult`.  An uncertain range result is a
    *possible* member (its cell interval overlaps the radius) reported
    at its conservative ``maxdist``, which may exceed the radius; a
    lost page's ``maxdist`` is infinite.
    """


class KBest:
    """Fixed-size max-heap tracking the current k best candidates.

    Candidates rank by ``(distance, id)``: of two points at the k-th
    distance the smaller id is kept, whatever order they are offered
    in, so every search path breaks ties as a brute-force scan over
    ascending ids does.  Shared by the single-query searches here and
    by the batch query engine in :mod:`repro.engine`.
    """

    def __init__(self, k: int):
        self.k = k
        self._heap: list[tuple[float, int]] = []  # (-dist, -id)

    def bound(self) -> float:
        """Current pruning distance (inf until k candidates exist)."""
        if len(self._heap) < self.k:
            return np.inf
        return -self._heap[0][0]

    def offer(self, dist: float, point_id: int) -> None:
        heap = self._heap
        if len(heap) < self.k:
            heapq.heappush(heap, (-dist, -point_id))
            return
        worst = -heap[0][0]  # compared as floats first: the hot path
        if dist < worst or (dist == worst and point_id < -heap[0][1]):
            heapq.heapreplace(heap, (-dist, -point_id))

    def offer_many(self, dists: np.ndarray, ids: np.ndarray) -> None:
        """Offer a whole candidate array (same result as offer() in a
        loop, in any order).

        Candidates that provably cannot enter the heap are dropped in
        one vectorized pass before the (now tiny) sequential offers:
        with ``n > k`` offered distances, anything above the k-th
        smallest *of this array* loses to k strictly smaller offers,
        and once the heap is full, anything above the current bound is
        dead on arrival -- and stays dead, because the bound never
        increases.  A distance equal to the bound survives the filter:
        it enters if its id is below the worst kept one.
        """
        dists = np.asarray(dists, dtype=np.float64)
        ids = np.asarray(ids)
        if dists.size == 0:
            return
        keep = None
        if dists.size > self.k:
            kth = np.partition(dists, self.k - 1)[self.k - 1]
            keep = dists <= kth
        bound = self.bound()
        if np.isfinite(bound):
            below = dists <= bound
            keep = below if keep is None else keep & below
        if keep is not None:
            dists = dists[keep]
            ids = ids[keep]
        for dist, pid in zip(dists, ids):
            self.offer(float(dist), int(pid))

    def offer_stretch(
        self, lowers: np.ndarray, dists: np.ndarray, ids: np.ndarray
    ) -> int:
        """Offer candidates in order while each one's lower bound is
        within the pruning bound; returns how many were offered.

        ``lowers`` ascend.  Equal, in the count and in the kept
        ``(distance, id)`` pairs, to::

            for i in range(len(lowers)):
                if lowers[i] > self.bound():
                    break
                self.offer(dists[i], ids[i])

        Once k candidates are kept, only a *hit* -- a candidate within
        the bound -- can change it, and the bound only falls.  So the
        hits are found in one vectorized pass and offered in turn; the
        bound holds between two hits, and as ``lowers`` ascend the loop
        stops before a hit exactly when that hit's lower bound exceeds
        it.  One ``searchsorted`` then finds where.
        """
        heap, n = self._heap, lowers.size
        taken = min(n, self.k - len(heap))  # offered at an infinite bound
        for i in range(taken):
            self.offer(float(dists[i]), int(ids[i]))
        if taken == n:
            return n
        bound = -heap[0][0]
        hits = np.flatnonzero(dists[taken:] <= bound) + taken
        for hit in hits.tolist():
            if lowers[hit] > bound:
                break
            self.offer(float(dists[hit]), int(ids[hit]))
            bound = -heap[0][0]
            taken = hit + 1
        return max(
            int(np.searchsorted(lowers, bound, side="right")), taken
        )

    def sorted_results(self) -> tuple[np.ndarray, np.ndarray]:
        """Drain the heap into ``(ids, dists)`` ascending by
        ``(distance, id)`` -- one vectorized lexsort, no tuple rebuild."""
        if not self._heap:
            return np.empty(0, dtype=np.int64), np.empty(0)
        neg_dists, neg_ids = zip(*self._heap)
        dists = -np.asarray(neg_dists, dtype=np.float64)
        ids = -np.asarray(neg_ids, dtype=np.int64)
        order = np.lexsort((ids, dists))
        return ids[order], dists[order]


def nearest_neighbors(
    tree: IQTree,
    query: np.ndarray,
    k: int = 1,
    scheduler: str = "optimized",
    *,
    recorder=None,
) -> NNResult:
    """Exact k-NN search on an IQ-tree.

    See the module docstring for the algorithm; ``scheduler`` selects the
    page-access strategy.  With a fault context attached
    (``tree.use_fault_tolerance()``), unreadable data degrades the
    result instead of aborting it; without one, any storage failure
    surfaces as :class:`~repro.exceptions.QueryDataError`.  A
    ``recorder`` (see :func:`repro.core.diagnostics.explain_query`) is
    told the pages each step reads, the access probabilities each
    window computes and the pages the search decodes.
    """
    tree._ensure_clean()
    k = checked_k(k, tree.n_live_points)
    if scheduler not in ("optimized", "standard"):
        raise SearchError(f"unknown scheduler: {scheduler!r}")
    query = checked_query(tree, query)
    return _run_single(
        tree,
        "nearest",
        lambda: _nearest_impl(tree, query, k, scheduler, recorder),
    )


def _run_single(tree: IQTree, kind: str, run):
    """Run one single-query search under the tree's flight recorder, if
    one is attached; storage failures surface as QueryDataError."""
    query_id = next_query_id()
    try:
        if tree._flight_recorder is None:
            return run()
        from repro.obs.flight import observe_single

        return observe_single(
            tree._flight_recorder, tree, kind, query_id, run
        )
    except StorageError as exc:
        raise_query_error(exc, tree, query_id)


def _nearest_impl(
    tree: IQTree, query: np.ndarray, k: int, scheduler: str, recorder=None
) -> NNResult:
    io_before = io_snapshot(tree)
    tree._charge_directory_scan()

    metric = tree.metric
    page_mindists = mindist_to_boxes(
        query, tree._lowers, tree._uppers, metric
    )
    n_pages = tree.n_pages
    processed = np.zeros(n_pages, dtype=bool)
    best = KBest(k)
    exact = ExactStore(tree)
    pages_read = 0

    # Degraded-mode state; stays empty without a fault context.
    intervals: dict[int, tuple[float, float]] = {}
    lost_pages: list[LostPage] = []
    quarantined = _quarantined_pages(tree)
    quant_handles: dict[int, PageHandle] = {}

    ties = _Ties(n_pages)
    heap = _page_entries(page_mindists)
    # Quantized pages read but not yet processed: their entry and the
    # tie block they reserved when read.
    waiting: dict[int, tuple] = {}

    def process(page: int, entry, page_ties: _Ties) -> None:
        handle = tree._decode_entry(page, entry)
        if handle.codes is not None:
            quant_handles[page] = handle
        if recorder is not None:
            recorder.decoded.add(page)
        _process_page(tree, query, handle, best, heap, page_ties)

    def refine(page: int, local: int) -> None:
        _refine(
            tree, exact, query, page, local, best, intervals, quant_handles
        )

    while heap and heap[0][0] <= best.bound():
        if heap[0][2] == _POINT:
            _drain(heap, exact, query, best, refine)
            continue
        page = _pop(heap)[3]
        if page not in waiting:
            if processed[page]:
                continue
            entries, lost = _load_pages(
                tree, query, page, page_mindists, processed, best.bound(),
                k, scheduler, quarantined, recorder,
            )
            if recorder is not None:
                recorder.pages_read(page, entries)
            for j in lost:
                processed[j] = True
                lost_pages.append(_lost_page(tree, query, j, page_mindists))
            for j, entry in entries.items():
                processed[j] = True
                pages_read += 1
                if tree._bits[j] >= EXACT_BITS:
                    process(j, entry, ties)
                else:
                    waiting[j] = (entry, _Ties(ties.take(_row_count(entry))))
        if page in waiting:  # its turn is now (a pivot's, as it is read)
            process(page, *waiting.pop(page))

    ids, dists = best.sorted_results()
    degraded = bool(intervals or lost_pages)
    certain, result_intervals = degraded_fields(ids, intervals, degraded)
    if degraded:
        tree._fault_ctx.count_degraded(len(intervals), len(lost_pages))
    io_after = io_snapshot(tree)
    result = NNResult(
        ids=ids,
        distances=dists,
        io=io_delta(io_before, io_after),
        pages_read=pages_read,
        refinements=exact.refinements,
        certain=certain,
        intervals=result_intervals,
        lost_pages=tuple(lost_pages),
        degraded=degraded,
    )
    if REGISTRY.enabled:
        QUERY_SECONDS.observe(result.io.elapsed)
        _DRIFT.observe_query(
            tree,
            k,
            actual_pages=result.pages_read,
            actual_seconds=result.io.elapsed,
        )
    return result


def range_search(tree: IQTree, query: np.ndarray, radius: float) -> RangeResult:
    """All points within ``radius`` of ``query``.

    The candidate pages (MBR mindist within the radius) are known up
    front, so this is the Section 2 batched fetch: the query runs as a
    one-query batch of :meth:`~repro.engine.QueryEngine.range_batch`.
    Every point whose cell reaches into the ball is refined -- an
    answer needs its exact record -- in one third-level transfer.
    """
    radii = checked_radii(radius, 1)
    tree._ensure_clean()
    query = checked_query(tree, query)
    return _run_single(tree, "range", lambda: _range_one(tree, query, radii))


def _range_one(
    tree: IQTree, query: np.ndarray, radii: np.ndarray
) -> RangeResult:
    from repro.engine.engine import QueryEngine, range_schedule

    with QueryEngine(tree) as engine:
        batch = engine._batch(query[None], range_schedule(radii), radii=radii)
    answer, stats = batch[0], batch.stats
    result = RangeResult(
        ids=answer.ids,
        distances=answer.distances,
        io=stats.io,
        pages_read=stats.pages_read + stats.decoded_pages_reused,
        refinements=stats.refinements,
        certain=answer.certain,
        intervals=answer.intervals,
        lost_pages=answer.lost_pages,
        degraded=answer.degraded,
    )
    if REGISTRY.enabled:
        # The cost model predicts kNN queries only, so range queries
        # feed the latency histogram but not the drift monitor.
        QUERY_SECONDS.observe(result.io.elapsed)
    return result


def browse_by_distance(tree: IQTree, query: np.ndarray):
    """Incremental distance browsing (Hjaltason-Samet ranking).

    Yields ``(point_id, distance)`` pairs in ascending
    ``(distance, id)`` order, lazily: pages are loaded and points
    refined only as far as the consumer iterates, so taking the first
    k results does no more I/O than a k-NN query with an unknown k.
    This is the natural API for "give me neighbors until I say stop"
    workloads; the paper's k-NN algorithm is the bounded special case.

    Uses the standard (one random read per pivot page) access strategy:
    speculative pre-reading needs a pruning bound, and an open-ended
    ranking has none.  Browsing has no degraded mode (an open-ended
    ranking cannot bound what a lost page would have contributed); any
    storage failure surfaces as
    :class:`~repro.exceptions.QueryDataError`.
    """
    query_id = next_query_id()
    try:
        yield from _browse_impl(tree, query)
    except StorageError as exc:
        raise_query_error(exc, tree, query_id)


def _browse_impl(tree: IQTree, query: np.ndarray):
    tree._ensure_clean()
    query = checked_query(tree, query)
    tree._charge_directory_scan()
    metric = tree.metric
    page_mindists = mindist_to_boxes(
        query, tree._lowers, tree._uppers, metric
    )
    exact = ExactStore(tree)
    ties = _Ties(tree.n_pages)
    heap = _page_entries(page_mindists)
    # Results at one distance are held until nothing left in the heap
    # can produce another at that distance, then yielded by id.
    held: list[int] = []
    held_dist = 0.0
    while True:
        if held and (not heap or heap[0][0] > held_dist):
            for pid in sorted(held):
                yield pid, held_dist
            held.clear()
        if not heap:
            return
        dist, _t, kind, page, item, _run, _pos = _pop(heap)
        if kind == _RESULT:
            held.append(int(item))
            held_dist = float(dist)
            continue
        if kind == _POINT:
            true, pid = exact.refine(query, page, item)
            heapq.heappush(
                heap, (true, ties.take(), _RESULT, page, pid, None, 0)
            )
            continue
        handle = tree._read_page(page)
        if handle.points is not None:
            dists = metric.distances(query, handle.points)
            _push_run(heap, ties, _RESULT, page, dists, handle.ids)
            continue
        quantizer = tree._codec_view(page, handle)
        lower_b = quantizer.cell_mindist(query, handle.codes, metric)
        _push_run(heap, ties, _POINT, page, lower_b, np.arange(lower_b.size))


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _process_page(tree, query, handle: PageHandle, best, heap, ties) -> None:
    """Bound one decoded page: an exact page offers its points to the
    result directly; a quantized page enters the cells that survive the
    current bound as one run, numbered from ``ties`` -- the block the
    page reserved when it was read."""
    metric = tree.metric
    if handle.points is not None:
        dists = metric.distances(query, handle.points)
        best.offer_many(dists, handle.ids)
        return
    quantizer = tree._codec_view(handle.index, handle)
    lower_b = quantizer.cell_mindist(query, handle.codes, metric)
    survivors = np.flatnonzero(lower_b <= best.bound())
    _push_run(heap, ties, _POINT, handle.index, lower_b[survivors], survivors)


def _row_count(entry) -> int:
    """Rows of a quantized page's entry, decoded or not (an undecoded
    one's payload header holds its point count)."""
    payload = entry.payload  # see IQTree._decode_entry for the order
    if payload is not None:
        return serializer.QUANT_PAGE_HEADER.unpack_from(payload)[0]
    return entry.handle.codes.shape[0]


def _plan_window(
    tree: IQTree,
    query: np.ndarray,
    pivot: int,
    page_mindists: np.ndarray,
    processed: np.ndarray,
    bound: float,
    k: int,
    forbidden: frozenset[int] = frozenset(),
) -> tuple[int, int, list[int], dict[int, float]]:
    """Plan the cost-balance window around a pivot (Section 2.1).

    Builds the pending-page snapshot, evaluates access probabilities for
    file-order neighbors of the pivot, and extends the transfer while
    the cumulated cost balance stays favorable.  ``forbidden`` blocks
    (quarantined pages) stop the speculative scan.  Returns ``(first,
    last, to_process, probabilities)``; ``probabilities`` maps each
    pending block the scan examined to its access probability.

    The probabilities are evaluated a run of ``ceil(t_seek / t_xfer)``
    blocks at a time -- the fewest steps in which the scan can give up
    after its last accepted block -- in one vectorized pass per run.
    The scan's first step evaluates the first run on both sides of the
    pivot in one pass: each side's scan examines at least that run
    unless a forbidden block or the file's end stops it first.
    """
    n_pages = tree.n_pages
    pending = ~processed
    if np.isfinite(bound):
        pending &= page_mindists <= bound
    pending[pivot] = True
    pending_idx = np.flatnonzero(pending)
    snapshot_of = np.full(n_pages, -1, dtype=np.int64)
    snapshot_of[pending_idx] = np.arange(pending_idx.size)
    view = PageView(
        lowers=tree._lowers[pending_idx],
        uppers=tree._uppers[pending_idx],
        counts=tree._counts[pending_idx].astype(np.float64),
        mindists=page_mindists[pending_idx],
    )
    run = max(1, math.ceil(tree.disk.model.overread_window))
    memo: dict[int, float] = {}
    examined: dict[int, float] = {}

    def probability(block: int) -> float:
        if block not in memo:
            if memo:
                step = 1 if block > pivot else -1
                blocks = range(block, block + step * run, step)
            else:  # the scan's first step: the first run on both sides
                blocks = itertools.chain(
                    range(max(0, pivot - run), pivot),
                    range(pivot + 1, pivot + run + 1),
                )
            blocks = [b for b in blocks if 0 <= b < n_pages]
            snaps = snapshot_of[blocks]
            probs = np.zeros(len(blocks))
            live = snaps >= 0
            if live.any():
                probs[live] = access_probabilities(
                    query, view, snaps[live], metric=tree.metric, k=k
                )
            memo.update(zip(blocks, probs.tolist()))
        prob = memo[block]
        if snapshot_of[block] >= 0:
            examined[block] = prob
        return prob

    first, last = cost_balance_window(
        pivot, n_pages, probability, tree.disk.model, forbidden=forbidden
    )
    to_process = [
        j for j in range(first, last + 1) if not processed[j] and pending[j]
    ]
    return first, last, to_process, examined


def _load_pages(
    tree: IQTree,
    query: np.ndarray,
    pivot: int,
    page_mindists: np.ndarray,
    processed: np.ndarray,
    bound: float,
    k: int,
    scheduler: str,
    quarantined: set[int],
    recorder=None,
) -> tuple[dict, list[int]]:
    """Read a pivot page and the pages read with it.

    A decoded-cache hit costs no I/O, so no window is planned around
    it.  Otherwise the standard scheduler reads the pivot alone and the
    optimized one the cost-balance window around it, which quarantined
    pages split.  Under a fault context every read runs under its
    retry policy, and a window whose transfer faults out is re-read
    page by page, so a dead block costs one partition, not the whole
    window.  Returns ``(entries, lost)``: the
    :class:`~repro.engine.page_cache.PageEntry` of every page read, by
    page in read order -- published to the store undecoded; the caller
    decodes a page when its turn comes -- and the pages that could not
    be read; ``quarantined`` (the quarantined quantized-level blocks)
    is kept in sync with the context.  ``recorder`` is given the
    window's access probabilities.
    """
    cached = tree._cached_entry(pivot)
    if cached is not None:
        return {pivot: cached}, []
    if pivot in quarantined:
        return {}, [pivot]
    to_process = [pivot]
    if scheduler == "optimized":
        first, last, to_process, probabilities = _plan_window(
            tree, query, pivot, page_mindists, processed, bound, k,
            forbidden=frozenset(quarantined),
        )
        if recorder is not None:
            recorder.probabilities.update(probabilities)
        try:
            payloads = _guarded(
                tree,
                lambda: tree._read_page_run(
                    first, last, wanted=len(to_process)
                ),
            )
            return {
                j: tree._store_payload(j, payloads[j - first])
                for j in to_process
            }, []
        except (ReadFaultError, IntegrityError) as exc:
            if not _recoverable(tree, exc):
                raise
            quarantined |= _quarantined_pages(tree)
    entries = {}
    lost: list[int] = []
    for j in to_process:
        if j not in quarantined:
            # The pivot's cache lookup has already missed above.
            read = tree._read_entry if j == pivot else tree._page_entry
            try:
                entries[j] = _guarded(tree, lambda j=j, read=read: read(j))
                continue
            except (ReadFaultError, IntegrityError) as exc:
                if not _recoverable(tree, exc):
                    raise
                quarantined |= _quarantined_pages(tree)
        lost.append(j)
    return entries, lost


def _refine(
    tree: IQTree,
    exact: ExactStore,
    query: np.ndarray,
    page: int,
    local: int,
    best: "KBest",
    intervals: dict[int, tuple[float, float]],
    quant_handles: dict[int, PageHandle],
) -> None:
    """Offer one point at its exact distance (third-level look-up).

    If its record is unreadable under a fault context, the point is
    offered at its cell *maxdist* -- a sound upper bound on the true
    distance, so KBest pruning stays conservative -- and its cell
    interval is recorded (see :func:`cell_interval`).
    """
    try:
        dist, pid = exact.refine(query, page, local)
    except (ReadFaultError, IntegrityError) as exc:
        if not _recoverable(tree, exc):
            raise
        handle = quant_handles[page]
        lower, upper = tree._codec_view(page, handle).cell_bounds(
            handle.codes[local : local + 1]
        )
        lo, hi = cell_interval(query, lower, upper, tree.metric)
        pid = int(tree._part_ids[page][local])
        best.offer(hi, pid)
        intervals[pid] = (lo, hi)
        return
    best.offer(dist, pid)


def _guarded(tree: IQTree, read):
    """Run one timed read, under the fault context's retry policy when
    one is attached."""
    ctx = tree._fault_ctx
    return read() if ctx is None else ctx.run(read, tree.disk)


def _recoverable(tree: IQTree, exc: StorageError) -> bool:
    """Whether a query degrades past ``exc`` instead of aborting: only
    under a fault context, and only for a read fault at a known
    address."""
    return tree._fault_ctx is not None and fault_address(exc) is not None


def _quarantined_pages(tree: IQTree) -> set[int]:
    """Quantized-level pages the fault context has quarantined."""
    ctx = tree._fault_ctx
    if ctx is None:
        return set()
    return set(ctx.quarantine.local_indices(tree._quant_file))


def _lost_page(
    tree: IQTree, query: np.ndarray, page: int, page_mindists: np.ndarray
) -> LostPage:
    """Report an unreadable second-level page (partition lost)."""
    return LostPage(
        page=int(page),
        n_points=int(tree._counts[page]),
        mindist=float(page_mindists[page]),
        maxdist=float(
            maxdist_to_boxes(
                query,
                tree._lowers[page : page + 1],
                tree._uppers[page : page + 1],
                tree.metric,
            )[0]
        ),
    )


def cell_interval(
    query: np.ndarray, lower: np.ndarray, upper: np.ndarray, metric
) -> tuple[float, float]:
    """``(mindist, maxdist)`` of one point's cell box, ``(1, d)`` each.

    The interval provably contains the point's exact distance (cell
    containment, paper Section 3.2), and ``maxdist`` is a sound
    conservative ranking distance.  Bit-equal to the codecs'
    ``cell_mindist``/``cell_maxdist`` of the same cell.
    """
    lo = float(mindist_to_boxes(query, lower, upper, metric)[0])
    hi = float(maxdist_to_boxes(query, lower, upper, metric)[0])
    return lo, hi


def certain_mask(
    ids: np.ndarray, intervals: dict[int, tuple[float, float]]
) -> np.ndarray:
    """Exactness mask aligned with ``ids``: False where the id carries
    a quantization interval.  One vectorized membership test instead of
    a per-result Python dict probe."""
    if not intervals:
        return np.ones(ids.size, dtype=bool)
    uncertain = np.fromiter(
        intervals.keys(), dtype=np.int64, count=len(intervals)
    )
    return ~np.isin(ids, uncertain)


def degraded_fields(
    ids: np.ndarray, intervals: dict[int, tuple[float, float]],
    degraded: bool,
) -> tuple[np.ndarray | None, dict[int, tuple[float, float]] | None]:
    """``(certain, intervals)`` of one answer: ``(None, None)`` unless
    it is ``degraded``; otherwise the exactness mask aligned with
    ``ids`` and the intervals of the returned ids that carry one."""
    if not degraded:
        return None, None
    return certain_mask(ids, intervals), {
        pid: intervals[pid] for pid in ids.tolist() if pid in intervals
    }


def checked_query(tree: IQTree, query) -> np.ndarray:
    """Validate a query point: right shape, finite coordinates."""
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (tree.dim,):
        raise SearchError(
            f"query must have shape ({tree.dim},), got {query.shape}"
        )
    if not np.all(np.isfinite(query)):
        raise SearchError("query coordinates must be finite")
    return query


def checked_queries(tree: IQTree, queries) -> np.ndarray:
    """Validate a batch of query points, shape ``(q, d)``."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != tree.dim:
        raise SearchError(
            f"queries must have shape (q, {tree.dim}), "
            f"got {queries.shape}"
        )
    if not np.all(np.isfinite(queries)):
        raise SearchError("query coordinates must be finite")
    return queries


def checked_k(k, n_points: int) -> int:
    """Validate a neighbor count: an integer from 1 to ``n_points``,
    the number of indexed points (deleted rows excluded)."""
    try:
        k = operator.index(k)
    except TypeError:
        raise SearchError(f"k must be an integer, got {k!r}") from None
    if k < 1:
        raise SearchError("k must be at least 1")
    if k > n_points:
        raise SearchError(f"k={k} exceeds the {n_points} indexed points")
    return k


def checked_radii(radius, n_queries: int) -> np.ndarray:
    """Validate range radii: one scalar shared by every query or one
    radius per query, shape ``(n_queries,)``; each finite and
    non-negative.  Returns a contiguous ``(n_queries,)`` array."""
    try:
        radii = np.asarray(radius, dtype=np.float64)
    except (TypeError, ValueError):
        raise SearchError(
            f"radius must be numeric, got {radius!r}"
        ) from None
    if radii.ndim == 0:
        radii = np.full(n_queries, radii)
    elif radii.shape != (n_queries,):
        raise SearchError(
            f"radius must be a scalar or have shape ({n_queries},), "
            f"got {radii.shape}"
        )
    if not np.all(np.isfinite(radii)) or np.any(radii < 0):
        raise SearchError("radius must be non-negative and finite")
    return np.ascontiguousarray(radii)


def io_snapshot(tree: IQTree) -> IOStats:
    """Copy of the tree's disk ledger (for before/after deltas)."""
    s = tree.disk.stats
    return IOStats(
        seeks=s.seeks,
        blocks_read=s.blocks_read,
        blocks_overread=s.blocks_overread,
        elapsed=s.elapsed,
    )


def io_delta(before: IOStats, after: IOStats) -> IOStats:
    """Ledger difference ``after - before``."""
    return IOStats(
        seeks=after.seeks - before.seeks,
        blocks_read=after.blocks_read - before.blocks_read,
        blocks_overread=after.blocks_overread - before.blocks_overread,
        elapsed=after.elapsed - before.elapsed,
    )
