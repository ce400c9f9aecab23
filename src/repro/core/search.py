"""IQ-tree query processing (paper Sections 2.1 and 3.2).

Nearest-neighbor search is Hjaltason-Samet best-first search over a
priority list that mixes two granularities: whole data pages (first-level
MBRs) and the box approximations of individual points (grid or codebook
cells of loaded quantized pages).  A page that becomes the pivot is
loaded and its surviving cells join the list; a *point* that becomes the
pivot is refined -- its exact coordinates are fetched from the third
level -- because, as the paper argues, no strategy can avoid that
look-up.

A loaded page's cells do not enter the list one by one.  They are sorted
once into a *run* ordered by ``(lower bound, local index)`` and only the
run's head sits in the heap; popping it pushes the run's next cell.  The
run reserves the contiguous block of tie-break numbers its cells'
individual pushes would have drawn, so the heap pops exactly the
``(distance, tie)`` sequence of the one-entry-per-cell list -- same
refinements, same ledger -- for one push per page plus one per refined
point instead of one per cell.

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
from repro.obs.instruments import (
    DEGRADED_RESULTS,
    LOST_PAGES,
    QUERY_SECONDS,
    REGISTRY,
)
from repro.storage.disk import IOStats
from repro.storage.runtime_faults import (
    LostPage,
    fault_address,
    fetch_with_quarantine,
)
from repro.storage.scheduler import cost_balance_window

__all__ = [
    "NNResult",
    "RangeResult",
    "KBest",
    "nearest_neighbors",
    "range_search",
    "browse_by_distance",
    "certain_mask",
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
        Number of quantized data pages processed.
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
class RangeResult:
    """Result of a range query (all points within a radius).

    The degraded-mode fields mirror :class:`NNResult`; an uncertain
    range result is a *possible* member (its cell interval overlaps the
    radius) reported at its conservative ``maxdist``, which may exceed
    the radius.
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


class KBest:
    """Fixed-size max-heap tracking the current k best candidates.

    Shared by the single-query searches here and by the batch query
    engine in :mod:`repro.engine`.
    """

    def __init__(self, k: int):
        self.k = k
        self._heap: list[tuple[float, int]] = []  # (-dist, id)

    def bound(self) -> float:
        """Current pruning distance (inf until k candidates exist)."""
        if len(self._heap) < self.k:
            return np.inf
        return -self._heap[0][0]

    def offer(self, dist: float, point_id: int) -> None:
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (-dist, point_id))
        elif dist < -self._heap[0][0]:
            heapq.heapreplace(self._heap, (-dist, point_id))

    def offer_many(self, dists: np.ndarray, ids: np.ndarray) -> None:
        """Offer a whole candidate array (same result as offer() in a
        loop, including first-offered-wins tie behavior).

        Candidates that provably cannot enter the heap are dropped in
        one vectorized pass before the (now tiny) sequential offers:
        with ``n > k`` offered distances, anything above the k-th
        smallest *of this array* loses to k strictly smaller offers
        (replacement is strict ``<``), and once the heap is full,
        anything at or above the current bound is dead on arrival --
        and stays dead, because the bound never increases.
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
            below = dists < bound
            keep = below if keep is None else keep & below
        if keep is not None:
            dists = dists[keep]
            ids = ids[keep]
        for dist, pid in zip(dists, ids):
            self.offer(float(dist), int(pid))

    def sorted_results(self) -> tuple[np.ndarray, np.ndarray]:
        """Drain the heap into ``(ids, dists)`` ascending by
        ``(distance, id)`` -- one vectorized lexsort, no tuple rebuild."""
        if not self._heap:
            return np.empty(0, dtype=np.int64), np.empty(0)
        neg_dists, heap_ids = zip(*self._heap)
        dists = -np.asarray(neg_dists, dtype=np.float64)
        ids = np.asarray(heap_ids, dtype=np.int64)
        order = np.lexsort((ids, dists))
        return ids[order], dists[order]


def nearest_neighbors(
    tree: IQTree, query: np.ndarray, k: int = 1, scheduler: str = "optimized"
) -> NNResult:
    """Exact k-NN search on an IQ-tree.

    See the module docstring for the algorithm; ``scheduler`` selects the
    page-access strategy.  With a fault context attached
    (``tree.use_fault_tolerance()``), unreadable data degrades the
    result instead of aborting it; without one, any storage failure
    surfaces as :class:`~repro.exceptions.QueryDataError`.
    """
    if k < 1:
        raise SearchError("k must be at least 1")
    if scheduler not in ("optimized", "standard"):
        raise SearchError(f"unknown scheduler: {scheduler!r}")
    tree._ensure_clean()
    if k > tree.n_points:
        raise SearchError(f"k={k} exceeds the {tree.n_points} stored points")
    query = checked_query(tree, query)
    query_id = next_query_id()
    try:
        if tree._flight_recorder is not None:
            from repro.obs.flight import observe_single

            return observe_single(
                tree._flight_recorder, tree, "nearest", query_id,
                lambda: _nearest_impl(tree, query, k, scheduler),
            )
        return _nearest_impl(tree, query, k, scheduler)
    except StorageError as exc:
        raise_query_error(exc, tree, query_id)


def _nearest_impl(
    tree: IQTree, query: np.ndarray, k: int, scheduler: str
) -> NNResult:
    ctx = tree._fault_ctx
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

    # Degraded-mode state; stays empty on the pristine path.
    intervals: dict[int, tuple[float, float]] = {}
    lost_pages: list[LostPage] = []
    handles_by_page: dict[int, PageHandle] = {}
    quarantined_local: set[int] = (
        set(ctx.quarantine.local_indices(tree._quant_file))
        if ctx is not None
        else set()
    )

    def lose_page(page: int) -> None:
        """Record a second-level page as unreadable (partition lost)."""
        processed[page] = True
        lost_pages.append(
            LostPage(
                page=int(page),
                n_points=int(tree._counts[page]),
                mindist=float(page_mindists[page]),
                maxdist=float(
                    maxdist_to_boxes(
                        query,
                        tree._lowers[page : page + 1],
                        tree._uppers[page : page + 1],
                        metric,
                    )[0]
                ),
            )
        )
        ctx.lost_pages += 1
        if REGISTRY.enabled:
            LOST_PAGES.inc()

    ties = _Ties(n_pages)
    heap = _page_entries(page_mindists)

    while heap and heap[0][0] <= best.bound():
        _dist, _t, kind, page, local, _run, _pos = _pop(heap)
        if kind == _POINT:
            if ctx is None:
                coords, pid = exact.fetch(page, local)
                best.offer(metric.distance(query, coords), pid)
            else:
                _refine_degraded(
                    tree, ctx, exact, query, page, local,
                    best, intervals, handles_by_page,
                )
            continue
        if processed[page]:
            continue
        cached = tree._cached_handle(page)
        if cached is not None:
            # Decoded-cache hit: the pivot costs no I/O at all, so no
            # speculative window is planned around it.
            handles = [cached]
        elif ctx is None:
            if scheduler == "standard":
                handles = [tree._read_page(page)]
            else:
                handles = _read_window(
                    tree, query, page, page_mindists, processed,
                    best.bound(), k,
                )
        else:
            if page in quarantined_local:
                lose_page(page)
                continue
            handles = _load_pages_degraded(
                tree, ctx, query, page, page_mindists, processed,
                best.bound(), k, scheduler, quarantined_local, lose_page,
            )
        for handle in handles:
            processed[handle.index] = True
            pages_read += 1
            if ctx is not None and handle.codes is not None:
                handles_by_page[handle.index] = handle
            _process_page(tree, query, handle, best, heap, ties)

    ids, dists = best.sorted_results()
    degraded = bool(intervals or lost_pages)
    certain = None
    result_intervals = None
    if degraded:
        certain = _certain_mask(ids, intervals)
        result_intervals = {
            pid: intervals[pid] for pid in ids.tolist() if pid in intervals
        }
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

    The candidate page set is known up front (every page whose MBR
    mindist is within the radius), so the pages are fetched with the
    optimal batched strategy of Section 2.  A point whose cell maxdist
    is within the radius is a certain answer but is still refined --
    returning an answer means producing its exact record; a point whose
    cell straddles the radius is refined to decide.
    """
    if radius < 0:
        raise SearchError("radius must be non-negative")
    tree._ensure_clean()
    query = checked_query(tree, query)
    query_id = next_query_id()
    try:
        if tree._flight_recorder is not None:
            from repro.obs.flight import observe_single

            return observe_single(
                tree._flight_recorder, tree, "range", query_id,
                lambda: _range_impl(tree, query, radius),
            )
        return _range_impl(tree, query, radius)
    except StorageError as exc:
        raise_query_error(exc, tree, query_id)


def _range_impl(tree: IQTree, query: np.ndarray, radius: float) -> RangeResult:
    ctx = tree._fault_ctx
    io_before = io_snapshot(tree)
    tree._charge_directory_scan()
    metric = tree.metric
    page_mindists = mindist_to_boxes(
        query, tree._lowers, tree._uppers, metric
    )
    candidates = np.flatnonzero(page_mindists <= radius)
    exact = ExactStore(tree)
    id_runs: list[np.ndarray] = []
    dist_runs: list[np.ndarray] = []
    intervals: dict[int, tuple[float, float]] = {}
    lost_pages: list[LostPage] = []
    pages_read = 0

    # Pages resident in the decoded cache need no fetch at all; only
    # the rest go into the batched transfer.
    cached_handles: dict[int, PageHandle] = {}
    to_fetch: list[int] = []
    for page in candidates.tolist():
        handle = tree._cached_handle(page)
        if handle is not None:
            cached_handles[page] = handle
        else:
            to_fetch.append(page)

    if ctx is None:
        payloads = tree._quant_file.read_batched(to_fetch)
    else:
        payloads, lost_local = fetch_with_quarantine(
            tree._quant_file, tree.disk, ctx, to_fetch
        )
        for page in lost_local:
            # Membership of every point in the page is unknowable;
            # maxdist is irrelevant for a radius predicate.
            lost_pages.append(
                LostPage(
                    page=int(page),
                    n_points=int(tree._counts[page]),
                    mindist=float(page_mindists[page]),
                    maxdist=float("inf"),
                )
            )
            ctx.lost_pages += 1
            if REGISTRY.enabled:
                LOST_PAGES.inc()
    for page in candidates.tolist():
        handle = cached_handles.get(page)
        if handle is None:
            if page not in payloads:
                continue  # lost page, reported above
            handle = tree._decode_page_payload(page, payloads[page])
        pages_read += 1
        if handle.points is not None:
            dists = metric.distances(query, handle.points)
            inside = dists <= radius
            id_runs.append(handle.ids[inside].astype(np.int64, copy=False))
            dist_runs.append(dists[inside].astype(np.float64, copy=False))
            continue
        quantizer = tree._codec_view(page, handle)
        lower_b = quantizer.cell_mindist(query, handle.codes, metric)
        upper_b = None
        page_ids: list[int] = []
        page_dists: list[float] = []
        for local in np.flatnonzero(lower_b <= radius):
            if ctx is None:
                coords, pid = exact.fetch(page, int(local))
            else:
                try:
                    coords, pid = exact.fetch(page, int(local))
                except (ReadFaultError, IntegrityError) as exc:
                    if fault_address(exc) is None:
                        raise
                    if upper_b is None:
                        upper_b = quantizer.cell_maxdist(
                            query, handle.codes, metric
                        )
                    # Possible member: cell overlaps the radius but the
                    # exact record is gone.  Include it flagged
                    # uncertain at the conservative maxdist.
                    pid = int(tree._part_ids[page][local])
                    lo = float(lower_b[local])
                    hi = float(upper_b[local])
                    page_ids.append(pid)
                    page_dists.append(hi)
                    intervals[pid] = (lo, hi)
                    ctx.degraded_results += 1
                    if REGISTRY.enabled:
                        DEGRADED_RESULTS.inc()
                    continue
            dist = metric.distance(query, coords)
            if dist <= radius:
                page_ids.append(pid)
                page_dists.append(dist)
        if page_ids:
            id_runs.append(np.array(page_ids, dtype=np.int64))
            dist_runs.append(np.array(page_dists, dtype=np.float64))

    if id_runs:
        found_ids = np.concatenate(id_runs)
        found_dists = np.concatenate(dist_runs)
    else:
        found_ids = np.empty(0, dtype=np.int64)
        found_dists = np.empty(0)
    order = np.argsort(found_dists, kind="stable")
    ids_sorted = found_ids[order]
    degraded = bool(intervals or lost_pages)
    certain = None
    result_intervals = None
    if degraded:
        certain = certain_mask(ids_sorted, intervals)
        result_intervals = dict(intervals)
    io_after = io_snapshot(tree)
    result = RangeResult(
        ids=ids_sorted,
        distances=found_dists[order],
        io=io_delta(io_before, io_after),
        pages_read=pages_read,
        refinements=exact.refinements,
        certain=certain,
        intervals=result_intervals,
        lost_pages=tuple(lost_pages),
        degraded=degraded,
    )
    if REGISTRY.enabled:
        # The cost model predicts kNN queries only, so range queries
        # feed the latency histogram but not the drift monitor.
        QUERY_SECONDS.observe(result.io.elapsed)
    return result


def browse_by_distance(tree: IQTree, query: np.ndarray):
    """Incremental distance browsing (Hjaltason-Samet ranking).

    Yields ``(point_id, distance)`` pairs in ascending distance order,
    lazily: pages are loaded and points refined only as far as the
    consumer iterates, so taking the first k results does no more I/O
    than a k-NN query with an unknown k.  This is the natural API for
    "give me neighbors until I say stop" workloads; the paper's k-NN
    algorithm is the bounded special case.

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
    while heap:
        dist, _t, kind, page, item, _run, _pos = _pop(heap)
        if kind == _RESULT:
            yield int(item), float(dist)
            continue
        if kind == _POINT:
            coords, pid = exact.fetch(page, item)
            true = metric.distance(query, coords)
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
    """Decode one page: exact pages update the result directly, coarser
    pages enter the cells that survive the current bound as one run."""
    metric = tree.metric
    if handle.points is not None:
        dists = metric.distances(query, handle.points)
        best.offer_many(dists, handle.ids)
        return
    quantizer = tree._codec_view(handle.index, handle)
    lower_b = quantizer.cell_mindist(query, handle.codes, metric)
    survivors = np.flatnonzero(lower_b <= best.bound())
    _push_run(heap, ties, _POINT, handle.index, lower_b[survivors], survivors)


def _plan_window(
    tree: IQTree,
    query: np.ndarray,
    pivot: int,
    page_mindists: np.ndarray,
    processed: np.ndarray,
    bound: float,
    k: int,
    forbidden: frozenset[int] = frozenset(),
) -> tuple[int, int, list[int]]:
    """Plan the cost-balance window around a pivot (Section 2.1).

    Builds the pending-page snapshot, evaluates access probabilities for
    file-order neighbors of the pivot, and extends the transfer while
    the cumulated cost balance stays favorable.  ``forbidden`` blocks
    (quarantined pages) stop the speculative scan.  Returns ``(first,
    last, to_process)``.
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

    def probability(block: int) -> float:
        snap = snapshot_of[block]
        if snap < 0:
            return 0.0
        return float(
            access_probabilities(
                query, view, np.array([snap]), metric=tree.metric, k=k
            )[0]
        )

    first, last = cost_balance_window(
        pivot, n_pages, probability, tree.disk.model, forbidden=forbidden
    )
    to_process = [
        j for j in range(first, last + 1) if not processed[j] and pending[j]
    ]
    return first, last, to_process


def _read_window(
    tree: IQTree,
    query: np.ndarray,
    pivot: int,
    page_mindists: np.ndarray,
    processed: np.ndarray,
    bound: float,
    k: int = 1,
) -> list[PageHandle]:
    """Plan and execute one cost-balance page fetch (pristine path)."""
    first, last, to_process = _plan_window(
        tree, query, pivot, page_mindists, processed, bound, k
    )
    payloads = tree._read_page_run(first, last, wanted=len(to_process))
    return [
        tree._decode_page_payload(j, payloads[j - first])
        for j in to_process
    ]


def _load_pages_degraded(
    tree: IQTree,
    ctx,
    query: np.ndarray,
    pivot: int,
    page_mindists: np.ndarray,
    processed: np.ndarray,
    bound: float,
    k: int,
    scheduler: str,
    quarantined_local: set[int],
    lose_page,
) -> list[PageHandle]:
    """Load a pivot's pages under the fault context.

    The optimized scheduler first tries the planned sequential window
    (quarantined pages already split it); if the transfer itself faults
    out its retries, the wanted pages are re-read one by one so a single
    dead block costs exactly one partition, not the whole window.
    Unreadable pages are reported through ``lose_page`` and
    ``quarantined_local`` is kept in sync with the context's quarantine.
    """
    if scheduler == "standard":
        to_process = [pivot]
    else:
        first, last, to_process = _plan_window(
            tree, query, pivot, page_mindists, processed, bound, k,
            forbidden=frozenset(quarantined_local),
        )
        try:
            payloads = ctx.run(
                lambda: tree._read_page_run(
                    first, last, wanted=len(to_process)
                ),
                tree.disk,
            )
            return [
                tree._decode_page_payload(j, payloads[j - first])
                for j in to_process
            ]
        except (ReadFaultError, IntegrityError) as exc:
            if fault_address(exc) is None:
                raise
            quarantined_local.update(
                ctx.quarantine.local_indices(tree._quant_file)
            )
    handles: list[PageHandle] = []
    for j in to_process:
        if j in quarantined_local:
            lose_page(j)
            continue
        try:
            handles.append(
                ctx.run(lambda j=j: tree._read_page(j), tree.disk)
            )
        except (ReadFaultError, IntegrityError) as exc:
            if fault_address(exc) is None:
                raise
            quarantined_local.update(
                ctx.quarantine.local_indices(tree._quant_file)
            )
            lose_page(j)
    return handles


def _refine_degraded(
    tree: IQTree,
    ctx,
    exact: ExactStore,
    query: np.ndarray,
    page: int,
    local: int,
    best: "KBest",
    intervals: dict[int, tuple[float, float]],
    handles_by_page: dict[int, PageHandle],
) -> None:
    """Refine one point, falling back to its cell interval on failure.

    The fallback offers the point at its cell *maxdist* -- a sound upper
    bound on the true distance, so KBest pruning stays conservative --
    and records the full ``[mindist, maxdist]`` interval, which provably
    contains the exact distance (grid-cell containment, paper Section
    3.2).
    """
    metric = tree.metric
    try:
        coords, pid = exact.fetch(page, local)
    except (ReadFaultError, IntegrityError) as exc:
        if fault_address(exc) is None:
            raise
        handle = handles_by_page[page]
        quantizer = tree._codec_view(page, handle)
        code = handle.codes[local : local + 1]
        lo = float(quantizer.cell_mindist(query, code, metric)[0])
        hi = float(quantizer.cell_maxdist(query, code, metric)[0])
        pid = int(tree._part_ids[page][local])
        best.offer(hi, pid)
        intervals[pid] = (lo, hi)
        ctx.degraded_results += 1
        if REGISTRY.enabled:
            DEGRADED_RESULTS.inc()
        return
    best.offer(metric.distance(query, coords), pid)


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


_certain_mask = certain_mask


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
