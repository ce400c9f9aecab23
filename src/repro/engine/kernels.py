"""Pure, picklable per-query kernels of the batch query engine.

The engine's batch algorithms split into coordinator phases (simulated
I/O, shared-state side effects) and per-query phases (candidate
bounding, result assembly) that are pure numpy over read-only inputs.
This module holds the per-query phases as module-level functions whose
inputs are plain data -- query rows, candidate masks and one
:class:`PageTable` per batch -- with no ``IQTree``, ``BlockFile``, or
cache object anywhere in the hot path.  That makes them shippable to
*worker processes* (everything here pickles), which is what lets
``QueryEngine(workers=N)`` scale on real cores instead of serializing
on the GIL.

The page table stacks every loaded page's per-point rows into a few
contiguous arrays with page offsets (:class:`PageStack`): the cell
boxes and ids of the quantized pages, the coordinates and ids of the
exact pages.  A plan kernel bounds all of a query's candidate points in
one ``mindist_to_boxes`` pass over its candidate rows, computes upper
bounds only for the few points that can set the k-th radius, and turns
rows back into ``(page, local)`` keys only for the points that survive.

Both executor backends (and the serial ``workers=1`` path) run exactly
these functions, so thread/process/serial execution is bit-identical by
construction; the equivalence tests in ``tests/test_engine_parallel.py``
pin it.

Large arrays travel by reference when the engine freezes them into a
:class:`~repro.engine.shm.SharedArena` -- a fixed number of arrays per
batch, however many pages it loaded: any array field of a task (or of
its :class:`PageTable`) may arrive as an
:class:`~repro.engine.shm.ArrayRef`, and each kernel first calls the
task's ``resolved()`` to materialize zero-copy views.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.search import KBest, certain_mask
from repro.engine.shm import resolve
from repro.engine.stats import QueryStats
from repro.geometry.mbr import maxdist_to_boxes, mindist_to_boxes
from repro.obs.tracing import SpanRecord, ledger_state
from repro.storage.runtime_faults import LostPage

__all__ = [
    "BatchQueryResult",
    "PageStack",
    "PageTable",
    "KnnPlanTask",
    "KnnAssembleTask",
    "RangePlanTask",
    "RangeAssembleTask",
    "plan_knn_shard",
    "plan_range_shard",
    "assemble_knn_shard",
    "assemble_range_shard",
]


@dataclass
class BatchQueryResult:
    """Answer to one query of a batch.

    ``ids``/``distances`` are sorted ascending by distance, exactly as
    the single-query search APIs return them; ``stats`` records the
    logical work this query caused.  The degraded-mode fields mirror
    :class:`~repro.core.search.NNResult`: ``certain`` flags which
    results are exact, ``intervals`` carries the ``(mindist, maxdist)``
    bound of each uncertain result, and ``lost_pages`` reports
    second-level pages this query could not read at all.
    """

    ids: np.ndarray
    distances: np.ndarray
    stats: QueryStats
    certain: np.ndarray | None = None
    intervals: dict[int, tuple[float, float]] | None = None
    lost_pages: tuple = ()
    degraded: bool = False


def _freeze(value, arena):
    # Zero-size arrays (a stack without pages) pickle for free inline.
    if isinstance(value, np.ndarray) and value.size:
        return arena.put(value)
    return value


@dataclass
class PageStack:
    """Row-aligned per-point arrays of many pages, in ascending page order.

    Point ``local`` of page ``pages[s]`` is row ``offsets[s] + local`` of
    every array in ``rows``; ``offsets`` has one entry more than
    ``pages`` and ends at the row count.  A page with no points takes no
    rows.  Stacking lets a kernel bound all of a query's candidate
    points in one numpy pass and lets the stack ship as a fixed number
    of arena arrays, however many pages it holds.
    """

    pages: object  # (P,) int64 page numbers, ascending
    offsets: object  # (P + 1,) int64 first row of each page
    rows: tuple  # row-aligned arrays, each (n, ...)

    @classmethod
    def stack(cls, entries, empty: tuple) -> "PageStack":
        """Stack ``(page, arrays)`` entries (ascending pages); ``empty``
        gives the zero-row arrays of a stack without entries."""
        counts = [len(arrays[0]) for _page, arrays in entries]
        offsets = np.zeros(len(entries) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        if entries:
            rows = tuple(
                np.concatenate([arrays[i] for _page, arrays in entries])
                for i in range(len(empty))
            )
        else:
            rows = empty
        return cls(
            pages=np.array([page for page, _ in entries], dtype=np.int64),
            offsets=offsets,
            rows=rows,
        )

    def frozen(self, arena) -> "PageStack":
        return PageStack(
            pages=_freeze(self.pages, arena),
            offsets=_freeze(self.offsets, arena),
            rows=tuple(_freeze(a, arena) for a in self.rows),
        )

    def resolved(self) -> "PageStack":
        return PageStack(
            pages=resolve(self.pages),
            offsets=resolve(self.offsets),
            rows=tuple(resolve(a) for a in self.rows),
        )

    def select(self, pages: np.ndarray):
        """Rows of those of ``pages`` (ascending) this stack holds.

        A slice when the pages are adjacent in the stack, so the kernel
        bounds a view instead of copying the candidate rows; otherwise
        an ascending row-index array.
        """
        slots = np.searchsorted(self.pages, pages)
        held = slots < self.pages.size
        held[held] = self.pages[slots[held]] == pages[held]
        slots = slots[held]
        if slots.size == 0:
            return slice(0, 0)
        starts = self.offsets[slots]
        ends = self.offsets[slots + 1]
        if slots[-1] - slots[0] + 1 == slots.size:
            return slice(int(starts[0]), int(ends[-1]))
        lengths = ends - starts
        first = np.cumsum(lengths) - lengths
        return np.repeat(starts - first, lengths) + np.arange(
            int(lengths.sum())
        )

    def keys(self, rows: np.ndarray) -> list[tuple[int, int]]:
        """``(page, local)`` of each row in ``rows``, in that order."""
        slots = np.searchsorted(self.offsets, rows, side="right") - 1
        return list(
            zip(
                self.pages[slots].tolist(),
                (rows - self.offsets[slots]).tolist(),
            )
        )

    def row(self, page: int, local: int) -> int:
        """Row of point ``local`` of ``page``."""
        slot = int(np.searchsorted(self.pages, page))
        return int(self.offsets[slot]) + local


def _rows_at(selection, positions: np.ndarray) -> np.ndarray:
    """Stack rows of ``positions`` within a :meth:`PageStack.select`."""
    if isinstance(selection, slice):
        return positions + selection.start
    return selection[positions]


@dataclass
class PageTable:
    """Decoded views of a batch's loaded pages, as two page stacks.

    ``exact`` stacks the pages stored at full resolution as ``(points,
    ids)`` rows; ``quant`` stacks the quantized pages as ``(lower,
    upper, ids)`` rows -- each point's conservative cell box and id (the
    id is needed only for interval fallbacks of unreadable records).
    Built by the engine from the per-batch decode cache *after* all
    simulated I/O has been charged; kernels only ever read it.
    """

    exact: PageStack
    quant: PageStack

    def frozen(self, arena) -> "PageTable":
        """A copy whose arrays live in ``arena`` (ships as refs)."""
        return PageTable(
            exact=self.exact.frozen(arena), quant=self.quant.frozen(arena)
        )

    def resolved(self) -> "PageTable":
        """A copy with every :class:`ArrayRef` materialized as a view."""
        return PageTable(
            exact=self.exact.resolved(), quant=self.quant.resolved()
        )


@dataclass
class KnnPlanTask:
    """Inputs of the kNN candidate-bounding phase (phase 1)."""

    queries: object  # (q, d) array or ArrayRef
    k: int
    cand_mask: object  # (q, pages) bool array or ArrayRef
    lost: frozenset  # pages the coordinator could not read
    metric: object  # repro.geometry.metrics.Metric (stateless)
    table: PageTable
    trace: bool = False  # emit per-query SpanRecords

    def frozen(self, arena) -> "KnnPlanTask":
        return replace(
            self,
            queries=_freeze(self.queries, arena),
            cand_mask=_freeze(self.cand_mask, arena),
            table=self.table.frozen(arena),
        )

    def resolved(self) -> "KnnPlanTask":
        return replace(
            self,
            queries=resolve(self.queries),
            cand_mask=resolve(self.cand_mask),
            table=self.table.resolved(),
        )


@dataclass
class KnnAssembleTask:
    """Inputs of the kNN result-assembly phase (phase 3)."""

    queries: object
    k: int
    metric: object
    table: PageTable
    plans: list  # phase-1 output, one dict per query
    points: dict  # (page, local) -> (coords, id); fetched records
    counts: object  # per-page point counts (LostPage reporting)
    dmin: object  # (q, pages) directory mindist matrix
    dmax: object  # (q, pages) directory maxdist matrix
    trace: bool = False  # emit per-query SpanRecords

    def frozen(self, arena) -> "KnnAssembleTask":
        return replace(
            self,
            queries=_freeze(self.queries, arena),
            table=self.table.frozen(arena),
            counts=_freeze(self.counts, arena),
            dmin=_freeze(self.dmin, arena),
            dmax=_freeze(self.dmax, arena),
        )

    def resolved(self) -> "KnnAssembleTask":
        return replace(
            self,
            queries=resolve(self.queries),
            table=self.table.resolved(),
            counts=resolve(self.counts),
            dmin=resolve(self.dmin),
            dmax=resolve(self.dmax),
        )


@dataclass
class RangePlanTask:
    """Inputs of the range candidate-classification phase."""

    queries: object
    radii: object  # (q,) array or ArrayRef
    cand_mask: object
    lost: frozenset
    metric: object
    table: PageTable
    trace: bool = False  # emit per-query SpanRecords

    def frozen(self, arena) -> "RangePlanTask":
        return replace(
            self,
            queries=_freeze(self.queries, arena),
            radii=_freeze(self.radii, arena),
            cand_mask=_freeze(self.cand_mask, arena),
            table=self.table.frozen(arena),
        )

    def resolved(self) -> "RangePlanTask":
        return replace(
            self,
            queries=resolve(self.queries),
            radii=resolve(self.radii),
            cand_mask=resolve(self.cand_mask),
            table=self.table.resolved(),
        )


@dataclass
class RangeAssembleTask:
    """Inputs of the range result-assembly phase."""

    queries: object
    radii: object
    metric: object
    table: PageTable
    plans: list
    points: dict
    counts: object
    dmin: object
    trace: bool = False  # emit per-query SpanRecords

    def frozen(self, arena) -> "RangeAssembleTask":
        return replace(
            self,
            queries=_freeze(self.queries, arena),
            radii=_freeze(self.radii, arena),
            table=self.table.frozen(arena),
            counts=_freeze(self.counts, arena),
            dmin=_freeze(self.dmin, arena),
        )

    def resolved(self) -> "RangeAssembleTask":
        return replace(
            self,
            queries=resolve(self.queries),
            radii=resolve(self.radii),
            table=self.table.resolved(),
            counts=resolve(self.counts),
            dmin=resolve(self.dmin),
        )


# ----------------------------------------------------------------------
# Shared pure helpers
# ----------------------------------------------------------------------
def _candidates(cand_row, lost_set):
    """Split one query's candidate pages into (readable, lost).

    Matches the engine's historical branch structure exactly: with no
    lost pages the flatnonzero array passes through untouched.
    """
    cand = np.flatnonzero(cand_row)
    if lost_set:
        lost = [p for p in cand.tolist() if p in lost_set]
        cand = np.array(
            [p for p in cand.tolist() if p not in lost_set],
            dtype=np.int64,
        )
    else:
        lost = []
    return cand, lost


def _kth_smallest(values: np.ndarray, k: int):
    return np.partition(values, k - 1)[k - 1]


def plan_knn_query(query, k, pages, table, metric) -> dict:
    """Bound every candidate point of one query; pick refinements.

    A quantized point is refined when its lower bound is at most tau,
    the k-th smallest upper bound over all candidate points (an exact
    point's distance is both its bounds).  Lower bounds come from one
    ``mindist_to_boxes`` pass over the query's stacked candidate rows;
    upper bounds are computed only where they can decide tau:

    1. Seed: the k quantized points with the smallest lower bounds
       (all of them when there are fewer).  T' is the k-th smallest of
       their upper bounds pooled with the exact distances.
    2. S is the set of quantized points with lower bound <= T'; tau is
       the k-th smallest of S's upper bounds pooled with the exact
       distances.

    This tau is the same float as the k-th smallest upper bound over
    *all* candidates.  Every seed point whose upper bound is <= T' has
    lower <= upper <= T', so it is in S; the pool that defined T'
    therefore puts at least k values <= T' into S plus the exact
    distances, and the k-th smallest of those is <= T'.  Any point
    outside S has upper >= lower > T', so adding it cannot move the
    k-th smallest.  Each bound is computed row by row, so a row's value
    does not depend on which other rows share the call, and ``lower <=
    tau`` selects the same refinement set, in ascending ``(page,
    local)`` order as the tie handling of :class:`KBest` requires.
    """
    points, ids = table.exact.rows
    exact_sel = table.exact.select(pages)
    exact_dists = metric.distances(query, points[exact_sel])
    lo, up, _ids = table.quant.rows
    sel = table.quant.select(pages)
    lo, up = lo[sel], up[sel]
    lower = mindist_to_boxes(query, lo, up, metric)
    candidate_points = exact_dists.size + lower.size
    if candidate_points < k:
        tau = np.inf
    else:
        seed = (
            np.argpartition(lower, k - 1)[:k]
            if lower.size > k
            else slice(None)
        )
        seed_up = maxdist_to_boxes(query, lo[seed], up[seed], metric)
        t_prime = _kth_smallest(np.concatenate([exact_dists, seed_up]), k)
        in_s = np.flatnonzero(lower <= t_prime)
        s_up = maxdist_to_boxes(query, lo[in_s], up[in_s], metric)
        tau = _kth_smallest(np.concatenate([exact_dists, s_up]), k)
    survivors = np.flatnonzero(lower <= tau)
    return {
        "exact_dists": exact_dists,
        "exact_ids": ids[exact_sel],
        "refine": table.quant.keys(_rows_at(sel, survivors)),
        "candidate_points": candidate_points,
    }


def plan_range_query(query, radius, pages, table, metric) -> dict:
    """Classify one query's candidate points for a range search."""
    points, ids = table.exact.rows
    exact_sel = table.exact.select(pages)
    dists = metric.distances(query, points[exact_sel])
    inside = dists <= radius
    lo, up, _ids = table.quant.rows
    sel = table.quant.select(pages)
    lower = mindist_to_boxes(query, lo[sel], up[sel], metric)
    survivors = np.flatnonzero(lower <= radius)
    return {
        "exact_ids": ids[exact_sel][inside].astype(np.int64, copy=False),
        "exact_dists": dists[inside].astype(np.float64, copy=False),
        "refine": table.quant.keys(_rows_at(sel, survivors)),
        "candidate_points": dists.size + lower.size,
    }


def refined_distances(query, refine, points, metric) -> dict:
    """Exact distances of one query's available refinements.

    One vectorized ``metric.distances`` call over the fetched records
    (bitwise identical to per-point ``metric.distance``: the reduction
    runs over the same axis in the same order).
    """
    avail = [key for key in refine if key in points]
    if not avail:
        return {}
    coords = np.array([points[key][0] for key in avail])
    dists = metric.distances(query, coords)
    return {key: float(d) for key, d in zip(avail, dists)}


def interval_for(query, key, table, metric) -> tuple[int, float, float]:
    """A point's cell interval (its record was unreadable).

    Pure: returns ``(id, mindist, maxdist)`` -- the interval provably
    contains the exact distance, and ``maxdist`` is a sound
    conservative ranking distance.  Fault-context counters and registry
    instruments are applied later, on the coordinator, in query order.
    """
    row = table.quant.row(*key)
    lo_box, up_box, ids = table.quant.rows
    lo = float(
        mindist_to_boxes(
            query, lo_box[row : row + 1], up_box[row : row + 1], metric
        )[0]
    )
    hi = float(
        maxdist_to_boxes(
            query, lo_box[row : row + 1], up_box[row : row + 1], metric
        )[0]
    )
    return int(ids[row]), lo, hi


def assemble_result(
    ids, dists, intervals, lost_records, stats
) -> BatchQueryResult:
    """Build one BatchQueryResult, attaching degraded-mode fields.

    Pure (safe in workers): shared-state side effects happen on the
    coordinator, in query order.
    """
    degraded = bool(intervals or lost_records)
    certain = None
    result_intervals = None
    if degraded:
        certain = certain_mask(ids, intervals)
        result_intervals = {
            pid: intervals[pid]
            for pid in ids.tolist()
            if pid in intervals
        }
    return BatchQueryResult(
        ids=ids,
        distances=dists,
        stats=stats,
        certain=certain,
        intervals=result_intervals,
        lost_pages=lost_records,
        degraded=degraded,
    )


# ----------------------------------------------------------------------
# Shard entry points (what the worker pool runs)
# ----------------------------------------------------------------------
#
# When ``task.trace`` is set, each entry point also emits one
# picklable :class:`~repro.obs.tracing.SpanRecord` per query, windowed
# on the worker's private ledger (whose deltas the determinism
# contract keeps at zero -- so records are identical for any worker
# count or backend).  Plan records ride inside the plan dicts under
# ``"spans"``; assemble outputs grow from pairs to
# ``(result, n_intervals, records)`` triples.  The coordinator pops
# them off and stitches them into the ambient tracer in query order.

def plan_knn_shard(task: KnnPlanTask, indices, _ledger) -> list[dict]:
    """Phase 1 (pure): per-query point-level bounds + refinement picks."""
    task = task.resolved()
    out = []
    for i in indices:
        before = ledger_state(_ledger) if task.trace else None
        cand, lost = _candidates(task.cand_mask[i], task.lost)
        plan = plan_knn_query(
            task.queries[i], task.k, cand, task.table, task.metric
        )
        plan["lost"] = lost
        plan["candidate_pages"] = int(np.count_nonzero(task.cand_mask[i]))
        if task.trace:
            plan["spans"] = (
                SpanRecord.capture(
                    "plan-query",
                    _ledger,
                    before,
                    query=int(i),
                    pages=plan["candidate_pages"],
                    points=plan["candidate_points"],
                    refine=len(plan["refine"]),
                    lost=len(lost),
                ),
            )
        out.append(plan)
    return out


def plan_range_shard(task: RangePlanTask, indices, _ledger) -> list[dict]:
    """Phase 1 (pure): per-query candidate classification."""
    task = task.resolved()
    out = []
    for i in indices:
        before = ledger_state(_ledger) if task.trace else None
        cand, lost = _candidates(task.cand_mask[i], task.lost)
        plan = plan_range_query(
            task.queries[i],
            float(task.radii[i]),
            cand,
            task.table,
            task.metric,
        )
        plan["lost"] = lost
        plan["candidate_pages"] = int(np.count_nonzero(task.cand_mask[i]))
        if task.trace:
            plan["spans"] = (
                SpanRecord.capture(
                    "plan-query",
                    _ledger,
                    before,
                    query=int(i),
                    pages=plan["candidate_pages"],
                    points=plan["candidate_points"],
                    refine=len(plan["refine"]),
                    lost=len(lost),
                ),
            )
        out.append(plan)
    return out


def assemble_knn_shard(task: KnnAssembleTask, indices, _ledger) -> list:
    """Phase 3 (pure): per-query kNN result assembly.

    Returns ``(result, n_intervals)`` pairs; the coordinator applies
    the degraded-mode side effects in query order afterwards.
    """
    task = task.resolved()
    out = []
    for i in indices:
        before = ledger_state(_ledger) if task.trace else None
        plan = task.plans[i]
        best = KBest(task.k)
        intervals: dict[int, tuple[float, float]] = {}
        best.offer_many(plan["exact_dists"], plan["exact_ids"])
        dist_of = refined_distances(
            task.queries[i], plan["refine"], task.points, task.metric
        )
        for key in plan["refine"]:
            if key in dist_of:
                best.offer(dist_of[key], task.points[key][1])
            else:
                pid, lo, hi = interval_for(
                    task.queries[i], key, task.table, task.metric
                )
                intervals[pid] = (lo, hi)
                best.offer(hi, pid)
        ids, dists = best.sorted_results()
        lost_records = tuple(
            LostPage(
                page=int(p),
                n_points=int(task.counts[p]),
                mindist=float(task.dmin[i, p]),
                maxdist=float(task.dmax[i, p]),
            )
            for p in plan["lost"]
        )
        result = assemble_result(
            ids, dists, intervals, lost_records,
            QueryStats(
                candidate_pages=plan["candidate_pages"],
                candidate_points=plan["candidate_points"],
                refinements=len(plan["refine"]),
            ),
        )
        if task.trace:
            record = SpanRecord.capture(
                "assemble-query",
                _ledger,
                before,
                query=int(i),
                refine=len(plan["refine"]),
                intervals=len(intervals),
                lost=len(lost_records),
            )
            out.append((result, len(intervals), (record,)))
        else:
            out.append((result, len(intervals)))
    return out


def assemble_range_shard(task: RangeAssembleTask, indices, _ledger) -> list:
    """Phase 3 (pure): per-query range result assembly."""
    task = task.resolved()
    out = []
    for i in indices:
        before = ledger_state(_ledger) if task.trace else None
        plan = task.plans[i]
        intervals: dict[int, tuple[float, float]] = {}
        ref_ids: list[int] = []
        ref_dists: list[float] = []
        dist_of = refined_distances(
            task.queries[i], plan["refine"], task.points, task.metric
        )
        radius = float(task.radii[i])
        for key in plan["refine"]:
            if key in dist_of:
                dist = dist_of[key]
                if dist <= radius:
                    ref_ids.append(task.points[key][1])
                    ref_dists.append(dist)
            else:
                # Unreadable record whose cell overlaps the ball:
                # include it conservatively at its cell maxdist,
                # flagged uncertain.
                pid, lo, hi = interval_for(
                    task.queries[i], key, task.table, task.metric
                )
                intervals[pid] = (lo, hi)
                ref_ids.append(pid)
                ref_dists.append(hi)
        found_ids = np.concatenate(
            [plan["exact_ids"], np.array(ref_ids, dtype=np.int64)]
        )
        found_dists = np.concatenate(
            [plan["exact_dists"], np.array(ref_dists, dtype=np.float64)]
        )
        order = np.argsort(found_dists, kind="stable")
        # A lost page may hold any number of in-range points; its
        # contribution cannot be bounded.
        lost_records = tuple(
            LostPage(
                page=int(p),
                n_points=int(task.counts[p]),
                mindist=float(task.dmin[i, p]),
                maxdist=float("inf"),
            )
            for p in plan["lost"]
        )
        result = assemble_result(
            found_ids[order],
            found_dists[order],
            intervals,
            lost_records,
            QueryStats(
                candidate_pages=plan["candidate_pages"],
                candidate_points=plan["candidate_points"],
                refinements=len(plan["refine"]),
            ),
        )
        if task.trace:
            record = SpanRecord.capture(
                "assemble-query",
                _ledger,
                before,
                query=int(i),
                refine=len(plan["refine"]),
                intervals=len(intervals),
                lost=len(lost_records),
            )
            out.append((result, len(intervals), (record,)))
        else:
            out.append((result, len(intervals)))
    return out
