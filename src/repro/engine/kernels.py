"""Pure, picklable per-query kernels of the batch query engine.

The engine's batch algorithms split into coordinator phases (simulated
I/O, shared-state side effects) and per-query phases (candidate
bounding, result assembly) that are pure numpy over read-only inputs.
This module holds the per-query phases as module-level functions whose
inputs are plain data -- query rows, candidate masks and one
:class:`PageTable` per batch -- with no ``IQTree``, ``BlockFile``, or
cache object anywhere in the hot path.  That makes them shippable to
*worker processes* (everything here pickles).  Processes have not paid
off as measured: on a 2-core host, 64-query kNN batches took 192 ms
per batch on two process workers against 180 ms on two thread workers
(``docs/performance.md``, "Backend selection"); the large numpy passes
release the GIL, so threads scale them without the shipping cost.

kNN and range share one task type per phase (:class:`PlanTask`,
:class:`AssembleTask`), each carrying its per-query parameter -- ``k``
or the radius array -- and one shard entry point per phase
(:func:`plan_shard`, :func:`assemble_shard`).  The only kind-specific
code is the per-query bodies: :func:`plan_knn_query` /
:func:`plan_range_query` and :func:`assemble_knn_query` /
:func:`assemble_range_query`.

The page table stacks every loaded page's per-point rows into a few
contiguous arrays with page offsets (:class:`PageStack`): the
coordinates and ids of the exact pages, the ids of the quantized
pages.  The quantized pages' cell boxes have one layout, derived once
per page by the decoded-page store (:func:`cell_boxes`): column-major
corners plus each page's bounding box.  The stack stacks the page
boxes but keeps references to the pages' own corner blocks, so a
one-query batch bounds the block of a page it needs in place and
gathers only the rows it bounds.  A batch of several queries reads a
table joined once (:meth:`PageTable.joined`): its queries then gather
from one array, not from every page they bound.

A plan kernel first abandons rows: it takes a bound (the radius, or for
kNN a k-th upper bound from the candidate page nearest the query),
folds each candidate row's per-dimension mindist terms in stages of a
few dimensions from the column-major corners, and drops a row as soon
as its partial fold exceeds the bound -- the partial-distance
elimination of branch-and-bound nearest-neighbour search.  Only the
rows that remain get one ``mindist_to_boxes`` pass, gathered as
C-contiguous rows (:meth:`PageStack.corners`) so each lower bound is
the same float a pass over every row would give; upper bounds are
computed only for the few points that can set the k-th radius, and
rows turn back into ``(page, local)`` keys only for the points that
survive.  :func:`plan_knn_query` carries the exactness proof.  A row's
bound reads the same floats whether its page's block is read in place
or from a joined copy, so both layouts give the same plans.

Both executor backends (and the serial ``workers=1`` path) run exactly
these functions, so thread/process/serial execution is bit-identical by
construction; the equivalence tests in ``tests/test_engine_parallel.py``
pin it.

Large arrays travel by reference when the engine freezes them into a
:class:`~repro.engine.shm.SharedArena` -- a fixed number of arrays per
batch, however many pages it loaded (a frozen stack is joined first):
any array field of a task (or of its :class:`PageTable`) may arrive as
an :class:`~repro.engine.shm.ArrayRef`, and each kernel first calls
the task's ``resolved()`` to materialize zero-copy views.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.search import KBest, cell_interval, degraded_fields
from repro.engine.shm import resolve
from repro.engine.stats import QueryStats
from repro.geometry.mbr import maxdist_to_boxes, mindist_to_boxes
from repro.obs.tracing import SpanRecord, ledger_state

__all__ = [
    "BatchQueryResult",
    "PageStack",
    "PageTable",
    "PlanTask",
    "AssembleTask",
    "plan_shard",
    "assemble_shard",
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


def _map(values, fn):
    return None if values is None else tuple(fn(v) for v in values)


def cell_boxes(lower: np.ndarray, upper: np.ndarray) -> tuple:
    """``(columns, box)`` of one page's ``(n, d)`` cell corners: their
    column-major ``(d, 2, n)`` copy (``columns[j, 0]`` is dimension
    ``j`` of every lower corner, ``columns[j, 1]`` of every upper one)
    and the page's ``(2, d)`` bounding box (``+inf``/``-inf`` without
    points).  Query-independent: derived once per page, into its
    decoded-page entry."""
    columns = np.empty((lower.shape[1], 2, len(lower)))
    columns[:, 0], columns[:, 1] = lower.T, upper.T
    box = np.empty((2, lower.shape[1]))
    box[0], box[1] = np.inf, -np.inf
    if len(lower):
        box[0], box[1] = lower.min(axis=0), upper.max(axis=0)
    return columns, box


@dataclass
class PageStack:
    """Row-aligned per-point arrays of many pages, in ascending page order.

    Point ``local`` of page ``pages[s]`` is row ``offsets[s] + local`` of
    every array in ``rows``; ``offsets`` has one entry more than
    ``pages`` and ends at the row count.  A page with no points takes no
    rows.  Stacking lets a kernel bound all of a query's candidate
    points in one numpy pass and lets the stack ship as a fixed number
    of arena arrays, however many pages it holds.

    A stack of cell boxes keeps only ids in ``rows``; its corners are
    ``blocks``, column-major ``(d, 2, n)`` blocks (see
    :func:`cell_boxes`): each page's own block, by reference, or one
    block joining them all (:meth:`joined`, which :meth:`frozen`
    applies).  ``boxes`` stacks the
    ``(P, 2, d)`` bounding boxes of its pages.  :meth:`columns` reads
    the corners of selected rows, in place when they are a slice of one
    block, and :meth:`corners` lays them out row-major for the exact
    bounding passes.  Other stacks leave both ``None``.
    """

    pages: object  # (P,) int64 page numbers, ascending
    offsets: object  # (P + 1,) int64 first row of each page
    rows: tuple  # row-aligned arrays, each (n, ...)
    blocks: tuple | None = None  # (d, 2, n) corners: one per page, or one
    boxes: object = None  # (P, 2, d) per-page bounding boxes

    @classmethod
    def stack(cls, entries, empty: tuple, dim: int | None = None):
        """Stack ``(page, arrays)`` entries (ascending pages); ``empty``
        gives the zero-row arrays of a stack without entries.  A box
        stack of ``dim`` dimensions takes ``(page, arrays, (columns,
        box))`` entries, as :func:`cell_boxes` lays each page out, and
        keeps each page's ``columns`` block as it is."""
        offsets = np.zeros(len(entries) + 1, dtype=np.int64)
        np.cumsum([len(entry[1][0]) for entry in entries], out=offsets[1:])
        rows = empty
        if entries:
            rows = tuple(
                np.concatenate([entry[1][i] for entry in entries])
                for i in range(len(empty))
            )
        blocks = boxes = None
        if dim is not None:
            blocks, boxes = (np.empty((dim, 2, 0)),), np.empty((0, 2, dim))
            if entries:
                blocks = tuple(e[2][0] for e in entries)
                boxes = np.array([e[2][1] for e in entries])
        return cls(
            pages=np.array([entry[0] for entry in entries], dtype=np.int64),
            offsets=offsets,
            rows=rows,
            blocks=blocks,
            boxes=boxes,
        )

    def joined(self) -> "PageStack":
        """This stack with its pages' blocks joined into one: what the
        queries of a batch of several gather their rows from, and what
        a frozen stack ships as one arena array."""
        if self.blocks is None or len(self.blocks) == 1:
            return self
        return replace(self, blocks=(np.concatenate(self.blocks, axis=2),))

    def frozen(self, arena) -> "PageStack":
        stack = self.joined()
        return PageStack(
            pages=_freeze(stack.pages, arena),
            offsets=_freeze(stack.offsets, arena),
            rows=tuple(_freeze(a, arena) for a in stack.rows),
            blocks=_map(stack.blocks, lambda a: _freeze(a, arena)),
            boxes=_freeze(stack.boxes, arena),
        )

    def resolved(self) -> "PageStack":
        return PageStack(
            pages=resolve(self.pages),
            offsets=resolve(self.offsets),
            rows=tuple(resolve(a) for a in self.rows),
            blocks=_map(self.blocks, resolve),
            boxes=resolve(self.boxes),
        )

    @property
    def dim(self) -> int:
        """Dimensions of a box stack's corners."""
        return self.blocks[0].shape[0]

    def slots(self, pages: np.ndarray) -> np.ndarray:
        """Stack slots of those of ``pages`` (ascending) this stack
        holds, ascending."""
        slots = np.searchsorted(self.pages, pages)
        held = slots < self.pages.size
        held[held] = self.pages[slots[held]] == pages[held]
        return slots[held]

    def select(self, pages: np.ndarray):
        """Rows of those of ``pages`` (ascending) this stack holds."""
        return self.rows_of(self.slots(pages))

    def rows_of(self, slots: np.ndarray):
        """Rows of the pages in ``slots`` (ascending).

        A slice when the pages are adjacent in the stack, so the kernel
        bounds a view instead of copying the candidate rows; otherwise
        an ascending row-index array.
        """
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

    def _pieces(self, rows) -> list:
        """``(block, local)`` pairs covering ``rows`` (an ascending
        :meth:`rows_of` selection) in row order: each block the rows lie
        in, and their selection within it -- a slice where they are a
        run of it."""
        blocks = self.blocks
        if len(blocks) == 1:
            return [(blocks[0], rows)]
        sliced = isinstance(rows, slice)
        if sliced:
            start, stop = rows.start, rows.stop
        else:
            start, stop = (
                (int(rows[0]), int(rows[-1]) + 1) if rows.size else (0, 0)
            )
        if start == stop:
            return [(blocks[0], rows)]
        # One block per page: page s's block holds rows offsets[s] to
        # offsets[s + 1].
        first, last = (
            self.offsets.searchsorted((start, stop - 1), "right") - 1
        )
        ends = self.offsets[first : last + 2].tolist()
        # Where each block's rows begin: as rows, or as positions in rows.
        if sliced:
            cuts = [start, *ends[1:-1], stop]
        else:
            inner = rows.searchsorted(ends[1:-1]).tolist()
            cuts = [0, *inner, rows.size]
        pieces = []
        for s, a, b, i, j in zip(
            range(first, last + 1), ends, ends[1:], cuts, cuts[1:]
        ):
            if sliced:
                local = slice(i - a, j - a)
            elif j - i == b - a:  # distinct rows: all of the page's
                local = slice(0, b - a)
            else:
                local = rows[i:j] - a
            pieces.append((blocks[s], local))
        return pieces

    def columns(self, rows, dims=slice(None), out=None) -> np.ndarray:
        """Column-major ``(len(dims), 2, m)`` corners of ``rows`` (a
        :meth:`rows_of` selection) of a box stack: a view when the rows
        are a slice of one block, otherwise a gather of just these rows
        (into ``out`` when given, an array of that shape).  Rows from
        several blocks are gathered block by block; a block's rows that
        are not a run of it pass through a temporary of just those
        rows."""
        pieces = self._pieces(rows)
        if len(pieces) == 1:
            block, local = pieces[0]
            if isinstance(local, slice):
                return block[dims, :, local]
            # Rows of a selection are in range.
            return np.take(block[dims], local, axis=2, out=out, mode="clip")
        return np.concatenate(
            [block[dims, :, local] for block, local in pieces],
            axis=2,
            out=out,
        )

    def corners(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """C-contiguous ``(m, d)`` lower and upper corners of ``rows``
        (a :meth:`rows_of` selection) of a box stack: every bound is
        computed row by row over rows laid out so."""
        lower, upper = np.ascontiguousarray(
            self.columns(rows).transpose(1, 2, 0)
        )
        return lower, upper

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
        """Row of point ``local`` of ``page``.

        Raises ``KeyError`` when the stack does not hold ``page`` or
        the page has no point ``local``.
        """
        slot = int(np.searchsorted(self.pages, page))
        if slot == self.pages.size or self.pages[slot] != page:
            raise KeyError(page)
        row = int(self.offsets[slot]) + local
        if local < 0 or row >= self.offsets[slot + 1]:
            raise KeyError((page, local))
        return row


def _rows_at(selection, positions: np.ndarray) -> np.ndarray:
    """Stack rows of ``positions`` within a :meth:`PageStack.select`."""
    if isinstance(selection, slice):
        return positions + selection.start
    return selection[positions]


@dataclass
class PageTable:
    """Decoded views of a batch's loaded pages, as two page stacks.

    ``exact`` stacks the pages stored at full resolution as ``(points,
    ids)`` rows; ``quant`` stacks the quantized pages as ``(ids,)`` rows
    plus each point's conservative cell box in the box-stack layout
    (the id is needed only for interval fallbacks of unreadable
    records).  Built by the engine from the batch's decoded-page
    entries *after* all simulated I/O has been charged: the rows are
    concatenated, the corner blocks are the entries' own (joined into
    one by :meth:`joined` for a batch of several queries, and when the
    table is frozen); kernels only ever read it.
    """

    exact: PageStack
    quant: PageStack

    def joined(self) -> "PageTable":
        """This table with its quantized pages' corner blocks joined into
        one (:meth:`PageStack.joined`)."""
        return replace(self, quant=self.quant.joined())

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
class PlanTask:
    """Inputs of the candidate-bounding phase (phase 1).

    The per-query parameter is ``k`` for a kNN batch, or ``radii``, the
    ``(q,)`` radius array, for a range batch; the other stays ``None``.
    """

    queries: object  # (q, d) array or ArrayRef
    cand_mask: object  # (q, pages) bool array or ArrayRef
    lost: frozenset  # pages the coordinator could not read
    metric: object  # repro.geometry.metrics.Metric (stateless)
    table: PageTable
    trace: bool = False  # emit per-query SpanRecords
    k: int | None = None
    radii: object = None  # (q,) array or ArrayRef

    def frozen(self, arena) -> "PlanTask":
        return replace(
            self,
            queries=_freeze(self.queries, arena),
            cand_mask=_freeze(self.cand_mask, arena),
            radii=_freeze(self.radii, arena),
            table=self.table.frozen(arena),
        )

    def resolved(self) -> "PlanTask":
        return replace(
            self,
            queries=resolve(self.queries),
            cand_mask=resolve(self.cand_mask),
            radii=resolve(self.radii),
            table=self.table.resolved(),
        )


@dataclass
class AssembleTask:
    """Inputs of the result-assembly phase (phase 3).

    The engine builds it from the plan task after the plan phase, so
    its arrays are the plan task's, already frozen when shipped.
    """

    queries: object
    metric: object
    table: PageTable
    plans: list  # phase-1 output, one dict per query
    points: dict  # (page, local) -> (coords, id); fetched records
    lost_records: list  # per query, a tuple of LostPage records
    trace: bool = False  # emit per-query SpanRecords
    k: int | None = None
    radii: object = None

    def resolved(self) -> "AssembleTask":
        return replace(
            self,
            queries=resolve(self.queries),
            radii=resolve(self.radii),
            table=self.table.resolved(),
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


#: dimensions whose terms one stage of the abandoning pass folds in
STAGE_DIMS = 8
#: relative slack of the abandoning pass's drop test (see
#: :func:`plan_knn_query` for why it is needed and why it suffices)
ABANDON_SLACK = 1e-9


class _Scratch:
    """Work buffers of the abandoning pass over one box stack.

    Allocated once per shard call, sized for every row of the stack,
    and reused by each query of the call.
    """

    def __init__(self, stack: PageStack):
        n = int(stack.offsets[-1])
        stage = min(STAGE_DIMS, stack.dim)
        self.block = np.empty(stage * 2 * n)
        self.terms = np.empty(stage * n)
        self.part = np.empty(n)
        self.acc = np.empty(n)


def _selected(selection) -> int:
    """Row count of a :meth:`PageStack.rows_of` selection."""
    if isinstance(selection, slice):
        return selection.stop - selection.start
    return selection.size


def _abandon(query, stack, slots, page_lower, bound, metric, scratch):
    """Rows of the pages in ``slots`` whose box mindist may be
    ``<= bound``, as a :meth:`PageStack.rows_of` selection.

    ``page_lower`` holds the mindist of each page's bounding box; a page
    whose box is farther than the bound (by more than
    :data:`ABANDON_SLACK` relative) takes no part.  The pass then folds
    each remaining row's per-dimension mindist terms in stages of
    :data:`STAGE_DIMS` dimensions, read from the stack's column-major
    corners (:meth:`PageStack.columns`: in place in one page's block
    while the rows are a slice of it), and after every stage drops the
    rows whose partial fold exceeds ``metric.power(bound)`` by more
    than :data:`ABANDON_SLACK` relative.
    """
    if not np.isfinite(bound):
        return stack.rows_of(slots)
    selection = stack.rows_of(
        slots[page_lower <= bound * (1.0 + ABANDON_SLACK)]
    )
    n = _selected(selection)
    limit = metric.power(bound) * (1.0 + ABANDON_SLACK)
    dim = stack.dim
    kept = None  # positions within selection; None while all remain
    acc = scratch.acc
    for j0 in range(0, dim if n else 0, STAGE_DIMS):
        j1 = min(dim, j0 + STAGE_DIMS)
        m = n if kept is None else kept.size
        # In place while the rows are a slice of one page's block (or
        # of the joined block); otherwise only these rows are gathered.
        block = stack.columns(
            selection if kept is None else _rows_at(selection, kept),
            slice(j0, j1),
            out=scratch.block[: (j1 - j0) * 2 * m].reshape(j1 - j0, 2, m),
        )
        # The per-dimension gap, as clip(q, lower, upper) - q: the
        # same magnitude as mindist_components, with a sign the
        # metric's terms discard.
        q = query[j0:j1, None]
        terms = scratch.terms[: (j1 - j0) * m].reshape(j1 - j0, m)
        np.minimum(block[:, 1], q, out=terms)
        np.maximum(terms, block[:, 0], out=terms)
        np.subtract(terms, q, out=terms)
        metric.terms(terms, out=terms)
        if j0 == 0:
            metric.fold.reduce(terms, axis=0, out=acc[:m])
        else:
            part = metric.fold.reduce(terms, axis=0, out=scratch.part[:m])
            metric.fold(acc[:m], part, out=acc[:m])
        stay = np.flatnonzero(acc[:m] <= limit)
        if stay.size == m:
            continue
        kept = stay if kept is None else kept[stay]
        acc[: stay.size] = acc[stay]
        if stay.size == 0:
            break
    if kept is None:
        return selection
    return _rows_at(selection, kept)


def _seed_bound(query, k, slots, page_lower, stack, exact_dists, metric):
    """tau0: a k-th smallest upper bound from the pages nearest ``query``.

    Takes the pages in ``slots`` in ascending order of ``page_lower``,
    their bounding boxes' mindist -- as few as make ``k`` values
    together with the exact distances, and at least one with points --
    and returns the k-th smallest of those pages' upper bounds pooled
    with the exact distances.  The pool is part of the pool that
    defines tau, so ``tau0 >= tau``.
    """
    near = slots[np.argsort(page_lower, kind="stable")]
    counts = np.cumsum(stack.offsets[near + 1] - stack.offsets[near])
    take = int(np.searchsorted(counts, max(k - exact_dists.size, 1))) + 1
    lo, up = stack.corners(stack.rows_of(np.sort(near[:take])))
    seed_up = maxdist_to_boxes(query, lo, up, metric)
    return _kth_smallest(np.concatenate([exact_dists, seed_up]), k)


def _page_lower(query, stack, slots, metric) -> np.ndarray:
    """Mindist of the bounding boxes of the pages in ``slots``."""
    return mindist_to_boxes(
        query, stack.boxes[slots, 0], stack.boxes[slots, 1], metric
    )


def plan_knn_query(query, k, pages, table, metric, scratch) -> dict:
    """Bound one query's candidate points; pick refinements.

    A quantized point is refined when its lower bound is at most tau,
    the k-th smallest upper bound over all candidate points (an exact
    point's distance is both its bounds).  The kernel computes lower
    bounds only for the rows that can be refined, and upper bounds only
    where they can decide tau:

    1. Bound: tau0 from :func:`_seed_bound`, the k-th smallest upper
       bound over the exact distances and the rows of the candidate
       page(s) whose bounding box is nearest the query -- a sub-pool
       of the pool that defines tau, so ``tau0 >= tau``.
    2. Abandon: :func:`_abandon` skips the pages whose bounding box is
       farther than ``tau0 * (1 + 1e-9)``, folds each other row's
       per-dimension mindist terms in stages, and drops the rows whose
       partial fold exceeds ``power(tau0) * (1 + 1e-9)``.  R is the
       rows that remain.
    3. Exact pass: one ``mindist_to_boxes`` call over R, gathered as
       C-contiguous ``(m, d)`` rows.  Seed: the k rows of R with the
       smallest lower bounds (all of them when there are fewer).  T'
       is the k-th smallest of their upper bounds pooled with the exact
       distances.  S is the set of rows of R with lower bound <= T';
       tau is the k-th smallest of S's upper bounds pooled with the
       exact distances.

    Every row outside R has ``lower > tau0 >= tau``:

    * A skipped page's rows lie in its bounding box, whose corners are
      the minimum and maximum of theirs, so each per-dimension gap of a
      row is at least the box's (the same float operations on larger
      inputs), and ``mindist_to_boxes`` folds both in the same order.
      Rounding is monotone, so the row's lower bound is at least the
      box's, up to an ulp of the power and root, which the slack
      covers.
    * A dropped row's terms are non-negative and ``mindist_to_boxes``
      folds a superset of them, so its full fold is at least the
      partial one up to rounding: a sequential partial sum of at most
      d terms can exceed numpy's pairwise full sum of the same terms
      (or ``metric.terms`` can round a term differently from
      ``metric.lengths``) by a relative ``O(d * 2**-53)``, and
      ``power(tau0)`` and the length's root round by an ulp each.  The
      relative slack of 1e-9 exceeds all of these for any d below
      about 10**6 (a max fold does not round at all), so a partial
      fold above ``power(tau0) * (1 + 1e-9)`` means a full lower bound
      above tau0.

    Hence R keeps every row with ``lower <= tau``, in particular every
    row whose upper bound is at most tau; the pool of R's upper bounds
    and the exact distances holds every value <= tau of the full pool,
    so its k-th smallest is tau.  The seed argument then runs on R:
    every seed row whose upper bound is <= T' has lower <= upper <= T',
    so it is in S; the pool that defined T' therefore puts at least k
    values <= T' into S plus the exact distances, and the k-th smallest
    of those is <= T'; any row outside S has upper >= lower > T', so
    adding it cannot move the k-th smallest.  Each bound is computed
    row by row over C-contiguous rows, so a row's value does not depend
    on which other rows share the call, and ``lower <= tau`` over R
    selects the same floats and the same refinement set as one pass
    over every candidate row, in ascending ``(page, local)`` order.
    With fewer than k candidate points tau is infinite and nothing is
    abandoned.
    """
    points, ids = table.exact.rows
    exact_sel = table.exact.select(pages)
    exact_dists = metric.distances(query, points[exact_sel])
    quant = table.quant
    slots = quant.slots(pages)
    n_quant = int((quant.offsets[slots + 1] - quant.offsets[slots]).sum())
    candidate_points = exact_dists.size + n_quant
    page_lower = _page_lower(query, quant, slots, metric)
    if candidate_points < k or n_quant == 0:
        tau0 = np.inf
    else:
        tau0 = _seed_bound(
            query, k, slots, page_lower, quant, exact_dists, metric
        )
    kept = _abandon(query, quant, slots, page_lower, tau0, metric, scratch)
    lo, up = quant.corners(kept)
    lower = mindist_to_boxes(query, lo, up, metric)
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
        "refine": quant.keys(_rows_at(kept, survivors)),
        "candidate_points": candidate_points,
        "bounded": lower.size,
    }


def plan_range_query(query, radius, pages, table, metric, scratch) -> dict:
    """Classify one query's candidate points for a range search.

    The radius is the bound of :func:`_abandon`: a dropped row has a
    lower bound above the radius (the argument of
    :func:`plan_knn_query` with tau0 = radius), so the exact pass over
    the rows that remain refines the same points, in the same order.
    """
    points, ids = table.exact.rows
    exact_sel = table.exact.select(pages)
    dists = metric.distances(query, points[exact_sel])
    inside = dists <= radius
    quant = table.quant
    slots = quant.slots(pages)
    kept = _abandon(
        query, quant, slots, _page_lower(query, quant, slots, metric),
        radius, metric, scratch,
    )
    lower = mindist_to_boxes(query, *quant.corners(kept), metric)
    survivors = np.flatnonzero(lower <= radius)
    n_quant = int((quant.offsets[slots + 1] - quant.offsets[slots]).sum())
    return {
        "exact_ids": ids[exact_sel][inside].astype(np.int64, copy=False),
        "exact_dists": dists[inside].astype(np.float64, copy=False),
        "refine": quant.keys(_rows_at(kept, survivors)),
        "candidate_points": dists.size + n_quant,
        "bounded": lower.size,
    }


def refined_distances(query, refine, points, metric) -> tuple:
    """``(keys, dists)``: the keys of one query's available refinements,
    in ``refine`` order, and their exact distances as an array.

    One vectorized ``metric.distances`` call over the fetched records
    (bitwise identical to per-point ``metric.distance``: the reduction
    runs over the same axis in the same order).
    """
    avail = [key for key in refine if key in points]
    if not avail:
        return avail, np.empty(0)
    coords = np.array([points[key][0] for key in avail])
    return avail, metric.distances(query, coords)


def interval_for(query, key, table, metric) -> tuple[int, float, float]:
    """A point's cell interval (its record was unreadable).

    Pure: returns ``(id, mindist, maxdist)`` -- the interval provably
    contains the exact distance, and ``maxdist`` is a sound
    conservative ranking distance.  Fault-context counters and registry
    instruments are applied later, on the coordinator, in query order.
    """
    row = table.quant.row(*key)
    (ids,) = table.quant.rows
    lo, hi = cell_interval(
        query, *table.quant.corners(slice(row, row + 1)), metric
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
    certain, result_intervals = degraded_fields(ids, intervals, degraded)
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

def assemble_knn_query(query, k, plan, points, table, metric):
    """kNN answer of one query: the k best of its exact distances and
    its refined points; an unreadable record competes at its cell
    maxdist and gets an interval.  :class:`KBest` ranks by ``(distance,
    id)`` whatever the offer order, so the refined points go in as one
    array."""
    best = KBest(k)
    intervals: dict[int, tuple[float, float]] = {}
    best.offer_many(plan["exact_dists"], plan["exact_ids"])
    keys, dists = refined_distances(query, plan["refine"], points, metric)
    best.offer_many(dists, np.array([points[key][1] for key in keys]))
    if len(keys) < len(plan["refine"]):
        for key in plan["refine"]:
            if key not in points:
                pid, lo, hi = interval_for(query, key, table, metric)
                intervals[pid] = (lo, hi)
                best.offer(hi, pid)
    ids, dists = best.sorted_results()
    return ids, dists, intervals


def assemble_range_query(query, radius, plan, points, table, metric):
    """Range answer of one query: its exact points inside the radius
    and its refined points inside it, sorted by distance."""
    intervals: dict[int, tuple[float, float]] = {}
    ref_ids: list[int] = []
    ref_dists: list[float] = []
    keys, dists = refined_distances(query, plan["refine"], points, metric)
    dist_of = dict(zip(keys, dists.tolist()))
    for key in plan["refine"]:
        if key in dist_of:
            dist = dist_of[key]
            if dist <= radius:
                ref_ids.append(points[key][1])
                ref_dists.append(dist)
        else:
            # Unreadable record whose cell overlaps the ball: include
            # it conservatively at its cell maxdist, flagged uncertain.
            pid, lo, hi = interval_for(query, key, table, metric)
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
    return found_ids[order], found_dists[order], intervals


def _per_query(task):
    """The per-query plan and assemble bodies of ``task``'s kind, and
    the parameter they take for query ``i``: ``k`` for kNN, the
    query's radius for range."""
    if task.radii is None:
        return plan_knn_query, assemble_knn_query, lambda i: task.k
    radii = task.radii
    return (
        plan_range_query, assemble_range_query, lambda i: float(radii[i])
    )


def plan_shard(task: PlanTask, indices, _ledger) -> list[dict]:
    """Phase 1 (pure): per-query point-level bounds + refinement picks."""
    task = task.resolved()
    plan_query, _assemble, param = _per_query(task)
    scratch = _Scratch(task.table.quant)
    out = []
    for i in indices:
        before = ledger_state(_ledger) if task.trace else None
        cand, lost = _candidates(task.cand_mask[i], task.lost)
        plan = plan_query(
            task.queries[i], param(i), cand, task.table, task.metric,
            scratch,
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
                    bounded=plan["bounded"],
                    refine=len(plan["refine"]),
                    lost=len(lost),
                ),
            )
        out.append(plan)
    return out


def assemble_shard(task: AssembleTask, indices, _ledger) -> list:
    """Phase 3 (pure): per-query result assembly.

    Returns ``(result, n_intervals)`` pairs; the coordinator applies
    the degraded-mode side effects in query order afterwards.
    """
    task = task.resolved()
    _plan, assemble_query, param = _per_query(task)
    out = []
    for i in indices:
        before = ledger_state(_ledger) if task.trace else None
        plan = task.plans[i]
        ids, dists, intervals = assemble_query(
            task.queries[i], param(i), plan, task.points, task.table,
            task.metric,
        )
        lost_records = task.lost_records[i]
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
