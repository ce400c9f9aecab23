"""Batch execution of kNN and range queries over one IQ-tree.

Single-query kNN (:mod:`repro.core.search`) pays the full index walk
per query: a directory scan, a best-first page schedule, and one
third-level look-up per refined point.  :class:`QueryEngine` amortizes
all three across a *batch* of queries (a lone range query is a batch
of one):

* the first-level directory is scanned **once per batch**, and the MBR
  mindist/maxdist of *all* queries against *all* pages are computed in
  one vectorized numpy pass (:func:`~repro.geometry.mbr.mindist_matrix`);
* the union of every query's candidate pages is fetched through **one**
  optimal batched transfer (Section 2 strategy) and each page is decoded
  at most once per batch -- same-width pages through the bulk bit-unpack
  entry point -- so a page needed by five queries is read and unpacked
  once, not five times;
* third-level exact-coordinate refinements of all queries are collected
  and fetched through **one** batched plan
  (:func:`~repro.storage.scheduler.plan_batched_fetch`) over the union
  of their blocks.

kNN and range batches run one pipeline (:meth:`QueryEngine._batch`)
and differ only in how each query's candidate radius is chosen and in
the per-query plan and assemble bodies of :mod:`repro.engine.kernels`.
A range query's radius is given.  kNN uses a two-phase
filter-and-refine plan (the VA-file discipline applied to the IQ-tree):
the directory maxdist matrix yields a per-query guaranteed radius (the
smallest maxdist prefix covering ``k`` points), every page whose
mindist is inside it is a candidate, and after decoding, the k-th
smallest per-point *upper* bound prunes the refinement set while
keeping the exact answer -- any true neighbor has a lower bound below
that threshold.  Results are exact and agree with
:func:`repro.core.search.nearest_neighbors` / ``range_search``.

An optional shared :class:`~repro.storage.cache.BufferPool` spans
batches (and possibly several indexes), so hot directory and data
blocks stay resident across calls; an optional
:class:`~repro.engine.page_cache.DecodedPageCache` extends the
amortization one level up, keeping *decoded* pages (and their cell
bounds) resident across batches under a byte budget.

With ``workers > 1`` the per-query phases -- candidate bounding and
result assembly -- are sharded across a
:class:`~repro.engine.concurrent.WorkerPool`.  The phases are the pure,
picklable kernels of :mod:`repro.engine.kernels`: their inputs are
plain arrays (query rows, candidate masks, one stacked table of cell
boxes and exact points), never an ``IQTree``, ``BlockFile``, or cache
object, so they run equally on worker threads or worker *processes*.
Threads are the faster parallel backend as measured: on a 2-core host,
64-query kNN batches took 180 ms per batch on two thread workers and
192 ms on two process workers, and processes won 9 of 48 rounds
(``docs/performance.md``, "Backend selection").  Every simulated-I/O
charge (directory scan, page fetch, third-level fetch) and every side
effect on shared state (fault-context counters, registry instruments)
stays on the coordinator thread and is applied in query order, so
results, the I/O ledger, and the observability counters are
bit-identical for any worker count and either backend.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from repro.core.search import (
    checked_k,
    checked_queries,
    checked_radii,
    io_delta,
    io_snapshot,
    next_query_id,
    raise_query_error,
)
from repro.core.tree import ExactStore, IQTree
from repro.engine.concurrent import WorkerPool
from repro.engine.decode import PageDecodeCache
from repro.engine.kernels import (
    AssembleTask,
    BatchQueryResult,
    PlanTask,
    assemble_shard,
    plan_shard,
)
from repro.engine.shm import SharedArena
from repro.engine.stats import BatchStats
from repro.exceptions import SearchError, StorageError
from repro.obs.drift import MONITOR as _DRIFT
from repro.obs.flight import observe_batch
from repro.obs.instruments import (
    BATCH_QUERIES,
    BATCHES,
    QUERY_SECONDS,
    REGISTRY,
)
from repro.obs.tracing import active_tracer
from repro.obs.tracing import span as obs_span
from repro.geometry.mbr import maxdist_matrix, mindist_matrix
from repro.storage.cache import BufferPool
from repro.storage.disk import IOStats
from repro.storage.runtime_faults import LostPage

__all__ = [
    "QueryEngine",
    "BatchQueryResult",
    "BatchResult",
    "guarantee_radii",
]


def guarantee_radii(
    dmax: np.ndarray, counts: np.ndarray, k: int
) -> np.ndarray:
    """Per-query radius guaranteed to contain at least k points.

    For each query, pages are taken in ascending maxdist order until
    their point counts cover ``k``; the last maxdist bounds the k-th
    neighbor from above, so any page whose mindist exceeds it can be
    pruned before any data page is read.  When fewer than ``k`` points
    are live (deletions), nothing can be pruned and the radius is
    infinite.  Shared by the engine (over one tree's directory) and the
    shard router (over the global directory spanning every shard).
    """
    order = np.argsort(dmax, axis=1, kind="stable")
    cum = np.cumsum(np.take(counts, order), axis=1)
    covered = cum >= k
    radii = np.full(dmax.shape[0], np.inf)
    reached = covered.any(axis=1)
    if np.any(reached):
        pos = np.argmax(covered[reached], axis=1)
        rows = np.flatnonzero(reached)
        radii[rows] = dmax[rows, order[rows, pos]]
    return radii


def range_schedule(radii: np.ndarray):
    """The range schedule of :meth:`QueryEngine._batch`: candidates
    lie within each query's radius, and a lost page is reported with
    an infinite maxdist -- it may hold any number of in-range points,
    so its contribution cannot be bounded."""
    return lambda dmin: (radii, np.broadcast_to(np.inf, dmin.shape))


_MISSING_SPANS_WARNED = False


def _report_missing_worker_spans(phase: str) -> None:
    """A worker returned no span records while tracing was enabled.

    This is the silent-drop failure mode the stitching protocol was
    built to eliminate (worker spans used to vanish with
    ``backend="process"``), so it must never pass quietly again: under
    pytest it raises, in production it warns once per process.
    """
    global _MISSING_SPANS_WARNED
    message = (
        f"tracing active but the {phase} kernel returned no span "
        "records for at least one query; worker-side spans would be "
        "silently dropped from the stitched trace"
    )
    if "PYTEST_CURRENT_TEST" in os.environ:
        raise SearchError(message)
    if not _MISSING_SPANS_WARNED:
        _MISSING_SPANS_WARNED = True
        warnings.warn(message, RuntimeWarning, stacklevel=3)


def _stitch_worker_records(tracer, phase: str, per_query) -> None:
    """Graft per-query worker records into the live trace, in order.

    ``per_query`` is one record tuple per query, already in batch query
    order (``map_sharded`` restores it), so the stitched tree is
    independent of worker count and backend.
    """
    if any(not recs for recs in per_query):
        _report_missing_worker_spans(phase)
    tracer.stitch([rec for recs in per_query for rec in recs])


@dataclass
class BatchResult:
    """All per-query answers of a batch plus the shared batch cost."""

    queries: list[BatchQueryResult]
    stats: BatchStats

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)

    def __getitem__(self, index: int) -> BatchQueryResult:
        return self.queries[index]


class QueryEngine:
    """Executes query batches against one IQ-tree.

    Parameters
    ----------
    tree:
        The index to serve.
    pool:
        Optional buffer pool: a
        :class:`~repro.storage.cache.BufferPool` instance (possibly
        shared with other engines/indexes on the same disk) or an
        integer capacity in blocks.  When omitted, a pool already
        attached to the tree is used; when the tree has none, reads go
        straight to the simulated disk.
    workers:
        Workers the per-query phases shard over (default 1 = serial).
        Any count yields identical results, ledgers, and counters; see
        the module docstring.
    decode_cache:
        Optional cross-batch decoded-page cache: a
        :class:`~repro.engine.page_cache.DecodedPageCache` or an
        integer byte budget, attached to the tree via
        :meth:`~repro.core.tree.IQTree.use_decoded_cache`.  When
        omitted, a cache already attached to the tree is used.
    backend:
        Executor backend for ``workers > 1``: ``"process"``,
        ``"thread"`` (the faster of the two as measured; see the module
        docstring), or ``"auto"`` (default: process when parallel).
        Results are bit-identical either way.
    worker_pool:
        An externally owned :class:`~repro.engine.concurrent.WorkerPool`
        to execute on instead of creating one (the shard router shares
        a single pool across every shard engine this way).  The caller
        keeps ownership: :meth:`close` leaves a borrowed pool running.
        Mutually exclusive with ``workers``/``backend``.
    """

    def __init__(
        self,
        tree: IQTree,
        pool: BufferPool | int | None = None,
        workers: int = 1,
        decode_cache=None,
        backend: str = "auto",
        worker_pool: WorkerPool | None = None,
    ):
        self.tree = tree
        if pool is not None:
            tree.use_buffer_pool(pool)
        if decode_cache is not None:
            tree.use_decoded_cache(decode_cache)
        if worker_pool is not None:
            self._worker_pool = worker_pool
            self._owns_workers = False
        else:
            self._worker_pool = WorkerPool(workers, backend=backend)
            self._owns_workers = True
        self.workers = self._worker_pool.workers

    @property
    def pool(self) -> BufferPool | None:
        """The buffer pool currently attached to the tree, or None.

        Read live from the tree rather than captured at construction,
        so a later ``tree.use_buffer_pool(...)`` swap cannot leave the
        engine computing hit/miss deltas against a detached pool's
        (stale, frozen) counters.
        """
        return self.tree._pool

    @property
    def decode_cache(self):
        """The decoded-page cache currently attached to the tree."""
        return self.tree._decoded_cache

    @property
    def backend(self) -> str:
        """The resolved executor backend ("thread" or "process")."""
        return self._worker_pool.backend

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the workers down (the engine stays usable).

        A borrowed worker pool (``worker_pool=`` at construction) is
        left running; its owner closes it.
        """
        if self._owns_workers:
            self._worker_pool.close()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Worker shipping
    # ------------------------------------------------------------------
    def _ships_to_processes(self, n_queries: int) -> bool:
        """Whether this batch's kernels will cross a process boundary."""
        return (
            self._worker_pool.backend == "process"
            and self._worker_pool.workers > 1
            and n_queries > 1
        )

    # ------------------------------------------------------------------
    # Public batches
    # ------------------------------------------------------------------
    def knn_batch(
        self,
        queries: np.ndarray,
        k: int = 1,
        radius_cap: np.ndarray | None = None,
    ) -> BatchResult:
        """Exact k-nearest-neighbor search for a batch of queries.

        With a fault context attached to the tree
        (``tree.use_fault_tolerance()``), unreadable data degrades the
        affected results (see :class:`BatchQueryResult`) instead of
        aborting the batch; without one, storage failures surface as
        :class:`~repro.exceptions.QueryDataError`.

        ``radius_cap`` is an optional per-query array, shape ``(q,)``,
        of externally known upper bounds on the k-th neighbor distance;
        the candidate radius becomes the elementwise minimum of the
        tree's own guarantee radius and the cap.  The shard router
        passes its running global bound here so a shard never examines
        pages that provably cannot contribute.  Exactness is preserved
        whenever each cap is a sound upper bound on that query's k-th
        distance *within the caller's final merged answer*.
        """
        tree = self.tree
        tree._ensure_clean()
        k = checked_k(k, tree.n_live_points)
        queries = checked_queries(tree, queries)
        if radius_cap is not None:
            radius_cap = np.asarray(radius_cap, dtype=np.float64)
            if radius_cap.shape != (queries.shape[0],):
                raise SearchError(
                    "radius_cap must have one entry per query"
                )
            if not np.all(radius_cap >= 0):  # also rejects NaN
                raise SearchError(
                    "radius_cap must be non-negative (inf is allowed)"
                )

        def schedule(dmin):
            # The k-th neighbor lies within the guarantee radius; a lost
            # page is reported with its directory maxdist.
            dmax = maxdist_matrix(
                queries, tree._lowers, tree._uppers, tree.metric
            )
            radii = guarantee_radii(dmax, tree._counts, k)
            if radius_cap is not None:
                radii = np.minimum(radii, radius_cap)
            return radii, dmax

        return self._serve(
            "knn-batch", lambda: self._batch(queries, schedule, k=k), k=k
        )

    def range_batch(self, queries: np.ndarray, radius) -> BatchResult:
        """Range search (all points within a radius) for a batch.

        ``radius`` is one scalar shared by every query or an array of
        per-query radii, shape ``(q,)``.  Degraded-mode semantics match
        :meth:`knn_batch`: uncertain points whose cell overlaps the
        radius are *included* (marked via ``certain``/``intervals``),
        and wholly lost pages are reported with an infinite maxdist
        because their contribution cannot be bounded.
        """
        tree = self.tree
        tree._ensure_clean()
        queries = checked_queries(tree, queries)
        radii = checked_radii(radius, queries.shape[0])
        return self._serve(
            "range-batch",
            lambda: self._batch(queries, range_schedule(radii), radii=radii),
            k=None,
        )

    def _serve(self, kind: str, run, k: int | None) -> BatchResult:
        """Run one public batch and feed the registry instruments once.

        The whole batch runs under the tree's write lock so a
        concurrent maintenance sweep can never swap pages out from
        under it (sweeps take the same lock).
        """
        tree = self.tree
        batch_id = next_query_id()
        try:
            with tree._write_lock:
                if tree._flight_recorder is not None:
                    result = observe_batch(
                        tree._flight_recorder, tree, kind, batch_id, run
                    )
                else:
                    result = run()
                self._observe_batch(result.stats, result.queries, k=k)
        except StorageError as exc:
            raise_query_error(exc, tree, batch_id)
        return result

    # ------------------------------------------------------------------
    # The batch pipeline (shared by kNN and range)
    # ------------------------------------------------------------------
    def _batch(
        self,
        queries: np.ndarray,
        schedule,
        k: int | None = None,
        radii: np.ndarray | None = None,
    ) -> BatchResult:
        """One batch through the Section 2 pipeline.

        ``schedule(dmin)`` returns each query's candidate radius and
        the ``(q, pages)`` maxdist a lost page is reported with.  ``k``
        (kNN) or ``radii`` (range) is the per-query parameter of the
        kernels.  Feeds no batch instruments, so that ``range_search``
        can run a single query as a one-query batch.
        """
        tree = self.tree
        n_queries = queries.shape[0]
        before = io_snapshot(tree)
        pool_before = self._pool_counters()
        fault_before = self._fault_counters()
        metric = tree.metric
        tracer = active_tracer()

        with obs_span(
            "directory-scan", disk=tree.disk, pages=tree.n_pages
        ):
            tree._charge_directory_scan()
            dmin = mindist_matrix(
                queries, tree._lowers, tree._uppers, metric
            )
        with obs_span("schedule", disk=tree.disk, queries=n_queries):
            cand_radii, lost_maxdist = schedule(dmin)
            cand_mask = dmin <= cand_radii[:, None]

        cache = PageDecodeCache(tree)
        # "fetch" and "decode" spans open inside load(); all simulated
        # I/O of the batch happens here and in fetch_all below, on this
        # coordinator thread.
        cache.load(np.flatnonzero(cand_mask.any(axis=0)))

        arena = None
        try:
            with obs_span("refine", disk=tree.disk) as refine_span:
                # Phase 1 (workers, pure): per-query point-level bounds;
                # collect the refinement set.
                # One query bounds the pages' own corner blocks in place;
                # the queries of a larger batch gather from one joined
                # block: one copy per batch instead of per-page work per
                # query (docs/performance.md, "Bound one-query batches
                # in place").
                table = cache.page_table()
                if n_queries > 1:
                    table = table.joined()
                plan_task = PlanTask(
                    queries=queries,
                    cand_mask=cand_mask,
                    lost=(
                        frozenset(cache.lost_pages)
                        if tree._fault_ctx is not None
                        else frozenset()
                    ),
                    metric=metric,
                    table=table,
                    trace=tracer is not None,
                    k=k,
                    radii=radii,
                )
                if self._ships_to_processes(n_queries):
                    arena = SharedArena.create()
                if arena is not None:
                    plan_task = plan_task.frozen(arena)
                    arena.seal()
                plans, plan_io = self._worker_pool.map_sharded(
                    plan_shard, range(n_queries), task=plan_task
                )
                if tracer is not None:
                    _stitch_worker_records(
                        tracer, "plan",
                        [plan.pop("spans", ()) for plan in plans],
                    )
                all_requests: set[tuple[int, int]] = set()
                for plan in plans:
                    all_requests.update(plan["refine"])

                # Phase 2 (coordinator): one batched third-level fetch
                # for every query.  Unreadable records are absent from
                # the map.
                exact_store = ExactStore(tree)
                points = exact_store.fetch_all(all_requests)
                if refine_span is not None:
                    refine_span.attrs["records"] = len(all_requests)

                # Phase 3 (workers, pure): per-query result assembly.
                counts = tree._counts
                assemble_task = AssembleTask(
                    queries=plan_task.queries,
                    metric=metric,
                    table=plan_task.table,
                    plans=plans,
                    points=points,
                    lost_records=[
                        tuple(
                            LostPage(
                                page=int(p),
                                n_points=int(counts[p]),
                                mindist=float(dmin[i, p]),
                                maxdist=float(lost_maxdist[i, p]),
                            )
                            for p in plan["lost"]
                        )
                        for i, plan in enumerate(plans)
                    ],
                    trace=tracer is not None,
                    k=k,
                    radii=plan_task.radii,
                )
                assembled, assemble_io = self._worker_pool.map_sharded(
                    assemble_shard, range(n_queries),
                    task=assemble_task,
                )
                assembled = self._split_assemble_records(
                    tracer, assembled
                )
                results = self._apply_degraded_effects(assembled)
                if refine_span is not None and any(
                    r.degraded for r in results
                ):
                    refine_span.attrs["degraded"] = True
        finally:
            if arena is not None:
                arena.dispose()
        stats = self._batch_stats(
            n_queries, before, pool_before, fault_before, cache,
            exact_store, plan_io.merged_with(assemble_io),
        )
        return BatchResult(queries=results, stats=stats)

    # ------------------------------------------------------------------
    # Shared accounting
    # ------------------------------------------------------------------
    def _split_assemble_records(self, tracer, assembled) -> list:
        """Peel worker span records off assemble-phase outputs.

        With tracing on, assemble kernels return ``(result,
        n_intervals, records)`` triples; this stitches the records into
        the live trace (query order) and hands back the plain pairs
        the accounting code expects.
        """
        if tracer is None:
            return assembled
        _stitch_worker_records(
            tracer, "assemble",
            [entry[2] if len(entry) > 2 else () for entry in assembled],
        )
        return [entry[:2] for entry in assembled]

    def _apply_degraded_effects(
        self, assembled: list[tuple[BatchQueryResult, int]]
    ) -> list[BatchQueryResult]:
        """Apply each query's degraded-mode side effects, in query order.

        Workers return pure results plus the count of interval
        fallbacks they computed; this coordinator pass feeds the fault
        context's session counters and the registry instruments exactly
        as the serial engine did, so counter values cannot depend on
        scheduling -- of threads or of processes.
        """
        ctx = self.tree._fault_ctx
        for result, n_intervals in assembled:
            if result.degraded:
                ctx.count_degraded(n_intervals, len(result.lost_pages))
        return [result for result, _n in assembled]

    def _pool_counters(self) -> tuple[int, int]:
        if self.pool is None:
            return (0, 0)
        return (self.pool.hits, self.pool.misses)

    def _fault_counters(self) -> tuple[int, int, int, int]:
        ctx = self.tree._fault_ctx
        if ctx is None:
            return (0, 0, 0, 0)
        return (
            ctx.retries,
            ctx.quarantined,
            ctx.degraded_results,
            ctx.lost_pages,
        )

    def _batch_stats(
        self, n_queries, before, pool_before, fault_before, cache,
        exact_store, worker_io: IOStats | None = None,
    ) -> BatchStats:
        tree = self.tree
        io = io_delta(before, io_snapshot(tree))
        if worker_io is not None:
            # Workers charge no simulated I/O by design (the ledgers
            # exist so the merge discipline is exercised and pinned);
            # merging keeps the accounting honest if that ever changes.
            io = io.merged_with(worker_io)
        if self.pool is None:
            hits = misses = 0
        else:
            hits = self.pool.hits - pool_before[0]
            misses = self.pool.misses - pool_before[1]
        fault_after = self._fault_counters()
        return BatchStats(
            n_queries=n_queries,
            io=io,
            pages_read=cache.pages_fetched,
            refinements=exact_store.refinements,
            bytes_transferred=io.blocks_read
            * tree.disk.model.block_size,
            pool_hits=hits,
            pool_misses=misses,
            retries=fault_after[0] - fault_before[0],
            quarantined=fault_after[1] - fault_before[1],
            degraded_results=fault_after[2] - fault_before[2],
            lost_pages=fault_after[3] - fault_before[3],
            decoded_pages_reused=cache.pages_cached,
            workers=self.workers,
        )

    def _observe_batch(
        self,
        stats: BatchStats,
        results: list[BatchQueryResult],
        k: int | None,
    ) -> None:
        """Feed registry instruments and the drift monitor (kNN only).

        Physical I/O already landed in the registry through the
        simulated disk; this records the engine-level view (batch and
        per-query shape) plus predicted-vs-actual drift samples.  The
        cost model predicts kNN queries, so range batches (``k=None``)
        record no drift.
        """
        if not REGISTRY.enabled or stats.n_queries == 0:
            return
        BATCHES.inc()
        BATCH_QUERIES.inc(stats.n_queries)
        per_query_seconds = stats.io.elapsed / stats.n_queries
        for result in results:
            QUERY_SECONDS.observe(per_query_seconds)
            if k is not None:
                _DRIFT.observe_query(
                    self.tree,
                    k,
                    actual_pages=result.stats.candidate_pages,
                    actual_seconds=per_query_seconds,
                )
