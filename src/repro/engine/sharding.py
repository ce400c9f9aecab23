"""Sharded scatter-gather serving over a partitioned IQ-tree.

The paper's flat first-level directory makes the page its natural unit
of distribution: every page is one MBR entry plus one quantized block
plus (optionally) one exact-record run, with no cross-page structure.
:class:`ShardRouter` exploits that to split one built tree into ``N``
independent shard trees -- each a complete three-level IQ-tree over a
contiguous slice of the MBR-sorted directory, laid out on its own
simulated disk -- and serves kNN/range batches scatter-gather style:

* **Partitioning rule.**  Pages are ordered by MBR centroid
  (lexicographic across dimensions, page index as the tie-break) and
  cut into ``N`` contiguous runs of near-equal page counts; within a
  run, pages keep their original layout order.  Sorting groups
  spatially close pages onto the same shard (which is what makes
  pruning effective on clustered workloads); preserving the original
  within-shard order makes a 1-shard router lay out byte-identically to
  the source tree.

* **Global bound pruning.**  The router keeps an in-memory copy of the
  *global* directory (every shard's MBRs), so it can compute the same
  guarantee radius the single-tree engine would -- the smallest maxdist
  prefix covering ``k`` points, taken over **all** shards -- before any
  shard is contacted.  Shards are visited sequentially in ascending
  best-mindist order (batch average, shard index as tie-break); after
  each shard responds, the per-query bound tightens to the k-th
  smallest distance collected so far, and a later shard whose best
  mindist exceeds a query's running bound is never contacted for that
  query.  The bound is also handed to each contacted shard as that
  engine's ``radius_cap``, so a shard never examines pages the global
  view already pruned.  Both uses are sound: the bound is always a
  valid upper bound on the k-th distance of the final merged answer, so
  pruned pages/shards provably cannot contribute.

* **Deterministic merge.**  Per-shard answers, ``IOStats`` ledgers,
  ``BatchStats``, and observability counters are merged *in shard-visit
  order* on the router (the same discipline the worker pool applies to
  its shard ledgers), and all shards execute through **one** shared
  :class:`~repro.engine.concurrent.WorkerPool`.  Results and counters
  are therefore bit-identical for any worker count and either backend,
  and the *answers* are identical to the single-tree engine for any
  shard count.

* **Failover.**  A dead shard (``kill_shard``) -- or one whose engine
  raises a storage/query-data error mid-batch, e.g. under fault
  injection without a fault context -- degrades instead of failing the
  batch: every page of that shard that could still have contributed to
  a query (global mindist within the query's running bound) is reported
  as a :class:`~repro.storage.runtime_faults.LostPage` with its global
  page index and global-directory distance bounds, and the merged
  result carries the PR 4 ``certain``/``intervals`` degraded-answer
  contract.  The truth-containment guarantee: every true neighbor is
  either returned exactly or covered by a reported lost page whose
  ``[mindist, maxdist]`` interval contains its distance (the chaos CLI
  checks exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.search import (
    checked_k,
    checked_queries,
    checked_radii,
    degraded_fields,
    next_query_id,
)
from repro.core.tree import IQTree
from repro.engine.concurrent import WorkerPool
from repro.engine.engine import (
    BatchResult,
    QueryEngine,
    guarantee_radii,
)
from repro.engine.kernels import BatchQueryResult
from repro.engine.stats import BatchStats, QueryStats
from repro.exceptions import QueryDataError, SearchError, StorageError
from repro.geometry.mbr import maxdist_matrix, mindist_matrix
from repro.obs.instruments import (
    DEAD_SHARD_QUERIES,
    LOST_PAGES,
    REGISTRY,
    ROUTER_BATCHES,
    SHARDS_CONTACTED,
    SHARDS_SKIPPED,
)
from repro.obs.flight import observe_batch
from repro.obs.tracing import span as obs_span
from repro.storage.disk import IOStats, SimulatedDisk
from repro.storage.runtime_faults import LostPage

__all__ = [
    "Shard",
    "ShardBatchTrace",
    "ShardRouter",
    "ShardedBatchResult",
    "partition_directory",
]


def partition_directory(tree: IQTree, n_shards: int) -> list[np.ndarray]:
    """Split a tree's pages into ``n_shards`` spatial groups.

    Pages are ranked by MBR centroid (lexicographic across dimensions,
    original page index as the final tie-break -- a total, data-independent
    order), cut into contiguous runs whose sizes differ by at most one
    (earlier runs take the extra page), and each run is returned in
    original page order.  The result is a pure function of the directory,
    so every router over the same tree produces the same shards.
    """
    tree._ensure_clean()
    n_pages = tree.n_pages
    if n_shards < 1:
        raise SearchError("shards must be at least 1")
    n_shards = min(n_shards, n_pages)
    centroids = (tree._lowers + tree._uppers) / 2.0
    # lexsort keys run least-significant first: feed dimensions reversed
    # so dimension 0 is the primary key; the sort is stable, so fully
    # tied centroids keep original page order.
    rank = np.lexsort(
        tuple(
            centroids[:, d]
            for d in range(centroids.shape[1] - 1, -1, -1)
        )
    )
    base, extra = divmod(n_pages, n_shards)
    groups = []
    start = 0
    for s in range(n_shards):
        size = base + (1 if s < extra else 0)
        members = rank[start : start + size]
        groups.append(np.sort(members))
        start += size
    return groups


@dataclass
class Shard:
    """One shard of a partitioned tree: an independent IQ-tree.

    ``pages`` maps shard-local page indices to global page indices
    (``pages[local] == global``); the shard tree's own directory is the
    corresponding slice of the source directory, laid out on a fresh
    simulated disk of the same model.  ``alive`` is the router's health
    flag -- a dead shard is never contacted, its potential contributions
    are reported as lost pages instead.
    """

    index: int
    tree: IQTree
    pages: np.ndarray
    engine: QueryEngine
    alive: bool = True


@dataclass
class ShardBatchTrace:
    """How the router executed one batch (for benchmarks and the CLI).

    ``contacted[q]`` counts live shards that actually served query
    ``q``; ``skipped`` totals per-query shard visits avoided by bound
    pruning; ``dead`` lists shards that were down (or failed) during
    the batch; ``visit_order`` is the ascending best-mindist order the
    shards were walked in; ``shard_seconds`` is each contacted shard's
    simulated I/O time for the batch, in visit order -- their sum is
    the sequential scatter cost the merged ledger charges, their max is
    the floor a concurrent scatter (which could not tighten bounds
    between shards) would pay.

    When the batch ran inside ``trace_query``, ``spans`` links the
    per-shard ``shard-visit`` spans (in visit order, one per shard
    actually examined) of the ambient trace tree; empty otherwise.
    """

    visit_order: list[int]
    contacted: np.ndarray
    skipped: int
    dead: tuple[int, ...] = ()
    shard_seconds: tuple[float, ...] = ()
    spans: tuple = ()


@dataclass
class ShardedBatchResult(BatchResult):
    """A merged scatter-gather batch answer plus its routing trace."""

    routing: ShardBatchTrace | None = None


@dataclass
class _QueryMerge:
    """Per-query accumulator while shards are visited."""

    ids: list = field(default_factory=list)
    dists: list = field(default_factory=list)
    intervals: dict = field(default_factory=dict)
    lost: list = field(default_factory=list)
    degraded: bool = False
    pages: int = 0
    points: int = 0
    refinements: int = 0

    def absorb(self, result: BatchQueryResult, pages: np.ndarray) -> None:
        """Fold one shard's answer in (shard-visit order).

        ``pages`` maps the shard's local page indices to global ones;
        lost pages are re-addressed so the merged report speaks the
        global directory's language.
        """
        self.ids.append(result.ids)
        self.dists.append(result.distances)
        if result.intervals:
            self.intervals.update(result.intervals)
        for lp in result.lost_pages:
            self.lost.append(
                LostPage(
                    page=int(pages[lp.page]),
                    n_points=lp.n_points,
                    mindist=lp.mindist,
                    maxdist=lp.maxdist,
                )
            )
        self.degraded = self.degraded or result.degraded
        self.pages += result.stats.candidate_pages
        self.points += result.stats.candidate_points
        self.refinements += result.stats.refinements


class _RouterDisk:
    """Read-only composite ledger view over every shard disk.

    The router has no disk of its own -- each shard tree charges its
    private :class:`~repro.storage.disk.SimulatedDisk` -- but tracing
    and flight recording need one coherent clock and ledger for the
    whole scatter-gather.  ``stats`` sums the live shard ledgers, so
    ``trace_query(router)`` sees a timeline where exactly the visited
    shard advances the clock during its visit window (shards execute
    sequentially), keeping sibling shard-visit spans monotone.
    """

    def __init__(self, shards):
        self._shards = shards
        self.model = shards[0].tree.disk.model

    @property
    def stats(self) -> IOStats:
        total = IOStats()
        for shard in self._shards:
            total = total.merged_with(shard.tree.disk.stats)
        return total


class ShardRouter:
    """Scatter-gather serving over ``N`` shards of one IQ-tree.

    Parameters
    ----------
    tree:
        The built source tree.  It is split, not consumed: the router
        re-lays every shard out on its own fresh simulated disk and the
        source tree stays fully usable (the sweep tests compare against
        it).
    shards:
        Shard count (clamped to the page count).
    workers, backend:
        One shared :class:`~repro.engine.concurrent.WorkerPool` sized
        here executes every shard's per-query phases; see
        :class:`~repro.engine.QueryEngine` for the determinism contract.
    pool:
        Optional per-shard buffer-pool capacity in *blocks* (each shard
        owns a private pool -- block addresses are per-disk, so sharing
        one pool across shard disks would alias).
    decode_cache:
        Optional per-shard decoded-page cache budget in *bytes*.
    """

    def __init__(
        self,
        tree: IQTree,
        shards: int,
        workers: int = 1,
        backend: str = "auto",
        pool: int | None = None,
        decode_cache: int | None = None,
    ):
        tree._ensure_clean()
        self.metric = tree.metric
        self.dim = tree.dim
        self._n_live = tree.n_live_points
        # The router's copy of the *global* directory: the union of all
        # shard directories, in source-page order.  Routing math over
        # these arrays is in-memory planning state (a routing table),
        # not a charged directory scan -- each contacted shard charges
        # its own first-level scan exactly like a standalone engine.
        self._lowers = tree._lowers.copy()
        self._uppers = tree._uppers.copy()
        self._counts = tree._counts.copy()
        self._worker_pool = WorkerPool(workers, backend=backend)
        self.workers = self._worker_pool.workers

        groups = partition_directory(tree, shards)
        self.shards: list[Shard] = []
        for idx, pages in enumerate(groups):
            shard_tree = IQTree(
                tree._points,
                [tree._partitions[int(g)] for g in pages],
                SimulatedDisk(tree.disk.model),
                tree.metric,
                tree.cost_model,
                None,
                tree.charge_directory,
                codec_mode=tree.codec_mode,
                directory_codec=tree.directory_codec,
            )
            engine = QueryEngine(
                shard_tree,
                pool=pool,
                decode_cache=decode_cache,
                worker_pool=self._worker_pool,
            )
            self.shards.append(
                Shard(index=idx, tree=shard_tree, pages=pages, engine=engine)
            )
        #: composite ledger/clock over every shard disk, for
        #: trace_query(router) and the flight recorder.
        self.disk = _RouterDisk(self.shards)
        self._flight_recorder = None

    # ------------------------------------------------------------------
    # Introspection / health
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def backend(self) -> str:
        """The shared worker pool's resolved backend."""
        return self._worker_pool.backend

    def kill_shard(self, index: int) -> None:
        """Take a shard down: queries degrade to lost-page bounds."""
        self.shards[index].alive = False

    def revive_shard(self, index: int) -> None:
        """Bring a dead shard back."""
        self.shards[index].alive = True

    def use_fault_tolerance(self, policy=None) -> list:
        """Attach a fault context to every shard tree; returns them."""
        return [s.tree.use_fault_tolerance(policy) for s in self.shards]

    def use_flight_recorder(self, recorder_or_capacity=64):
        """Attach a flight recorder to the router's batch paths.

        Mirrors :meth:`~repro.core.tree.IQTree.use_flight_recorder`:
        accepts a :class:`~repro.obs.flight.FlightRecorder` or an
        integer ring capacity and returns the recorder.  Recording
        happens at the router level (one merged judgment per batch /
        per query), not per shard.
        """
        from repro.obs.flight import FlightRecorder

        if isinstance(recorder_or_capacity, FlightRecorder):
            recorder = recorder_or_capacity
        else:
            recorder = FlightRecorder(capacity=int(recorder_or_capacity))
        self._flight_recorder = recorder
        return recorder

    def clear_flight_recorder(self) -> None:
        """Detach the flight recorder (its records stay readable)."""
        self._flight_recorder = None

    @property
    def flight_recorder(self):
        """The attached FlightRecorder, or None."""
        return self._flight_recorder

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the shared worker pool down (the router stays usable)."""
        self._worker_pool.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # kNN
    # ------------------------------------------------------------------
    def knn_batch(self, queries: np.ndarray, k: int = 1) -> ShardedBatchResult:
        """Exact scatter-gather kNN, answers identical to one engine."""
        k = checked_k(k, self._n_live)
        queries = checked_queries(self.shards[0].tree, queries)
        if self._flight_recorder is not None:
            return observe_batch(
                self._flight_recorder, self, "knn-batch",
                next_query_id(),
                lambda: self._knn_batch_impl(queries, k),
            )
        return self._knn_batch_impl(queries, k)

    def _knn_batch_impl(
        self, queries: np.ndarray, k: int
    ) -> ShardedBatchResult:
        dmin = mindist_matrix(queries, self._lowers, self._uppers, self.metric)
        dmax = maxdist_matrix(queries, self._lowers, self._uppers, self.metric)
        bound = guarantee_radii(dmax, self._counts, k)
        return self._scatter_gather(
            queries,
            dmin,
            dmax,
            bound,
            # A shard with fewer than k points answers with all of them.
            run=lambda shard, active: shard.engine.knn_batch(
                queries[active],
                k=min(k, shard.tree.n_live_points),
                radius_cap=bound[active],
            ),
            tighten=lambda merge: self._kth_distance(merge, k),
            lost_maxdist=lambda q, pages: dmax[q, pages],
            top_k=k,
        )

    @staticmethod
    def _kth_distance(merge: _QueryMerge, k: int) -> float:
        """The k-th smallest distance collected so far (inf if < k).

        Interval fallbacks participate at their conservative maxdist,
        which keeps the bound a sound upper limit on the k-th distance
        of the final merged answer.
        """
        if not merge.dists:
            return np.inf
        dists = np.concatenate(merge.dists)
        if dists.size < k:
            return np.inf
        return float(np.partition(dists, k - 1)[k - 1])

    # ------------------------------------------------------------------
    # Range
    # ------------------------------------------------------------------
    def range_batch(self, queries: np.ndarray, radius) -> ShardedBatchResult:
        """Scatter-gather range search; one shard-skip rule: distance."""
        queries = checked_queries(self.shards[0].tree, queries)
        radii = checked_radii(radius, queries.shape[0])
        if self._flight_recorder is not None:
            return observe_batch(
                self._flight_recorder, self, "range-batch",
                next_query_id(),
                lambda: self._range_batch_impl(queries, radii),
            )
        return self._range_batch_impl(queries, radii)

    def _range_batch_impl(
        self, queries: np.ndarray, radii: np.ndarray
    ) -> ShardedBatchResult:
        dmin = mindist_matrix(queries, self._lowers, self._uppers, self.metric)
        return self._scatter_gather(
            queries,
            dmin,
            None,
            radii.copy(),
            run=lambda shard, active: shard.engine.range_batch(
                queries[active], radii[active]
            ),
            tighten=None,
            lost_maxdist=lambda q, pages: np.full(len(pages), np.inf),
            top_k=None,
        )

    # ------------------------------------------------------------------
    # The scatter-gather core (shared by kNN and range)
    # ------------------------------------------------------------------
    def _scatter_gather(
        self,
        queries: np.ndarray,
        dmin: np.ndarray,
        dmax: np.ndarray | None,
        bound: np.ndarray,
        run,
        tighten,
        lost_maxdist,
        top_k: int | None,
    ) -> ShardedBatchResult:
        n_queries = queries.shape[0]
        n_shards = len(self.shards)
        if n_queries == 0:
            return ShardedBatchResult(
                queries=[],
                stats=BatchStats.merge_shards(
                    [], n_queries=0, workers=self.workers
                ),
                routing=ShardBatchTrace(
                    visit_order=[],
                    contacted=np.zeros(0, dtype=np.int64),
                    skipped=0,
                ),
            )
        # (q, s) best mindist of each shard, from the global directory.
        shard_best = np.empty((n_queries, n_shards))
        for s, shard in enumerate(self.shards):
            shard_best[:, s] = dmin[:, shard.pages].min(axis=1)
        # Ascending best-mindist visit order (batch average; stable, so
        # the shard index breaks ties).  Nearer shards answer first,
        # which is what lets the running bound prune the farther ones.
        visit_order = np.argsort(shard_best.mean(axis=0), kind="stable")

        merges = [_QueryMerge() for _ in range(n_queries)]
        shard_stats: list[BatchStats] = []
        contacted = np.zeros(n_queries, dtype=np.int64)
        skipped = 0
        shard_seconds: list[float] = []
        dead: list[int] = []
        dead_lost_total = 0

        visit_spans: list = []
        for s in visit_order.tolist():
            shard = self.shards[s]
            active = np.flatnonzero(shard_best[:, s] <= bound)
            skipped += n_queries - active.size
            if active.size == 0:
                continue
            result = None
            # The sub-span attributes its I/O to the shard's own disk
            # but is *placed* on the tracer's composite clock, so
            # sibling visits stay monotone; radius_cap snapshots the
            # per-active-query bound in force when the visit started.
            with obs_span(
                "shard-visit",
                disk=shard.tree.disk,
                shard=int(s),
                queries=int(active.size),
                radius_cap=[float(b) for b in bound[active].tolist()],
            ) as visit_span:
                if visit_span is not None:
                    visit_spans.append(visit_span)
                if shard.alive:
                    try:
                        result = run(shard, active)
                    except (StorageError, QueryDataError):
                        # A failing shard is a dead shard for this
                        # batch: degrade exactly like kill_shard, do
                        # not fail the whole scatter-gather.
                        result = None
                if result is None:
                    if s not in dead:
                        dead.append(s)
                    lost_here = self._degrade_dead_shard(
                        shard, active, dmin, bound, merges, lost_maxdist
                    )
                    dead_lost_total += lost_here
                    if visit_span is not None:
                        visit_span.attrs["outcome"] = "dead"
                        visit_span.attrs["lost_pages"] = lost_here
                    continue
                shard_stats.append(result.stats)
                shard_seconds.append(float(result.stats.io.elapsed))
                degraded_here = 0
                lost_here = 0
                for j, q in enumerate(active.tolist()):
                    shard_answer = result.queries[j]
                    if shard_answer.degraded:
                        degraded_here += 1
                    lost_here += len(shard_answer.lost_pages)
                    merges[q].absorb(shard_answer, shard.pages)
                    contacted[q] += 1
                    if tighten is not None:
                        bound[q] = min(bound[q], tighten(merges[q]))
                if visit_span is not None:
                    candidate_pages = sum(
                        answer.stats.candidate_pages
                        for answer in result.queries
                    )
                    visit_span.attrs["outcome"] = (
                        "degraded" if degraded_here else "ok"
                    )
                    visit_span.attrs["pages_read"] = (
                        result.stats.pages_read
                    )
                    visit_span.attrs["pages_pruned"] = (
                        int(active.size) * int(shard.pages.size)
                        - candidate_pages
                    )
                    visit_span.attrs["degraded_queries"] = degraded_here
                    visit_span.attrs["lost_pages"] = lost_here

        results = [
            self._finalize(merge, top_k) for merge in merges
        ]
        stats = BatchStats.merge_shards(
            shard_stats,
            n_queries=n_queries,
            workers=self.workers,
            extra_lost_pages=dead_lost_total,
        )
        if REGISTRY.enabled and n_queries:
            ROUTER_BATCHES.inc()
            SHARDS_SKIPPED.inc(skipped)
            for q in range(n_queries):
                SHARDS_CONTACTED.observe(float(contacted[q]))
        trace = ShardBatchTrace(
            visit_order=visit_order.tolist(),
            contacted=contacted,
            skipped=skipped,
            dead=tuple(sorted(dead)),
            shard_seconds=tuple(shard_seconds),
            spans=tuple(visit_spans),
        )
        return ShardedBatchResult(
            queries=results, stats=stats, routing=trace
        )

    def _degrade_dead_shard(
        self, shard, active, dmin, bound, merges, lost_maxdist
    ) -> int:
        """Report a dead shard's possible contributions as lost pages.

        For each affected query, every page of the shard whose global
        mindist is within the query's *current* bound could still have
        held a result; it is reported with its global page index and
        global-directory distance bounds, mirroring what the engine
        reports for an unreadable page of a live tree.  Returns the
        number of lost-page reports synthesized (for the merged stats).
        """
        synthesized = 0
        affected = 0
        for q in active.tolist():
            pages = shard.pages[
                np.flatnonzero(dmin[q, shard.pages] <= bound[q])
            ]
            if pages.size == 0:
                continue
            maxdists = lost_maxdist(q, pages)
            merge = merges[q]
            for p, hi in zip(pages.tolist(), np.asarray(maxdists).tolist()):
                merge.lost.append(
                    LostPage(
                        page=int(p),
                        n_points=int(self._counts[p]),
                        mindist=float(dmin[q, p]),
                        maxdist=float(hi),
                    )
                )
                synthesized += 1
            merge.degraded = True
            affected += 1
        if REGISTRY.enabled:
            if affected:
                DEAD_SHARD_QUERIES.inc(affected)
            if synthesized:
                LOST_PAGES.inc(synthesized)
        return synthesized

    def _finalize(
        self, merge: _QueryMerge, top_k: int | None
    ) -> BatchQueryResult:
        """Merge one query's per-shard answers into the final result.

        Candidates are concatenated in shard-visit order and re-ranked
        by ``(distance, id)`` -- the same tie-break
        :meth:`~repro.core.search.KBest.sorted_results` uses -- then cut
        to ``top_k`` for kNN (range keeps everything).  Lost pages are
        reported in ascending global page order, matching the engine's
        ascending-candidate order over one directory.
        """
        if merge.ids:
            ids = np.concatenate(merge.ids)
            dists = np.concatenate(merge.dists)
            order = np.lexsort((ids, dists))
            if top_k is not None:
                order = order[:top_k]
            ids = ids[order]
            dists = dists[order]
        else:
            ids = np.empty(0, dtype=np.int64)
            dists = np.empty(0, dtype=np.float64)
        lost = tuple(sorted(merge.lost, key=lambda lp: lp.page))
        degraded = merge.degraded or bool(lost)
        certain, intervals = degraded_fields(ids, merge.intervals, degraded)
        return BatchQueryResult(
            ids=ids,
            distances=dists,
            stats=QueryStats(
                candidate_pages=merge.pages,
                candidate_points=merge.points,
                refinements=merge.refinements,
            ),
            certain=certain,
            intervals=intervals,
            lost_pages=lost,
            degraded=degraded,
        )
