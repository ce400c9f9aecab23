"""Dynamic maintenance of an IQ-tree (paper Section 6).

Inserts and deletes mutate the in-memory partition list; the three
on-"disk" files are re-laid-out lazily before the next query (the files
are rebuilt in full -- acceptable for a simulator, and it keeps every
extent contiguous).  Maintenance operations themselves are *layout
free*: a burst of inserts and deletes never rebuilds the files between
operations (page targeting reads MBRs straight from the partition list
while the tree is dirty), so replaying a journal of N operations costs
one re-layout at the first query, not N.

The interesting decision the paper highlights is the overflow case:
when a page can no longer hold its points at the current resolution,
the tree either *splits* the page (one more page, finer quantization)
or *re-quantizes it coarser* (same page count, more refinement
look-ups).  The choice is made by comparing the cost model's estimate
of both outcomes, exactly as the optimizer would.

:class:`MaintenanceManager` closes the loop the paper leaves manual:
it tracks which pages have drifted from their optimized quantization
(structural edits leave new partition objects; the cost-model drift
monitor flags global model error) and re-runs the greedy
split/rollback optimizer on just those pages in a background sweep.
Bits-only improvements are swapped in place via
:meth:`~repro.storage.blockfile.BlockFile.replace_block` under the
tree's write lock; splits and exact-level transitions fall back to an
epoch-guarded full re-layout.  Re-quantization never changes query
*answers* (the index is exact with respect to its stored data), only
query *cost* -- which is what makes concurrent sweeps safe to verify
bit-for-bit against a sweep-free baseline.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

import numpy as np

from repro.exceptions import BuildError, SearchError
from repro.core.build import bulk_load_partitions
from repro.core.optimizer import (
    OptimizedPartition,
    choose_codecs,
    optimize_partitions,
    page_pq_fit,
)
from repro.core.partition import Partition
from repro.core.split import split_partition
from repro.core.tree import IQTree, canonicalize
from repro.obs.instruments import (
    MAINT_DIRTY,
    MAINT_REQUANTIZED,
    MAINT_RESTRUCTURED,
    MAINT_SWEEPS,
    REGISTRY,
)
from repro.obs.tracing import span
from repro.quantization.capacity import EXACT_BITS, max_bits_for_count

__all__ = [
    "insert_point",
    "delete_point",
    "locate_point",
    "reoptimize",
    "MaintenanceManager",
    "MaintenanceLoop",
    "SweepReport",
]


def insert_point(tree: IQTree, point: np.ndarray) -> int:
    """Insert one point; returns its assigned id.

    The target page is the one whose MBR needs the least volume
    enlargement (ties: the smaller page).  If the page overflows its
    current quantization level, the split-vs-coarser decision described
    in Section 6 is made with the cost model.
    """
    point = canonicalize(np.asarray(point, dtype=np.float64).reshape(1, -1))
    if point.shape[1] != tree.dim:
        raise SearchError(
            f"point must have {tree.dim} dimensions, got {point.shape[1]}"
        )
    new_id = tree._points.shape[0]
    grown_points = np.vstack([tree._points, point])
    target = _least_enlargement_page(tree, point[0])
    opt = tree._partitions[target]
    part = opt.partition
    indices = np.append(part.indices, new_id)
    mbr = part.mbr.extended_by_point(point[0])
    grown = Partition(indices, mbr)
    block_size = tree.disk.model.block_size
    finest = max_bits_for_count(block_size, tree.dim, grown.size)

    # Resolve the overflow decision fully before mutating the tree, so
    # a BuildError (e.g. an unsplittable overflowing page) leaves it
    # exactly as it was -- point list, partitions, and clean layout.
    if finest >= opt.bits:
        # Still fits at the current resolution: update in place.
        replacement = [OptimizedPartition(grown, opt.bits)]
    elif finest >= 1 and _coarser_beats_split(tree, grown, finest, grown_points):
        replacement = [OptimizedPartition(grown, finest)]
    else:
        left, right = split_partition(grown_points, grown)
        replacement = [_sized(tree, left), _sized(tree, right)]
    tree._points = grown_points
    tree._partitions[target : target + 1] = replacement
    tree._dirty = True
    return new_id


def locate_point(tree: IQTree, point_id: int) -> int | None:
    """Partition index currently holding ``point_id``, or ``None``.

    On a clean tree this is the id map built by the last layout; on a
    dirty tree (mid-burst maintenance) it scans the partition list
    instead of forcing a full file re-layout just to answer a lookup.
    """
    point_id = int(point_id)
    if not tree._dirty:
        id_map = tree._id_to_partition
        page = int(id_map[point_id]) if 0 <= point_id < id_map.size else -1
        return None if page < 0 else page
    for j, opt in enumerate(tree._partitions):
        if np.any(opt.partition.indices == point_id):
            return j
    return None


def delete_point(tree: IQTree, point_id: int) -> None:
    """Delete a point by id.

    The containing page shrinks (its MBR is re-tightened); an emptied
    page is removed.  The page keeps its quantization level -- the next
    :func:`reoptimize` or maintenance sweep reconsiders it.  Layout
    free: deleting from a dirty tree does not rebuild the files first.
    """
    target = locate_point(tree, point_id)
    if target is None:
        raise SearchError(f"unknown point id: {point_id}")
    opt = tree._partitions[target]
    keep = opt.partition.indices != point_id
    if not np.any(keep):
        if len(tree._partitions) == 1:
            raise BuildError("cannot delete the last point of the index")
        del tree._partitions[target]
    else:
        remaining = opt.partition.indices[keep]
        part = Partition.of(tree._points, remaining)
        tree._partitions[target] = OptimizedPartition(part, opt.bits)
    tree._dirty = True


def reoptimize(tree: IQTree) -> None:
    """Rebuild the partitioning and quantization from scratch.

    Compacts deleted ids away (ids are *not* preserved across a
    reoptimize; the canonical data array is re-indexed).
    """
    live = sorted(
        int(i)
        for opt in tree._partitions
        for i in opt.partition.indices
    )
    data = tree._points[live]
    block_size = tree.disk.model.block_size
    initial = bulk_load_partitions(data, block_size)
    solution, trace = optimize_partitions(
        data, initial, tree.cost_model, block_size
    )
    tree._points = data
    tree._partitions = list(solution)
    tree.trace = trace
    tree._dirty = True


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _page_bounds(tree: IQTree) -> tuple[np.ndarray, np.ndarray]:
    """Per-page MBR bounds without forcing a re-layout.

    A clean tree serves the decoded directory arrays; a dirty one
    assembles the same values from the partition list (identical
    float64 values: every coordinate is float32-canonical, so the
    directory's float32 round trip is lossless).
    """
    if not tree._dirty:
        return tree._lowers, tree._uppers
    n_parts = len(tree._partitions)
    lowers = np.empty((n_parts, tree.dim))
    uppers = np.empty((n_parts, tree.dim))
    for j, opt in enumerate(tree._partitions):
        lowers[j] = opt.partition.mbr.lower
        uppers[j] = opt.partition.mbr.upper
    return lowers, uppers


def _least_enlargement_page(tree: IQTree, point: np.ndarray) -> int:
    """Index of the page whose MBR grows the least to admit ``point``."""
    page_lowers, page_uppers = _page_bounds(tree)
    lowers = np.minimum(page_lowers, point)
    uppers = np.maximum(page_uppers, point)
    new_vol = np.prod(uppers - lowers, axis=1)
    old_vol = np.prod(page_uppers - page_lowers, axis=1)
    enlargement = new_vol - old_vol
    # Tie-break on the smaller resulting volume, then lower index.
    order = np.lexsort((new_vol, enlargement))
    return int(order[0])


def _sized(tree: IQTree, part: Partition) -> OptimizedPartition:
    bits = max_bits_for_count(
        tree.disk.model.block_size, tree.dim, part.size
    )
    if bits == 0:
        raise BuildError("split produced an oversized partition")
    return OptimizedPartition(part, bits)


def _coarser_beats_split(
    tree: IQTree, grown: Partition, coarser_bits: int, points: np.ndarray
) -> bool:
    """Cost-model comparison of the two overflow resolutions.

    ``points`` is the candidate data array including the pending point
    (the tree's own array is not yet updated at decision time).
    """
    model = tree.cost_model
    block_size = tree.disk.model.block_size
    n_pages = len(tree._partitions)

    from repro.costmodel.model import PartitionStats

    coarse_stats = PartitionStats(
        m=grown.size,
        side_lengths=tuple(grown.mbr.extents.tolist()),
        bits=coarser_bits,
    )
    coarse_refine = model.refinement_cost(coarse_stats)
    coarse_total = model.total_from_aggregates(n_pages, coarse_refine)

    left, right = split_partition(points, grown)
    split_refine = model.refinement_cost(
        left.stats(block_size)
    ) + model.refinement_cost(right.stats(block_size))
    split_total = model.total_from_aggregates(n_pages + 1, split_refine)
    # Only the changed page's refinement cost differs between the two
    # candidates, so comparing these partial totals is exact.
    return coarse_total <= split_total


# ----------------------------------------------------------------------
# Drift-triggered background re-quantization
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepReport:
    """Outcome of one maintenance sweep."""

    #: page indices (pre-sweep numbering) the sweep considered dirty
    dirty: tuple[int, ...]
    #: pages whose quantization was rewritten in place (bits change)
    requantized: int
    #: dirty pages that forced a structural re-layout (split, exact
    #: transition, or a quarantined block address)
    restructured: int

    @property
    def noop(self) -> bool:
        return not self.dirty


class MaintenanceManager:
    """Tracks drifted pages and re-optimizes them in background sweeps.

    Dirty tracking is by partition identity: every structural edit
    (:func:`insert_point`, :func:`delete_point`) replaces the touched
    :class:`~repro.core.optimizer.OptimizedPartition` objects, so a
    page is *clean* exactly when its partition object was blessed by
    the last sweep (or by construction with ``baseline="current"``).
    :meth:`observe_drift` feeds in a cost-model drift report (PR 3's
    monitor): when the model's page-access predictions are off by more
    than ``drift_ratio - 1`` relative error, the next sweep re-examines
    *every* page for a suboptimal stored resolution, not just the
    structurally edited ones.

    :meth:`sweep` runs under the tree's write lock: it re-runs the
    greedy split/rollback optimizer on each dirty page (with the rest
    of the tree contributing the constant cost via ``page_offset``),
    swaps bits-only improvements in place through ``replace_block``,
    and folds structural changes into one epoch-guarded re-layout at
    the end.  Sweeps never change query answers, only query cost, and
    they never write to a quarantined block address -- a dirty page
    whose block is quarantined is healed structurally, onto a fresh
    extent.
    """

    def __init__(
        self,
        tree: IQTree,
        *,
        drift_ratio: float = 1.25,
        baseline: str = "current",
    ):
        if drift_ratio <= 1.0:
            raise BuildError("drift_ratio must be > 1")
        self.tree = tree
        self.drift_ratio = float(drift_ratio)
        self._clean: "weakref.WeakSet" = weakref.WeakSet()
        self._drift_flagged = False
        if baseline == "current":
            self.mark_clean()
        elif baseline != "none":
            raise BuildError("baseline must be 'current' or 'none'")

    def mark_clean(self) -> None:
        """Bless every current partition as optimally quantized."""
        self._clean = weakref.WeakSet(self.tree._partitions)

    def observe_drift(self, report) -> bool:
        """Feed a :class:`~repro.obs.drift.DriftReport`; returns whether
        it pushed the manager over the drift threshold."""
        if report.count == 0:
            return False
        if report.page_error_p50 > self.drift_ratio - 1.0:
            self._drift_flagged = True
        return self._drift_flagged

    def dirty_pages(self) -> list[int]:
        """Pages the next sweep would re-optimize (ascending order)."""
        tree = self.tree
        block_size = tree.disk.model.block_size
        dirty: list[int] = []
        for j, opt in enumerate(tree._partitions):
            if opt not in self._clean:
                dirty.append(j)
            elif self._drift_flagged:
                storable = opt.partition.storable_bits(block_size)
                if opt.bits < min(storable, EXACT_BITS) or (
                    storable >= EXACT_BITS and opt.bits < EXACT_BITS
                ):
                    dirty.append(j)
        return dirty

    def maybe_sweep(self) -> SweepReport:
        """Sweep only if something is dirty (cheap to call in a loop)."""
        with self.tree._write_lock:
            if not self.dirty_pages():
                return SweepReport((), 0, 0)
            return self.sweep()

    def sweep(self) -> SweepReport:
        """Re-optimize every dirty page under the tree's write lock.

        A failing sweep (storage fault, optimizer error) is recorded in
        the tree's flight recorder (reason ``faulted``) and re-raised;
        the tree itself is left consistent -- in-place swaps are atomic
        per page and the structural path re-lays-out from the partition
        list, which is never left half-edited.
        """
        tree = self.tree
        with tree._write_lock:
            tree._ensure_clean()
            dirty = self.dirty_pages()
            if REGISTRY.enabled:
                MAINT_DIRTY.set(len(dirty))
            if not dirty:
                self._drift_flagged = False
                if REGISTRY.enabled:
                    MAINT_SWEEPS.inc(outcome="noop")
                return SweepReport((), 0, 0)
            try:
                with span(
                    "maintenance-sweep", disk=tree.disk, pages=len(dirty)
                ):
                    report = self._sweep_locked(dirty)
            except Exception as exc:
                if REGISTRY.enabled:
                    MAINT_SWEEPS.inc(outcome="error")
                recorder = tree._flight_recorder
                if recorder is not None:
                    recorder.record(
                        "maintenance",
                        -1,
                        ("faulted",),
                        0.0,
                        {"dirty_pages": len(dirty)},
                        detail={
                            "error": f"{type(exc).__name__}: {exc}"
                        },
                    )
                raise
            self._drift_flagged = False
            if REGISTRY.enabled:
                MAINT_SWEEPS.inc(outcome="ok")
            return report

    # ------------------------------------------------------------------
    # Internals (write lock held)
    # ------------------------------------------------------------------
    def _sweep_locked(self, dirty: list[int]) -> SweepReport:
        tree = self.tree
        model = tree.cost_model
        block_size = tree.disk.model.block_size
        ctx = tree._fault_ctx
        requantized = restructured = 0
        structural = False
        # Descending page order: structural splices at page j only
        # renumber pages > j, which were already handled, so in-place
        # block indices for the remaining (smaller) pages stay valid.
        for j in sorted(dirty, reverse=True):
            old = tree._partitions[j]
            solution, _ = optimize_partitions(
                tree._points,
                [old.partition],
                model,
                block_size,
                page_offset=len(tree._partitions) - 1,
            )
            # Re-encodes respect the tree-wide codec policy: the sweep
            # re-runs codec selection on the fresh grid solution, so a
            # "pq"/"auto" tree keeps (or regains) its PQ pages and a
            # "grid" tree never grows one.
            solution = choose_codecs(
                tree._points,
                solution,
                model,
                block_size,
                mode=tree.codec_mode,
            )
            if len(solution) == 1 and (
                solution[0].partition is old.partition
            ):
                new = solution[0]
                if (
                    new.bits == old.bits
                    and new.codec == old.codec
                    and new.pq_bits == old.pq_bits
                    and new.pq_sub == old.pq_sub
                ):
                    self._clean.add(old)
                    continue
                quarantined = (
                    ctx is not None
                    and not tree._dirty
                    and tree._quant_file.extent_start + j
                    in ctx.quarantine
                )
                if (
                    old.bits < EXACT_BITS
                    and new.bits < EXACT_BITS
                    and not quarantined
                ):
                    self._replace_page(j, new)
                    requantized += 1
                    self._clean.add(new)
                    continue
            # Split, exact-level transition, or quarantined address:
            # splice the new partitions in and re-layout once at the
            # end, onto fresh extents.
            tree._partitions[j : j + 1] = list(solution)
            for new in solution:
                self._clean.add(new)
            structural = True
            restructured += 1
            if REGISTRY.enabled:
                MAINT_RESTRUCTURED.inc()
        if structural:
            tree._dirty = True
            tree._ensure_clean()
        return SweepReport(tuple(sorted(dirty)), requantized, restructured)

    def _replace_page(self, page: int, new: OptimizedPartition) -> None:
        """In-place swap of one quantized page (same extent address)."""
        from repro.quantization.codecs import CODEC_PQ
        from repro.quantization.grid import GridQuantizer
        from repro.storage import serializer

        tree = self.tree
        part = new.partition
        pts = part.points(tree._points)
        if new.codec == CODEC_PQ:
            payload = serializer.encode_pq_page(
                page_pq_fit(new, pts),
                part.size,
                new.pq_bits,
                new.pq_sub,
                tree.disk.model.block_size,
            )
        else:
            quantizer = GridQuantizer(part.mbr, new.bits)
            payload = serializer.encode_quantized_page(
                quantizer.encode(pts),
                new.bits,
                tree.disk.model.block_size,
            )
        # CachedBlockFile.replace_block drops the pool resident; the
        # CRC sidecar catches any decoded-page cache entry, but evict
        # it eagerly rather than on the next (failed) validation.
        tree._quant_file.replace_block(page, payload)
        tree._partitions[page] = new
        tree._bits[page] = new.bits
        if tree._decoded_cache is not None:
            tree._decoded_cache.invalidate(page)
        tree.epoch += 1
        if REGISTRY.enabled:
            MAINT_REQUANTIZED.inc()


class MaintenanceLoop:
    """Background thread running :meth:`MaintenanceManager.maybe_sweep`.

    The loop wakes every ``interval`` seconds; each sweep serializes
    against queries through the tree's write lock, so concurrent
    batches (serial, process-backed, sharded) observe either the
    pre-sweep or the post-sweep index, never a torn one.  Errors stop
    the loop and are re-raised by :meth:`stop` (and recorded in the
    flight recorder by the manager).
    """

    def __init__(self, manager: MaintenanceManager, interval: float = 0.02):
        self.manager = manager
        self.interval = float(interval)
        self.sweeps = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None

    def start(self) -> "MaintenanceLoop":
        if self._thread is not None:
            raise BuildError("maintenance loop already started")
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                report = self.manager.maybe_sweep()
            except BaseException as exc:  # noqa: BLE001 -- surfaced in stop()
                self._error = exc
                return
            if not report.noop:
                self.sweeps += 1
            self._stop.wait(self.interval)

    def stop(self) -> int:
        """Stop the thread; returns the number of non-noop sweeps."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if self._error is not None:
            error, self._error = self._error, None
            raise error
        return self.sweeps

    def __enter__(self) -> "MaintenanceLoop":
        return self.start()

    def __exit__(self, *exc) -> bool:
        if exc[0] is None:
            self.stop()
        else:
            # Don't mask the body's exception with a sweep error.
            self._stop.set()
            if self._thread is not None:
                self._thread.join()
                self._thread = None
        return False
