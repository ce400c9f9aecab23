"""The optimal-quantization algorithm of Section 3.5.

Starting from the initial 1-bit partitions, the algorithm repeatedly
splits the partition with the largest *variable-cost benefit* (the
reduction in expected refinement cost its split would bring), records the
estimated total query cost after every split, and continues until every
partition is stored at the exact 32-bit representation.  The recorded
trajectory is then rolled back to its global minimum.

The greedy choice is optimal because (a) first- and second-level costs
depend only on the number of pages -- the "constant cost" shared by every
solution of equal size (Lemma 1) -- and (b) the refinement cost is
monotonically decreasing in the resolution with decreasing returns, so a
child's split benefit never exceeds its parent's (Lemma 2).  The run
cannot stop early: the constant cost is not monotone, so local optima
along the trajectory may differ from the global one (Section 3.5).

The implementation simulates the full trajectory on lightweight nodes
(point-index arrays plus MBRs), tracking the argmin step, and finally
materializes the frontier of the split forest at that step.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.exceptions import BuildError
from repro.core.partition import Partition
from repro.core.split import split_partition
from repro.costmodel.model import CostModel
from repro.obs.instruments import (
    OPT_PAGES,
    OPT_RUNS,
    OPT_SPLITS,
    REGISTRY,
)
from repro.quantization.capacity import EXACT_BITS

__all__ = ["OptimizedPartition", "OptimizationTrace", "optimize_partitions"]


@dataclass(frozen=True)
class OptimizedPartition:
    """A partition of the chosen solution with its quantization level.

    ``codec`` selects the second-level page representation
    (:data:`~repro.quantization.codecs.CODEC_GRID` or
    :data:`~repro.quantization.codecs.CODEC_PQ`); for PQ pages,
    ``pq_bits``/``pq_sub`` are the code width and subspace count of the
    per-page codebook and ``eff_bits`` the grid-equivalent resolution
    the cost model uses in place of ``bits``.  The defaults describe a
    plain grid page, so positional two-argument construction keeps its
    pre-codec meaning.

    ``pq_fit`` is the ``(codes, box_lo, box_hi)`` fit of
    :func:`~repro.quantization.codecs.fit_pq` that codec selection
    priced, kept so the page is encoded without fitting it again.  It
    is ``None`` on pages that did not come out of :func:`choose_codecs`
    (a loaded tree, a page built by hand); :func:`page_pq_fit` fits
    those.  It takes no part in equality, hashing or ``repr``.
    """

    partition: Partition
    bits: int
    codec: int = 0
    pq_bits: int = 0
    pq_sub: int = 0
    eff_bits: float = 0.0
    pq_fit: tuple | None = field(default=None, compare=False, repr=False)


def stats_for(opt: "OptimizedPartition"):
    """Codec-aware :class:`~repro.costmodel.model.PartitionStats`.

    Grid pages report their stored ``bits``; PQ pages report the fitted
    codebook's grid-equivalent ``eff_bits``, so every cost consumer
    (optimizer selection, ``estimated_query_cost``, the drift monitor)
    attributes per-codec refinement cost instead of assuming grid.
    """
    from repro.costmodel.model import PartitionStats

    bits = opt.bits
    if opt.codec != 0 and opt.eff_bits:
        bits = opt.eff_bits
    return PartitionStats(
        m=opt.partition.size,
        side_lengths=tuple(opt.partition.mbr.extents.tolist()),
        bits=bits,
    )


@dataclass
class OptimizationTrace:
    """Diagnostics of one optimizer run.

    Attributes
    ----------
    costs:
        Estimated total query cost after each step (index 0 = the
        initial partitioning, before any split).
    best_step:
        Index into ``costs`` of the chosen (minimal) solution.
    n_initial, n_final:
        Page counts of the initial partitioning and the chosen solution.
    """

    costs: list[float]
    best_step: int
    n_initial: int
    n_final: int


class _Node:
    """One node of the simulated split forest."""

    __slots__ = (
        "partition",
        "bits",
        "refine_cost",
        "created_step",
        "split_step",
        "children",
    )

    def __init__(
        self,
        partition: Partition,
        bits: int,
        refine_cost: float,
        created_step: int,
    ):
        self.partition = partition
        self.bits = bits
        self.refine_cost = refine_cost
        self.created_step = created_step
        self.split_step: int | None = None
        self.children: tuple["_Node", "_Node"] | None = None


def optimize_partitions(
    data: np.ndarray,
    initial: list[Partition],
    cost_model: CostModel,
    block_size: int,
    *,
    page_offset: int = 0,
) -> tuple[list[OptimizedPartition], OptimizationTrace]:
    """Run the optimal-quantization algorithm.

    Parameters
    ----------
    data:
        The full data set (partitions index into it).
    initial:
        The 1-bit initial partitioning from the bulk loader.
    cost_model:
        Bound cost model used for both variable and constant costs.
    block_size:
        Fixed quantized-page size in bytes.
    page_offset:
        Pages of the index *outside* ``initial`` that contribute to the
        constant (directory-scan) cost.  Maintenance sweeps use this to
        re-optimize a single page in the context of the whole tree.

    Returns
    -------
    tuple
        ``(solution, trace)`` -- the chosen partitions with their
        quantization levels, in depth-first (spatially coherent) order,
        plus the optimization trace.
    """
    if not initial:
        raise BuildError("optimizer needs at least one initial partition")

    def make_node(partition: Partition, step: int) -> _Node:
        bits = partition.storable_bits(block_size)
        if bits == 0:
            raise BuildError(
                "initial partition does not fit a 1-bit page; "
                "run the bulk loader first"
            )
        stats = partition.stats(block_size)
        return _Node(
            partition, bits, cost_model.refinement_cost(stats), step
        )

    roots = [make_node(p, 0) for p in initial]
    n_pages = len(roots) + page_offset
    refine_sum = sum(node.refine_cost for node in roots)
    costs = [cost_model.total_from_aggregates(n_pages, refine_sum)]
    best_step = 0
    best_cost = costs[0]

    # Max-heap of splittable nodes keyed by variable-cost benefit.  The
    # benefit requires the children, so each candidate split is computed
    # eagerly ("determine_benefits" in the paper's pseudocode).
    heap: list[tuple[float, int, _Node, _Node, _Node]] = []
    counter = 0

    def push_candidate(node: _Node) -> None:
        nonlocal counter
        if node.bits >= EXACT_BITS or node.partition.size < 2:
            return  # already exact: nothing to gain from splitting
        left_part, right_part = split_partition(data, node.partition)
        # Children's nodes are provisional until the split is committed;
        # created_step is patched at commit time.
        left = make_node(left_part, -1)
        right = make_node(right_part, -1)
        benefit = node.refine_cost - (left.refine_cost + right.refine_cost)
        heapq.heappush(heap, (-benefit, counter, node, left, right))
        counter += 1

    for node in roots:
        push_candidate(node)

    step = 0
    while heap:
        _neg_benefit, _tie, node, left, right = heapq.heappop(heap)
        step += 1
        node.split_step = step
        node.children = (left, right)
        left.created_step = step
        right.created_step = step
        n_pages += 1
        refine_sum += left.refine_cost + right.refine_cost - node.refine_cost
        total = cost_model.total_from_aggregates(n_pages, refine_sum)
        costs.append(total)
        if total < best_cost:
            best_cost = total
            best_step = step
        push_candidate(left)
        push_candidate(right)

    # Materialize the frontier at the best step: a node belongs to the
    # solution iff it existed by then and was not yet split.
    solution: list[OptimizedPartition] = []
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        if node.split_step is not None and node.split_step <= best_step:
            left, right = node.children
            stack.append(right)
            stack.append(left)
        else:
            solution.append(OptimizedPartition(node.partition, node.bits))
    trace = OptimizationTrace(
        costs=costs,
        best_step=best_step,
        n_initial=len(initial),
        n_final=len(solution),
    )
    if REGISTRY.enabled:
        OPT_RUNS.inc()
        OPT_SPLITS.inc(step)
        OPT_PAGES.set(len(initial), stage="initial")
        OPT_PAGES.set(len(solution), stage="final")
    return solution, trace


def fixed_bits_partitions(
    data: np.ndarray, block_size: int, bits: int
) -> list[OptimizedPartition]:
    """Ablation helper: partition for a *fixed* quantization level.

    Splits until every partition fits a page at exactly ``bits`` bits
    per dimension, bypassing the optimizer.  Used by the ablation
    benchmarks to show what independent (per-page) optimization buys
    over a global constant resolution.
    """
    from repro.core.build import partitions_for_capacity
    from repro.quantization.capacity import capacity_for_bits

    capacity = capacity_for_bits(block_size, data.shape[1], bits)
    parts = partitions_for_capacity(np.asarray(data, np.float64), capacity)
    return [OptimizedPartition(p, bits) for p in parts]


__all__.append("fixed_bits_partitions")


def pq_candidate_configs(dim: int) -> list[tuple[int, int]]:
    """Candidate ``(n_sub, pq_bits)`` PQ configurations for ``dim`` data.

    Deliberately small: one scalar-codebook config per interesting code
    width (``S = d`` -- an independent non-uniform grid per dimension)
    plus one paired-dimension config that can capture correlation.
    """
    configs = [(dim, 2), (dim, 3), (dim, 4), (dim, 6)]
    if dim >= 2:
        configs.append(((dim + 1) // 2, 8))
    return configs


def _fitting_pq_configs(
    part: Partition, block_size: int
) -> list[tuple[int, int]]:
    """The candidate ``(n_sub, pq_bits)`` whose page fits a block."""
    from repro.quantization.codecs import pq_page_fits

    m, dim = part.size, part.mbr.dim
    return [
        (n_sub, pq_bits)
        for n_sub, pq_bits in pq_candidate_configs(dim)
        if pq_page_fits(m, dim, n_sub, pq_bits, block_size)
    ]


def _best_pq_for(
    data: np.ndarray,
    opt: OptimizedPartition,
    cost_model: CostModel,
    block_size: int,
) -> tuple["OptimizedPartition | None", float]:
    """Cheapest fitting PQ encoding of ``opt``'s partition (or None)."""
    from repro.quantization.codecs import (
        CODEC_PQ,
        effective_bits,
        fit_pq,
        PQView,
    )

    part = opt.partition
    dim = part.mbr.dim
    points = part.points(data)
    best: OptimizedPartition | None = None
    best_cost = np.inf
    for n_sub, pq_bits in _fitting_pq_configs(part, block_size):
        codes, lo32, hi32 = fit_pq(points, n_sub, pq_bits)
        view = PQView(
            lo32.astype(np.float64),
            hi32.astype(np.float64),
            n_sub,
            dim,
        )
        eff = effective_bits(part.mbr.extents, codes, view)
        candidate = replace(
            opt,
            codec=CODEC_PQ,
            pq_bits=pq_bits,
            pq_sub=n_sub,
            eff_bits=eff,
            pq_fit=(codes, lo32, hi32),
        )
        cost = cost_model.refinement_cost(stats_for(candidate))
        if cost < best_cost:
            best, best_cost = candidate, cost
    return best, best_cost


def page_pq_fit(opt: OptimizedPartition, points: np.ndarray) -> tuple:
    """The ``(codes, box_lo, box_hi)`` fit to encode PQ page ``opt``.

    The fit codec selection kept, or -- for a page that holds none --
    a fresh :func:`~repro.quantization.codecs.fit_pq` of ``points``
    (the page's exact coordinates).  ``fit_pq`` is deterministic, so
    both give the same bytes.
    """
    if opt.pq_fit is not None:
        return opt.pq_fit
    from repro.quantization.codecs import fit_pq

    return fit_pq(points, opt.pq_sub, opt.pq_bits)


def _pq_cost_floor(
    data: np.ndarray,
    opt: OptimizedPartition,
    cost_model: CostModel,
    block_size: int,
) -> float:
    """A lower bound on ``_best_pq_for(...)[1]``, found without a fit.

    The refinement cost at :func:`effective_bits_bound` over the
    largest cluster count of the fitting configurations; ``inf`` when
    no configuration fits (``_best_pq_for`` then finds nothing).
    """
    from repro.quantization.codecs import CODEC_PQ, effective_bits_bound

    part = opt.partition
    configs = _fitting_pq_configs(part, block_size)
    if not configs:
        return math.inf
    k = max(min(1 << pq_bits, part.size) for _, pq_bits in configs)
    eff_ub = effective_bits_bound(part.points(data), part.mbr.extents, k)
    bound = replace(opt, codec=CODEC_PQ, eff_bits=eff_ub)
    return cost_model.refinement_cost(stats_for(bound))


def _merge_pass(
    data: np.ndarray,
    chosen: list[OptimizedPartition],
    cost_model: CostModel,
    block_size: int,
) -> list[OptimizedPartition]:
    """Coalesce adjacent pages into single PQ pages while cheaper.

    This is where compression buys the paper's objective directly:
    narrower codes let the points of two neighboring pages fit one
    block, so every surviving page removes a directory row and a
    potential seek.  Lemma 1 splits the objective exactly as the
    optimizer does -- first- and second-level costs depend only on the
    page count -- so a merge is accepted iff
    ``total(n-1, refine - r_i - r_j + r_merged) < total(n, refine)``.
    Passes repeat (merged pages can merge again) until a fixed point.

    The split trajectory is left alone: the optimizer already explored
    every *grid* coarsening when it rolled back to the best step, so
    only PQ-coded merges can still pay.
    """
    improved = True
    while improved:
        improved = False
        refine = [
            cost_model.refinement_cost(stats_for(o)) for o in chosen
        ]
        refine_sum = float(sum(refine))
        n = len(chosen)
        out: list[OptimizedPartition] = []
        i = 0
        while i < len(chosen):
            if i + 1 < len(chosen):
                left, right = chosen[i], chosen[i + 1]
                indices = np.concatenate(
                    (left.partition.indices, right.partition.indices)
                )
                merged_part = Partition.of(data, indices)
                merged_opt = OptimizedPartition(merged_part, 1)
                old_total = cost_model.total_from_aggregates(n, refine_sum)
                rest = refine_sum - refine[i] - refine[i + 1]
                floor = _pq_cost_floor(
                    data, merged_opt, cost_model, block_size
                )
                if (
                    cost_model.total_from_aggregates(n - 1, rest + floor)
                    < old_total
                ):
                    best, r_merged = _best_pq_for(
                        data, merged_opt, cost_model, block_size
                    )
                    new_sum = rest + r_merged
                    if best is not None and (
                        cost_model.total_from_aggregates(n - 1, new_sum)
                        < old_total
                    ):
                        out.append(best)
                        refine_sum = new_sum
                        n -= 1
                        i += 2
                        improved = True
                        continue
            out.append(chosen[i])
            i += 1
        chosen = out
    return chosen


def choose_codecs(
    data: np.ndarray,
    solution: list[OptimizedPartition],
    cost_model: CostModel,
    block_size: int,
    *,
    mode: str = "grid",
    allow_merge: bool = False,
) -> list[OptimizedPartition]:
    """Codec selection as a post-pass over the grid solution.

    Two stages.  First, page by page, a per-page PQ codebook replaces
    the grid where it wins at the paper's expected-cost objective --
    the eq. 2-5 access probabilities are shared (same MBR, same m), so
    comparing expected refinement costs at ``eff_bits`` vs the grid
    ``bits`` is exact.  Second (``allow_merge``, bulk builds only),
    adjacent pages whose points fit a single PQ-coded block are
    coalesced while the model's total cost decreases -- compression
    turned into *fewer pages*, hence fewer transferred blocks.
    Maintenance sweeps keep ``allow_merge=False``: a sweep re-encodes
    pages in place and must preserve the page structure.

    ``mode`` is the tree-wide policy: ``"grid"`` returns the solution
    unchanged (byte-identical trees), ``"pq"`` forces the best-fitting
    PQ config wherever one fits, ``"auto"`` picks PQ only where the
    model says it is strictly cheaper (ties keep grid).

    Fits that provably cannot change a decision are skipped.  The
    fitted ``eff_bits`` of every configuration is at most the page's
    :func:`~repro.quantization.codecs.effective_bits_bound`, and the
    eq. 15 cell volume ``V_mbr / 2^(d*g)`` shrinks as ``g`` grows, so
    the refinement cost never rises with bits: the cost at the bound
    (``_pq_cost_floor``) is at most the cost of the best fit.  In
    ``"auto"`` mode a page whose floor is ``>= grid_cost`` keeps its
    grid page unfitted, and the merge pass fits a pair only when
    ``total(n-1, refine - r_i - r_j + floor) < total(n, refine)``.
    Both comparisons use the same float expressions as the accepting
    ones, so every decision and every stored byte is the same as with
    all fits run.
    """
    if mode == "grid":
        return list(solution)
    if mode not in ("pq", "auto"):
        raise BuildError(f"unknown codec mode {mode!r}")
    chosen: list[OptimizedPartition] = []
    for opt in solution:
        if opt.bits >= EXACT_BITS or opt.partition.size < 2:
            chosen.append(opt)
            continue
        grid_cost = cost_model.refinement_cost(stats_for(opt))
        if mode == "auto" and (
            _pq_cost_floor(data, opt, cost_model, block_size) >= grid_cost
        ):
            chosen.append(opt)
            continue
        best, best_cost = _best_pq_for(data, opt, cost_model, block_size)
        if best is None or (mode == "auto" and best_cost >= grid_cost):
            chosen.append(opt)
        else:
            chosen.append(best)
    if allow_merge:
        chosen = _merge_pass(data, chosen, cost_model, block_size)
    return chosen


__all__.extend(
    ["choose_codecs", "page_pq_fit", "pq_candidate_configs", "stats_for"]
)
