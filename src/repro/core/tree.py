"""The IQ-tree: a three-level compressed index (paper Section 3).

Level 1 is a flat directory of exact MBRs (one entry per data page),
level 2 holds the grid-quantized data pages with per-page bit resolution,
and level 3 holds the exact point data, consulted only when a query
cannot be decided on the approximation.  Each level lives in its own
:class:`~repro.storage.blockfile.BlockFile` on a shared simulated disk.

Coordinates are canonicalized to float32 precision at build time (the
stored representation is float32, as in the paper's implementation), so
the index is exact with respect to its own stored data;
:attr:`IQTree.points` exposes the canonical copy all comparisons should
use.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.exceptions import BuildError, PersistentReadError, SearchError
from repro.core.build import bulk_load_partitions
from repro.core.optimizer import (
    OptimizedPartition,
    OptimizationTrace,
    choose_codecs,
    optimize_partitions,
    fixed_bits_partitions,
    page_pq_fit,
    stats_for,
)
from repro.costmodel.fractal import correlation_dimension
from repro.costmodel.model import CostModel
from repro.geometry.mbr import MBR
from repro.geometry.metrics import get_metric
from repro.obs.instruments import PAGES_DECODED, REFINEMENTS, REGISTRY
from repro.obs.tracing import span as obs_span
from repro.quantization.capacity import EXACT_BITS
from repro.quantization.codecs import CODEC_PQ
from repro.quantization.grid import GridQuantizer
from repro.storage.blockfile import BlockFile
from repro.storage.disk import SimulatedDisk
from repro.storage import serializer

__all__ = [
    "IQTree", "canonicalize", "PageHandle", "ExactStore", "decode_page",
]


def canonicalize(data: np.ndarray) -> np.ndarray:
    """Round coordinates to float32 precision (the stored precision)."""
    return np.asarray(data, dtype=np.float32).astype(np.float64)


@dataclass
class PageHandle:
    """Decoded view of one quantized data page (internal to search)."""

    index: int
    bits: int
    codes: np.ndarray | None  # uint32 cell codes when bits < 32
    points: np.ndarray | None  # exact coords when bits = 32
    ids: np.ndarray | None  # inline ids when bits = 32
    codec: int = 0  # page codec id (0 = grid, 1 = per-page PQ)
    aux: object | None = None  # codec side data (PQView for PQ pages)


def decode_page(page: int, payload: bytes, dim: int) -> PageHandle:
    """Decode one quantized-level page payload into a :class:`PageHandle`
    (exact pages: coordinates and ids; PQ pages: selectors and codebook
    view; grid pages: cell codes)."""
    contents, g, ids, aux = serializer.decode_quantized_page(payload, dim)
    if g >= EXACT_BITS:
        return PageHandle(page, g, None, contents, ids)
    if aux is not None:
        return PageHandle(
            page, g, contents, None, None, codec=CODEC_PQ, aux=aux
        )
    return PageHandle(page, g, contents, None, None)


class IQTree:
    """A built IQ-tree over a point data set.

    Use :meth:`IQTree.build` to construct one; the initializer is
    internal.  Public query entry points are :meth:`nearest` and
    :meth:`range_query`; :meth:`insert`, :meth:`delete`, and
    :meth:`reoptimize` provide dynamic maintenance.
    """

    def __init__(
        self,
        points: np.ndarray,
        solution: list[OptimizedPartition],
        disk: SimulatedDisk,
        metric,
        cost_model: CostModel,
        trace: OptimizationTrace | None,
        charge_directory: bool,
        codec_mode: str = "grid",
        directory_codec: str = "dense",
    ):
        self._points = points
        self._partitions = list(solution)
        self.disk = disk
        self.metric = metric
        self.cost_model = cost_model
        self.trace = trace
        self.charge_directory = charge_directory
        #: tree-wide codec policy maintenance sweeps re-apply when they
        #: re-quantize pages ("grid", "pq", or "auto").
        self.codec_mode = codec_mode
        #: first-level layout: "dense" fixed-width rows or "ef"
        #: Elias-Fano reference columns ("auto" resolves at layout).
        self.directory_codec = directory_codec
        self._dirty = True
        #: point id -> page holding it (-1: no page), built by _layout
        self._id_to_partition = np.empty(0, dtype=np.int64)
        self._pool = None
        #: optional FaultContext (retry policy + quarantine) consulted
        #: by the query paths; None = fail-fast on any StorageError.
        self._fault_ctx = None
        #: optional DecodedPageCache serving decoded quantized pages
        #: across batches and single queries (see use_decoded_cache).
        self._decoded_cache = None
        #: optional FlightRecorder capturing postmortems of slow /
        #: degraded / faulted queries (see use_flight_recorder).
        self._flight_recorder = None
        #: highest journal sequence number folded into the container
        #: this tree was loaded from (see repro.storage.journal).
        self._wal_seq = 0
        #: reentrant lock serializing structural mutations (re-layouts,
        #: in-place page swaps) against query planning; the engine holds
        #: it for a whole batch, so a concurrent maintenance sweep can
        #: never expose a torn index to in-flight queries.
        self._write_lock = threading.RLock()
        #: bumped on every layout change or in-place page swap; query
        #: snapshots can compare epochs to detect a swap under them.
        self.epoch = 0
        self._layout()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        data: np.ndarray,
        disk: SimulatedDisk | None = None,
        metric="euclidean",
        fractal_dim: float | str | None = "auto",
        optimize: bool = True,
        fixed_bits: int | None = None,
        k_for_cost: int = 1,
        charge_directory: bool = True,
        layout: str = "spatial",
        layout_seed: int = 0,
        codec: str = "grid",
    ) -> "IQTree":
        """Bulk-load an IQ-tree.

        Parameters
        ----------
        data:
            Point data, shape ``(n, d)``.  Canonicalized to float32
            precision.
        disk:
            Simulated disk to build on (a default disk is created when
            omitted); its block size fixes the page size.
        metric:
            Query metric name or :class:`~repro.geometry.metrics.Metric`.
        fractal_dim:
            ``"auto"`` (estimate the correlation dimension from a
            sample), a float, or ``None`` for the uniform/independence
            model (``D_F = d``).
        optimize:
            Run the optimal-quantization algorithm.  When ``False``, the
            tree stores every page at ``fixed_bits`` (default 32 --
            i.e. a "no quantization" tree, the paper's Fig. 7 ablation).
        fixed_bits:
            Quantization level used when ``optimize=False``.
        k_for_cost:
            ``k`` the cost model optimizes for.
        charge_directory:
            Charge the sequential first-level scan to every query
            (matches the paper's cost model; disable to model a cached
            directory).
        layout:
            ``"spatial"`` (default) stores pages in the construction's
            depth-first order, so spatially close partitions are close
            on disk -- the clustering the cost-balance scheduler
            exploits.  ``"random"`` shuffles the page order (an
            ablation that isolates the layout's contribution).
        layout_seed:
            Seed of the ``"random"`` layout's shuffle.
        codec:
            Second-level/codec policy.  ``"grid"`` (default) is the
            paper's format, byte-identical to pre-codec containers.
            ``"pq"`` forces per-page PQ codebooks wherever one fits,
            ``"ef"`` keeps grid pages but stores the directory with
            Elias-Fano reference columns, and ``"auto"`` lets the cost
            model pick PQ per page where it is strictly cheaper and
            picks whichever directory layout needs fewer blocks.
        """
        disk = disk or SimulatedDisk()
        metric = get_metric(metric)
        codec_policies = {
            "grid": ("grid", "dense"),
            "pq": ("pq", "dense"),
            "ef": ("grid", "ef"),
            "auto": ("auto", "auto"),
        }
        if codec not in codec_policies:
            raise BuildError(f"unknown codec {codec!r}")
        codec_mode, directory_codec = codec_policies[codec]
        points = canonicalize(data)
        if points.ndim != 2 or points.shape[0] == 0:
            raise BuildError("build needs a non-empty (n, d) array")
        n, dim = points.shape
        block_size = disk.model.block_size

        if fractal_dim == "auto":
            fractal = correlation_dimension(points) if n >= 2 else float(dim)
        elif fractal_dim is None:
            fractal = float(dim)
        else:
            fractal = float(fractal_dim)

        space = MBR.of_points(points)
        volume = float(np.prod(np.maximum(space.extents, 1e-12)))
        cost_model = CostModel(
            disk.model,
            dim,
            n,
            fractal_dim=fractal,
            data_space_volume=volume,
            metric=metric,
            k=k_for_cost,
        )

        trace: OptimizationTrace | None = None
        if optimize:
            if fixed_bits is not None:
                raise BuildError("fixed_bits requires optimize=False")
            initial = bulk_load_partitions(points, block_size)
            solution, trace = optimize_partitions(
                points, initial, cost_model, block_size
            )
        else:
            bits = EXACT_BITS if fixed_bits is None else int(fixed_bits)
            solution = fixed_bits_partitions(points, block_size, bits)
        if layout == "random":
            rng = np.random.default_rng(layout_seed)
            solution = [solution[i] for i in rng.permutation(len(solution))]
        elif layout != "spatial":
            raise BuildError(f"unknown layout: {layout!r}")
        solution = choose_codecs(
            points,
            solution,
            cost_model,
            block_size,
            mode=codec_mode,
            allow_merge=True,
        )
        return cls(
            points,
            solution,
            disk,
            metric,
            cost_model,
            trace,
            charge_directory,
            codec_mode=codec_mode,
            directory_codec=directory_codec,
        )

    # ------------------------------------------------------------------
    # File layout
    # ------------------------------------------------------------------
    def _layout(self) -> None:
        """(Re)serialize all three levels onto fresh disk extents."""
        block_size = self.disk.model.block_size
        n_parts = len(self._partitions)
        if n_parts == 0:
            raise BuildError("cannot lay out an empty tree")
        if any(opt.partition.size == 0 for opt in self._partitions):
            raise BuildError("cannot lay out a zero-count partition")
        dim = self.dim
        self._invalidate_resident_blocks()

        lowers = np.empty((n_parts, dim))
        uppers = np.empty((n_parts, dim))
        counts = np.empty(n_parts, dtype=np.int64)
        bits = np.empty(n_parts, dtype=np.int64)
        exact_firsts = np.zeros(n_parts, dtype=np.int64)
        exact_counts = np.zeros(n_parts, dtype=np.int64)
        part_ids: list[np.ndarray] = []

        quant_file = BlockFile(self.disk, "quantized")
        exact_file = BlockFile(self.disk, "exact")

        for j, opt in enumerate(self._partitions):
            part, g = opt.partition, opt.bits
            pts = part.points(self._points)
            ids = part.indices
            part_ids.append(ids)
            lowers[j] = part.mbr.lower
            uppers[j] = part.mbr.upper
            counts[j] = part.size
            bits[j] = g
            if g >= EXACT_BITS:
                payload = serializer.encode_quantized_page(
                    pts, EXACT_BITS, block_size, ids=ids
                )
                quant_file.append_block(payload)
            else:
                if opt.codec == CODEC_PQ:
                    payload = serializer.encode_pq_page(
                        page_pq_fit(opt, pts),
                        part.size,
                        opt.pq_bits,
                        opt.pq_sub,
                        block_size,
                    )
                else:
                    quantizer = GridQuantizer(part.mbr, g)
                    codes = quantizer.encode(pts)
                    payload = serializer.encode_quantized_page(
                        codes, g, block_size
                    )
                quant_file.append_block(payload)
                record = serializer.encode_exact_record(pts, ids)
                first, nblocks = exact_file.append_record(record)
                exact_firsts[j] = first
                exact_counts[j] = nblocks

        dir_file = BlockFile(self.disk, "directory")
        dir_args = (
            lowers,
            uppers,
            np.arange(n_parts),
            exact_firsts,
            exact_counts,
            counts,
            block_size,
        )
        dir_mode = self.directory_codec
        dense_blocks = ef_blocks = None
        if dir_mode != "ef":
            dense_blocks = serializer.encode_directory(*dir_args)
        if dir_mode in ("ef", "auto"):
            from repro.quantization.eliasfano import encode_ef_directory

            ef_blocks = encode_ef_directory(*dir_args)
        if dir_mode == "auto":
            # Resolve once and persist the winner: "auto" must never
            # cost more first-level blocks than the dense layout.
            dir_mode = "ef" if len(ef_blocks) < len(dense_blocks) else "dense"
        self.directory_codec = dir_mode
        dir_blocks = ef_blocks if dir_mode == "ef" else dense_blocks
        for payload in dir_blocks:
            dir_file.append_block(payload)

        # Seal in first/second/third level order: three distinct files,
        # each in its own contiguous extent (paper Section 3.1).
        dir_file.seal()
        quant_file.seal()
        exact_file.seal()

        if self._pool is not None:
            from repro.storage.cache import CachedBlockFile

            dir_file = CachedBlockFile(dir_file, self._pool)
            quant_file = CachedBlockFile(quant_file, self._pool)
            exact_file = CachedBlockFile(exact_file, self._pool)
        self._dir_file = dir_file
        self._quant_file = quant_file
        self._exact_file = exact_file
        # Directory arrays mirror the float32 on-disk representation.
        raw_blocks = [
            dir_file.peek_block(i) for i in range(dir_file.n_blocks)
        ]
        if dir_mode == "ef":
            from repro.quantization.eliasfano import decode_ef_directory

            decoded = decode_ef_directory(raw_blocks, dim, n_parts)
        else:
            decoded = serializer.decode_directory(raw_blocks, dim, n_parts)
        self._lowers = decoded["lowers"]
        self._uppers = decoded["uppers"]
        self._counts = decoded["point_counts"]
        self._bits = bits
        self._exact_firsts = decoded["exact_firsts"]
        self._exact_blocks = decoded["exact_counts"]
        self._part_ids = part_ids
        id_map = np.full(self._points.shape[0], -1, dtype=np.int64)
        id_map[np.concatenate(part_ids)] = np.repeat(
            np.arange(n_parts), counts
        )
        self._id_to_partition = id_map
        if self._decoded_cache is not None:
            # Page indices were just reassigned wholesale; every cached
            # decode is addressed by a now-meaningless key.
            self._decoded_cache.clear()
        self.epoch += 1
        self._dirty = False

    def _invalidate_resident_blocks(self) -> None:
        """Evict this tree's current extents from the buffer pool.

        A re-layout moves every page to a fresh extent; the old
        addresses are never read again, so residents left behind are
        pure capacity leaks (and would serve stale bytes if the disk
        ever reused an address).
        """
        pool = self._pool
        if pool is None:
            return
        for slot in ("_dir_file", "_quant_file", "_exact_file"):
            wrapped = getattr(self, slot, None)
            if wrapped is None:
                continue
            inner = getattr(wrapped, "_file", wrapped)
            if not inner.sealed:
                continue
            base = inner.extent_start
            for i in range(inner.n_blocks):
                pool.invalidate(base + i)

    def _ensure_clean(self) -> None:
        if self._dirty:
            with self._write_lock:
                if self._dirty:
                    self._layout()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def points(self) -> np.ndarray:
        """The canonical (float32-precision) data the index stores."""
        return self._points

    @property
    def n_points(self) -> int:
        """Number of rows in the backing point array.

        Deleted points stay in the array until :meth:`reoptimize`
        compacts it; :attr:`n_live_points` counts only indexed points.
        """
        return self._points.shape[0]

    @property
    def n_live_points(self) -> int:
        """Number of points currently indexed (excludes deleted rows).

        A clean tree sums its laid-out page counts; a dirty one (mid-burst
        maintenance) sums the partition list instead of laying out.
        """
        if self._dirty:
            return sum(opt.partition.size for opt in self._partitions)
        return int(self._counts.sum())

    @property
    def dim(self) -> int:
        """Data dimensionality."""
        return int(self._points.shape[1])

    @property
    def n_pages(self) -> int:
        """Number of data pages (= directory entries)."""
        return len(self._partitions)

    @property
    def page_bits(self) -> np.ndarray:
        """Per-page quantization level ``g`` (int array)."""
        self._ensure_clean()
        return self._bits.copy()

    def page_mbr(self, page: int) -> MBR:
        """The (float32-exact) MBR of one data page."""
        self._ensure_clean()
        return MBR(self._lowers[page], self._uppers[page])

    def size_summary(self) -> dict[str, int]:
        """Block counts of the three files (compression diagnostics)."""
        self._ensure_clean()
        return {
            "directory_blocks": self._dir_file.n_blocks,
            "quantized_blocks": self._quant_file.n_blocks,
            "exact_blocks": self._exact_file.n_blocks,
        }

    # ------------------------------------------------------------------
    # Query entry points (implemented in repro.core.search)
    # ------------------------------------------------------------------
    def nearest(self, query: np.ndarray, k: int = 1, scheduler: str = "optimized"):
        """k-nearest-neighbor query.

        Parameters
        ----------
        query:
            Query point, shape ``(d,)``.
        k:
            Number of neighbors.
        scheduler:
            ``"optimized"`` for the paper's cost-balance page scheduling
            (Section 2.1) or ``"standard"`` for one random read per
            pivot page.
        """
        from repro.core.search import nearest_neighbors

        with self._write_lock:
            return nearest_neighbors(self, query, k=k, scheduler=scheduler)

    def range_query(self, query: np.ndarray, radius: float):
        """All points within ``radius`` of ``query`` (ids + distances)."""
        from repro.core.search import range_search

        with self._write_lock:
            return range_search(self, query, radius)

    def query_engine(
        self,
        pool=None,
        workers: int = 1,
        decode_cache=None,
        backend: str = "auto",
    ):
        """A :class:`~repro.engine.QueryEngine` serving this tree.

        ``pool`` is an optional shared buffer pool (or integer capacity
        in blocks) attached via :meth:`use_buffer_pool`; when omitted,
        the engine uses whatever pool is already attached, if any.
        ``workers`` sizes the engine's worker pool and ``backend``
        selects its executor (``"thread"``, ``"process"``, or ``"auto"``
        -- results are identical either way); ``decode_cache`` is an
        optional :class:`~repro.engine.DecodedPageCache` (or byte
        budget) attached via :meth:`use_decoded_cache`.
        """
        from repro.engine import QueryEngine

        return QueryEngine(
            self,
            pool=pool,
            workers=workers,
            decode_cache=decode_cache,
            backend=backend,
        )

    def browse(self, query: np.ndarray):
        """Incremental distance browsing: yields ``(id, distance)`` in
        ascending order, lazily (Hjaltason-Samet ranking)."""
        from repro.core.search import browse_by_distance

        return browse_by_distance(self, query)

    def estimated_range_query(self, radius: float):
        """Model predictions for a range query of the given radius.

        Returns a :class:`~repro.costmodel.range_model.RangeEstimate`
        (expected result count, page accesses, and simulated time).
        """
        from repro.costmodel.range_model import estimate_range_query

        self._ensure_clean()
        return estimate_range_query(
            radius,
            self.n_pages,
            self.n_live_points,
            self.dim,
            self.disk.model,
            fractal_dim=self.cost_model.fractal_dim,
            data_space_volume=self.cost_model.data_space_volume,
            metric=self.metric,
        )

    def insert_many(self, points: np.ndarray) -> np.ndarray:
        """Insert a batch of points; returns their assigned ids.

        Equivalent to repeated :meth:`insert` (each point goes through
        the Section 6 overflow logic) with a single re-layout at the
        end instead of one per intervening query.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise SearchError(f"points must be (m, {self.dim})")
        return np.array([self.insert(p) for p in points], dtype=np.int64)

    def estimated_query_cost(self):
        """The cost model's prediction for this tree's layout.

        Returns a :class:`~repro.costmodel.model.CostBreakdown` with the
        expected first-level, second-level, and refinement time per
        nearest-neighbor query -- the quantity the optimizer minimized.
        """
        return self.cost_model.breakdown(
            stats_for(opt) for opt in self._partitions
        )

    # ------------------------------------------------------------------
    # Maintenance entry points (implemented in repro.core.maintenance)
    # ------------------------------------------------------------------
    def insert(self, point: np.ndarray) -> int:
        """Insert a point; returns its assigned id (Section 6)."""
        from repro.core.maintenance import insert_point

        with self._write_lock:
            return insert_point(self, point)

    def delete(self, point_id: int) -> None:
        """Delete a point by id."""
        from repro.core.maintenance import delete_point

        with self._write_lock:
            delete_point(self, point_id)

    def reoptimize(self) -> None:
        """Re-run bulk load + optimal quantization on the current data."""
        from repro.core.maintenance import reoptimize

        with self._write_lock:
            reoptimize(self)

    def maintenance_manager(self, drift_ratio: float = 1.25):
        """A :class:`~repro.core.maintenance.MaintenanceManager` for
        this tree: tracks dirty pages (structural edits and cost-model
        drift) and re-quantizes them in background sweeps."""
        from repro.core.maintenance import MaintenanceManager

        return MaintenanceManager(self, drift_ratio=drift_ratio)

    # ------------------------------------------------------------------
    # Buffer management
    # ------------------------------------------------------------------
    def use_buffer_pool(self, pool_or_capacity) -> "object":
        """Attach an LRU buffer pool to all three level files.

        Accepts a :class:`~repro.storage.cache.BufferPool` (possibly
        shared with other indexes on the same disk) or an integer
        capacity in blocks.  Returns the pool.  Pass 0 to effectively
        disable caching; re-layouts after maintenance keep the pool but
        drop stale residency.
        """
        from repro.storage.cache import BufferPool, CachedBlockFile

        if isinstance(pool_or_capacity, BufferPool):
            pool = pool_or_capacity
        else:
            pool = BufferPool(int(pool_or_capacity))
        self._pool = pool
        if self._fault_ctx is not None:
            self._fault_ctx.pool = pool
        # Wrap the live files in place; re-layouts re-wrap automatically.
        if not self._dirty:
            for slot in ("_dir_file", "_quant_file", "_exact_file"):
                current = getattr(self, slot)
                if isinstance(current, CachedBlockFile):
                    current = current._file
                setattr(self, slot, CachedBlockFile(current, pool))
        return pool

    def use_decoded_cache(self, cache_or_budget) -> "object":
        """Attach a cross-batch decoded-page cache to the query paths.

        Accepts a :class:`~repro.engine.page_cache.DecodedPageCache`
        or an integer byte budget.  Returns the cache.  With one
        attached, quantized pages are decoded once and served from
        memory until evicted (LRU over the byte budget) or invalidated
        -- `replace_block` rewrites are caught by the per-block CRC
        sidecar, structural re-layouts clear the cache wholesale, and
        quarantined pages are bypassed (see ``docs/performance.md``).

        Idempotent: re-attaching the already-attached cache is a no-op.
        The ``iq_decoded_page_cache_resident_bytes`` gauge sums the
        caches attached to trees, so a swapped-out cache leaves it.
        """
        from repro.engine.page_cache import DecodedPageCache

        if isinstance(cache_or_budget, DecodedPageCache):
            cache = cache_or_budget
        else:
            cache = DecodedPageCache(int(cache_or_budget))
        if cache is self._decoded_cache:
            return cache
        if self._decoded_cache is not None:
            self._decoded_cache.detach()
        self._decoded_cache = cache
        cache.attach()
        return cache

    def clear_decoded_cache(self) -> None:
        """Detach the decoded-page cache (and take it out of the
        resident-bytes gauge): every read decodes again.  Idempotent."""
        if self._decoded_cache is None:
            return
        self._decoded_cache.detach()
        self._decoded_cache = None

    @property
    def decoded_cache(self):
        """The attached DecodedPageCache, or None."""
        return self._decoded_cache

    # ------------------------------------------------------------------
    # Flight recorder (repro.obs.flight)
    # ------------------------------------------------------------------
    def use_flight_recorder(self, recorder_or_capacity=64):
        """Attach a flight recorder to every query path of this tree.

        Accepts a :class:`~repro.obs.flight.FlightRecorder` or an
        integer ring capacity.  Returns the recorder.  With one
        attached, single queries and engine batches that qualify as
        slow, degraded, or faulted leave a full postmortem record
        (span tree + counter deltas) in the bounded ring; dump it with
        ``recorder.to_json()`` or the ``repro flight`` CLI.  Idempotent
        for an already-attached recorder.
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
    # Fault tolerance (repro.storage.runtime_faults)
    # ------------------------------------------------------------------
    def use_fault_tolerance(self, policy=None):
        """Attach a fresh fault-tolerance context to the query paths.

        ``policy`` is an optional
        :class:`~repro.storage.runtime_faults.RetryPolicy`.  With a
        context attached, queries retry faulted reads, quarantine blocks
        proven unreadable, and degrade to quantization-interval results
        instead of raising (see ``docs/robustness.md``).  Returns the
        :class:`~repro.storage.runtime_faults.FaultContext` so callers
        can inspect its quarantine and counters.
        """
        from repro.storage.runtime_faults import FaultContext

        self._fault_ctx = FaultContext(policy=policy, pool=self._pool)
        return self._fault_ctx

    def clear_fault_tolerance(self) -> None:
        """Drop the fault context: queries fail fast again.

        Also discards the quarantine, so a past fault schedule cannot
        influence later fault-free queries.
        """
        self._fault_ctx = None

    # ------------------------------------------------------------------
    # Internal I/O helpers used by the search algorithms
    # ------------------------------------------------------------------
    def _charge_directory_scan(self) -> None:
        if self.charge_directory and self._dir_file.n_blocks:
            self._dir_file.read_run(0, self._dir_file.n_blocks)

    def _store_payload(self, page: int, payload: bytes):
        """Publish a page a single-query search read, undecoded: to the
        decoded-page store, if one is attached, else as a private entry.
        Returns its :class:`~repro.engine.page_cache.PageEntry`."""
        from repro.engine.page_cache import PageEntry

        if self._decoded_cache is None:
            return PageEntry(None, payload=payload)
        return self._decoded_cache.put(self, page, None, payload=payload)

    def _decode_entry(self, page: int, entry) -> PageHandle:
        """The decoded handle of ``entry``, the entry of ``page``.

        The one place a stored payload is decoded: an undecoded entry
        is decoded in place on first use, and the attached store
        re-counts its bytes.  Every consumer of an entry -- the
        single-query search when the page's turn comes, its pivot and
        window reads, and the batch loader's store hits -- calls this.
        """
        # A store entry may be decoded by another thread meanwhile; it
        # gains its handle before it drops its payload, so a payload
        # read first is still there when the handle is missing.
        payload = entry.payload
        if entry.handle is None:
            handle = decode_page(page, payload, self.dim)
            if REGISTRY.enabled:
                PAGES_DECODED.inc(bits=int(self._bits[page]))
            if self._decoded_cache is None:
                entry.handle, entry.payload = handle, None
            else:
                self._decoded_cache.set_handle(page, entry, handle)
        return entry.handle

    def _cached_entry(self, page: int):
        """The decoded-page cache's entry for ``page``, if any.

        The one lookup of both query paths.  Quarantined pages always
        miss: a poisoned block must go through the (failing) read path
        so it is reported lost, never served from a pre-fault decode.
        """
        cache, ctx = self._decoded_cache, self._fault_ctx
        quarantined = ctx is not None and (
            self._quant_file.extent_start + page in ctx.quarantine
        )
        return None if cache is None or quarantined else cache.get(self, page)

    def _page_entry(self, page: int):
        """The entry of ``page``: the store's, else one random
        single-page read (the standard strategy)."""
        entry = self._cached_entry(page)
        return self._read_entry(page) if entry is None else entry

    def _read_entry(self, page: int):
        """Read ``page`` with one random access, undecoded, for a page
        whose store lookup has already missed: a second lookup would
        count a second miss."""
        return self._store_payload(page, self._quant_file.read_block(page))

    def _read_page(self, page: int) -> PageHandle:
        """The decoded handle of ``page``, through the store."""
        return self._decode_entry(page, self._page_entry(page))

    def _read_page_run(
        self, first: int, last: int, wanted: int
    ) -> list[bytes]:
        """One sequential transfer of pages ``first..last`` inclusive."""
        return self._quant_file.read_run(
            first, last - first + 1, wanted=wanted
        )

    def _quantizer_for(self, page: int) -> GridQuantizer:
        return GridQuantizer(
            MBR(self._lowers[page], self._uppers[page]),
            int(self._bits[page]),
        )

    def _codec_view(self, page: int, handle: PageHandle):
        """Cell-bounds provider for one decoded page.

        PQ pages carry their codebook view in ``handle.aux``; grid
        pages reconstruct the quantizer from the directory MBR.  Both
        expose ``cell_bounds`` / ``cell_mindist`` / ``cell_maxdist``.
        """
        if handle.aux is not None:
            return handle.aux
        return self._quantizer_for(page)

    def __repr__(self) -> str:
        return (
            f"IQTree(n={self.n_points}, dim={self.dim}, "
            f"pages={self.n_pages}, metric={self.metric.name})"
        )


class _RefinedPage:
    """Per-query third-level state of one page for
    :meth:`ExactStore.refine`: the distance and id of every record
    decoded so far (``decoded`` masks the filled slots)."""

    __slots__ = ("decoded", "distances", "ids")

    def __init__(self, n: int):
        self.decoded = np.zeros(n, dtype=bool)
        self.distances = np.empty(n)
        self.ids = np.empty(n, dtype=np.int64)


class ExactStore:
    """Cached reader of third-level point records.

    :meth:`refine` gives the best-first searches one point's exact
    distance: it reads the block or two holding the record (one seek
    each), then decodes in one vectorized pass every record in those
    blocks whose blocks are now all cached, so a later refinement there
    reads and decodes nothing.  :meth:`fetch_all` reads the union of
    many records' blocks in one transfer planned with the Section 2
    strategy.  Both fill one block cache, so a block already read
    through this store is free.  Under a fault context an unreadable
    block makes :meth:`refine` raise, while :meth:`fetch_all` lists its
    records in :attr:`failed` and leaves them out.
    """

    def __init__(self, tree: IQTree):
        self._tree = tree
        self._cache: dict[int, bytes] = {}
        #: point records refined so far (records decoded ahead of their
        #: refinement are not counted)
        self.refinements = 0
        #: (page, local) keys whose third-level blocks are unreadable
        self.failed: set[tuple[int, int]] = set()
        # Distances held by refine are to this query only.
        self._query = None
        self._refined: dict[int, _RefinedPage] = {}

    def _spans(self, first_block, local):
        """First and last block and byte offset in the first block of
        record ``local`` of the page whose records start at block
        ``first_block``; elementwise over arrays."""
        record = serializer.exact_point_record_size(self._tree.dim)
        block_size = self._tree.disk.model.block_size
        start = local * record
        b0 = first_block + start // block_size
        b1 = first_block + (start + record - 1) // block_size
        return b0, b1, start % block_size

    def refine(
        self, query: np.ndarray, page: int, local_index: int
    ) -> tuple[float, int]:
        """Exact ``(distance, id)`` of one point of a ``g < 32`` page.

        Reads exactly the blocks a one-record reader would: those of
        this record that no earlier call cached, in ascending order.
        """
        state = self.decoded_page(query, page)
        if not state.decoded[local_index]:
            first = int(self._tree._exact_firsts[page])
            b0, b1, _ = self._spans(first, local_index)
            for b in range(b0, b1 + 1):
                if b not in self._cache:
                    self._cache[b] = self._read_block(b)
            self._decode_blocks(query, first, state, b0, b1)
        self.count_refinements(1)
        return (
            float(state.distances[local_index]), int(state.ids[local_index])
        )

    def decoded_page(self, query: np.ndarray, page: int) -> _RefinedPage:
        """The records of ``page`` decoded so far for ``query``: their
        distances to it, their ids and the mask of filled slots.  A
        caller that takes a decoded record's distance from here instead
        of calling :meth:`refine` counts it with
        :meth:`count_refinements`."""
        if query is not self._query:
            self._query = query
            self._refined.clear()
        state = self._refined.get(page)
        if state is None:
            state = self._refined[page] = _RefinedPage(
                int(self._tree._counts[page])
            )
        return state

    def count_refinements(self, n: int) -> None:
        """Count ``n`` refined records (here and in ``REFINEMENTS``)."""
        self.refinements += n
        if REGISTRY.enabled and n:
            REFINEMENTS.inc(n)

    def _decode_blocks(
        self, query, first: int, state: _RefinedPage, b0: int, b1: int
    ) -> None:
        """Decode the records of the page whose records start at block
        ``first`` that overlap blocks ``b0..b1`` and whose blocks are
        all cached, and keep their distances to ``query``.

        The records are consecutive, so their bytes are one slice of the
        joined blocks.  Every record but the first and the last lies
        inside ``b0..b1``; those two may reach an uncached block.  A
        record decoded before is decoded again, to the same values.
        """
        tree = self._tree
        record = serializer.exact_point_record_size(tree.dim)
        block_size = tree.disk.model.block_size
        lo = (b0 - first) * block_size // record
        hi = min(
            state.decoded.size,
            ((b1 + 1 - first) * block_size - 1) // record + 1,
        )
        if not self._is_cached(first, lo):
            lo += 1
        if not self._is_cached(first, hi - 1):
            hi -= 1
        c0 = lo * record // block_size
        c1 = (hi * record - 1) // block_size
        data = b"".join(self._cache[first + c] for c in range(c0, c1 + 1))
        coords, ids = serializer.decode_exact_record(
            memoryview(data)[lo * record - c0 * block_size :],
            hi - lo,
            tree.dim,
        )
        state.distances[lo:hi] = tree.metric.distances(query, coords)
        state.ids[lo:hi] = ids
        state.decoded[lo:hi] = True

    def _is_cached(self, first_block: int, local: int) -> bool:
        """Whether every block of record ``local`` is cached."""
        b0, b1, _ = self._spans(first_block, local)
        return all(b in self._cache for b in range(b0, b1 + 1))

    def fetch_all(
        self, requests: Iterable[tuple[int, int]]
    ) -> dict[tuple[int, int], tuple[np.ndarray, int]]:
        """Exact ``(coords, id)`` of many ``(page, local)`` keys.

        Uncached blocks are read in one batched transfer, then every
        requested record is decoded once, in one vectorized pass.
        """
        # Imported here: repro.storage.runtime_faults imports the
        # persistence layer, which imports this module.
        from repro.storage.runtime_faults import fetch_with_quarantine

        tree = self._tree
        keys = sorted(set(requests))
        pairs = np.array(keys, dtype=np.int64).reshape(-1, 2)
        b0, b1, offset = self._spans(
            tree._exact_firsts[pairs[:, 0]], pairs[:, 1]
        )
        # Row i lists record i's blocks b0..b1 (padded with b1).
        covered = np.minimum(
            b0[:, None] + np.arange(int((b1 - b0).max(initial=0)) + 1),
            b1[:, None],
        )
        blocks = np.unique(covered).tolist()
        missing = [b for b in blocks if b not in self._cache]
        if missing:
            ctx = tree._fault_ctx
            with obs_span(
                "fetch-exact", disk=tree.disk, records=len(keys)
            ) as fetch_span:
                if ctx is None:
                    payloads = tree._exact_file.read_batched(missing)
                else:
                    payloads, lost = fetch_with_quarantine(
                        tree._exact_file, tree.disk, ctx, missing
                    )
                    if lost and fetch_span is not None:
                        fetch_span.attrs["degraded"] = True
                        fetch_span.attrs["lost_blocks"] = len(lost)
            self._cache.update(payloads)

        # Gather the readable records into one (m, record) byte matrix;
        # blocks are joined in ascending order, so a record straddling
        # b0 and b0 + 1 stays contiguous.
        present = np.array([b for b in blocks if b in self._cache], np.int64)
        readable = np.isin(covered, present).all(axis=1)
        chunks = [self._cache[b] for b in present.tolist()]
        sizes = np.array([len(chunk) for chunk in chunks], dtype=np.int64)
        starts = (np.cumsum(sizes) - sizes)[
            np.searchsorted(present, b0[readable])
        ] + offset[readable]
        record = serializer.exact_point_record_size(tree.dim)
        buffer = np.frombuffer(b"".join(chunks), dtype=np.uint8)
        rows = buffer[starts[:, None] + np.arange(record)]
        coords, ids = serializer.decode_exact_record(
            rows.tobytes(), rows.shape[0], tree.dim
        )
        self.refinements += rows.shape[0]
        if REGISTRY.enabled and rows.shape[0]:
            REFINEMENTS.inc(rows.shape[0])
        good = [key for key, ok in zip(keys, readable.tolist()) if ok]
        self.failed.update(set(keys) - set(good))
        return dict(zip(good, zip(coords, ids.tolist())))

    def _read_block(self, b: int) -> bytes:
        """One third-level block read, via the fault context if attached.

        Already-quarantined blocks fail immediately (no pointless
        retries); fresh faults go through the retry policy.
        """
        tree = self._tree
        ctx = tree._fault_ctx
        if ctx is None:
            return tree._exact_file.read_block(b)
        address = tree._exact_file.extent_start + b
        if address in ctx.quarantine:
            raise PersistentReadError(
                f"exact block {b} is quarantined", address=address
            )
        return ctx.run(
            lambda: tree._exact_file.read_block(b), tree.disk
        )
