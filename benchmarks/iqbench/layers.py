"""Per-layer timing and I/O attribution, measured from outside the program.

The traced pass swaps named public functions of each layer for timing
wrappers and puts the originals back afterwards; nothing under ``src/``
knows it is being measured.  A wrapper is installed on the name the
*caller* looks up (``repro.engine.engine.mindist_matrix``, not the
defining module), so only calls made from that layer's call sites are
counted.  The geometry helpers the quantizers and the worker kernels
call internally are deliberately left alone: that time belongs to the
``quantization.bounds`` and ``engine.plan`` layers.

Two kinds of records are kept:

* **Time.**  Each wrapped call adds its wall time to its layer's
  *inclusive* total (unless the same layer is already open further up
  the stack) and its *self* time -- wall time minus the time of nested
  wrapped calls -- to the layer's self total.  ``nested[(parent,
  child)]`` keeps the inclusive time of calls made directly under
  another layer, which is how shard-engine time under the router and
  fsync time under a journal append are separated.
* **Simulated I/O.**  ``BlockFile.read_block`` and ``BlockFile.read_run``
  are the only methods that charge the disk ledger (``read_batched``,
  ``read_record`` and ``scan`` all go through ``read_run``), so ledger
  deltas around them, keyed by the file's name, split every charge into
  the paper's three levels: T_1st (directory), T_2nd (quantized pages)
  and T_3rd (exact records).
"""

from __future__ import annotations

import functools
import importlib
import resource
import threading
import time
from collections import defaultdict

#: BlockFile name -> paper level.
LEVELS = {"directory": "level1", "quantized": "level2", "exact": "level3"}
LEVEL_NAMES = tuple(LEVELS.values())

#: layer key -> the (module, attribute path) call sites timed for it.
TIMED = {
    "geometry": [
        ("repro.engine.engine", "mindist_matrix"),
        ("repro.engine.engine", "maxdist_matrix"),
        ("repro.engine.sharding", "mindist_matrix"),
        ("repro.engine.sharding", "maxdist_matrix"),
        ("repro.core.search", "mindist_to_boxes"),
        ("repro.core.search", "maxdist_to_boxes"),
    ],
    "quantization.decode": [
        ("repro.storage.serializer", "decode_quantized_page"),
        ("repro.storage.serializer", "unpack_codes"),
        ("repro.engine.decode", "unpack_codes_bulk"),
    ],
    "quantization.bounds": [
        ("repro.quantization.grid", "GridQuantizer.cell_bounds"),
        ("repro.quantization.grid", "GridQuantizer.cell_mindist"),
        ("repro.quantization.grid", "GridQuantizer.cell_maxdist"),
        ("repro.quantization.codecs", "PQView.cell_bounds"),
        ("repro.quantization.codecs", "PQView.cell_mindist"),
        ("repro.quantization.codecs", "PQView.cell_maxdist"),
    ],
    "storage.scheduler": [
        ("repro.core.search", "cost_balance_window"),
        ("repro.storage.scheduler", "plan_batched_fetch"),
    ],
    "core.search": [
        ("repro.core.search", "nearest_neighbors"),
        ("repro.core.search", "range_search"),
    ],
    "engine.batch": [
        ("repro.engine.engine", "QueryEngine.knn_batch"),
        ("repro.engine.engine", "QueryEngine.range_batch"),
    ],
    # map_sharded is keyed per call by the kernel it runs (see _phase).
    "engine.kernels": [
        ("repro.engine.concurrent", "WorkerPool.map_sharded"),
    ],
    "engine.shm": [
        ("repro.engine.shm", "SharedArena.create"),
        ("repro.engine.shm", "SharedArena.put"),
        ("repro.engine.shm", "SharedArena.seal"),
        ("repro.engine.shm", "SharedArena.dispose"),
    ],
    "engine.fetch": [
        ("repro.engine.decode", "PageDecodeCache.load"),
        ("repro.engine.decode", "ExactBatchStore.fetch_all"),
    ],
    "engine.page_cache": [
        ("repro.engine.page_cache", "DecodedPageCache.get"),
        ("repro.engine.page_cache", "DecodedPageCache.put"),
        ("repro.engine.page_cache", "DecodedPageCache.set_bounds"),
    ],
    "engine.sharding.route": [
        ("repro.engine.sharding", "ShardRouter.knn_batch"),
    ],
    "storage.journal.append": [
        ("repro.storage.journal", "WriteAheadJournal.append"),
    ],
    "storage.journal.sync": [
        ("repro.storage.journal", "WriteAheadJournal.sync"),
    ],
    "storage.fsync": [("os", "fsync")],
    "core.maintenance.apply": [
        ("repro.core.maintenance", "insert_point"),
        ("repro.core.maintenance", "delete_point"),
    ],
    "core.maintenance.sweep": [
        ("repro.core.maintenance", "MaintenanceManager.sweep"),
    ],
    "storage.encode": [
        ("repro.storage.serializer", "encode_quantized_page"),
        ("repro.storage.serializer", "encode_pq_page"),
        ("repro.storage.serializer", "encode_exact_record"),
        ("repro.storage.serializer", "encode_directory"),
        ("repro.quantization.eliasfano", "encode_ef_directory"),
        ("repro.storage.blockfile", "BlockFile.append_block"),
        ("repro.storage.blockfile", "BlockFile.append_record"),
    ],
    "storage.layout": [("repro.core.tree", "IQTree._layout")],
    "storage.persistence.checkpoint": [
        ("repro.storage.journal", "DurableTree.checkpoint"),
    ],
    "core.fractal": [("repro.core.tree", "correlation_dimension")],
    "core.bulk_load": [("repro.core.tree", "bulk_load_partitions")],
    "core.optimizer": [
        ("repro.core.tree", "optimize_partitions"),
        ("repro.core.maintenance", "optimize_partitions"),
    ],
    "core.codecs": [
        ("repro.core.tree", "choose_codecs"),
        ("repro.core.maintenance", "choose_codecs"),
    ],
}

#: the layer whose calls also record growth of the peak resident set.
RSS_LAYER = "core.fractal"


def _phase(args) -> str:
    """Layer key of one ``WorkerPool.map_sharded(fn, ...)`` call."""
    kernel = getattr(args[1], "__name__", "")
    return "engine.plan" if kernel.startswith("plan") else "engine.assemble"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _resolve(module: str, path: str):
    """``(owner, name)`` for a dotted attribute path inside a module."""
    owner = importlib.import_module(module)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class LayerTrace:
    """Installs the layer wrappers and accumulates what they record.

    Use as a context manager: wrappers are live inside the ``with``
    block and every original is restored on exit.  :meth:`snapshot`
    copies the accumulators so callers can take differences over a
    window (set-up, the request loop, the fixed count window).
    """

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.nested_s: dict[tuple[str, str], float] = defaultdict(float)
        self.rss_mb: dict[str, float] = defaultdict(float)
        #: level -> [seeks, blocks, simulated seconds]
        self.io: dict[str, list] = defaultdict(lambda: [0, 0, 0.0])
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTrace":
        for key, sites in TIMED.items():
            layer = _phase if key == "engine.kernels" else key
            for module, path in sites:
                self._patch(*_resolve(module, path), self._timed, layer)
        blockfile = importlib.import_module("repro.storage.blockfile")
        for name in ("read_block", "read_run"):
            self._patch(blockfile.BlockFile, name, self._charged, None)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    def _patch(self, owner, name: str, make, layer) -> None:
        raw = vars(owner)[name] if isinstance(owner, type) else getattr(
            owner, name
        )
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__, layer))
        else:
            wrapped = make(raw, layer)
        self._saved.append((owner, name, raw))
        setattr(owner, name, wrapped)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, fn, layer):
        keyed = callable(layer)
        probe_rss = layer == RSS_LAYER

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = layer(args) if keyed else layer
            stack = self._stack()
            frame = [key, 0.0]
            stack.append(frame)
            rss0 = _peak_rss_mb() if probe_rss else 0.0
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                stack.pop()
                with self._lock:
                    self.calls[key] += 1
                    self.self_s[key] += took - frame[1]
                    if all(f[0] != key for f in stack):
                        self.incl_s[key] += took
                    if stack:
                        stack[-1][1] += took
                        self.nested_s[(stack[-1][0], key)] += took
                    if probe_rss:
                        self.rss_mb[key] += _peak_rss_mb() - rss0

        return wrapper

    def _charged(self, fn, _layer):
        @functools.wraps(fn)
        def wrapper(file, *args, **kwargs):
            stats = file.disk.stats
            seeks, blocks, sim = stats.seeks, stats.blocks_read, stats.elapsed
            try:
                return fn(file, *args, **kwargs)
            finally:
                level = LEVELS.get(file.name)
                if level is not None:
                    with self._lock:
                        acc = self.io[level]
                        acc[0] += stats.seeks - seeks
                        acc[1] += stats.blocks_read - blocks
                        acc[2] += stats.elapsed - sim

        return wrapper

    # ------------------------------------------------------------------
    # Windows
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self": dict(self.self_s),
                "incl": dict(self.incl_s),
                "calls": dict(self.calls),
                "nested": dict(self.nested_s),
                "rss": dict(self.rss_mb),
                "io": {lvl: tuple(acc) for lvl, acc in self.io.items()},
            }

    def since(self, before: dict) -> dict:
        """Accumulator differences from ``before`` to now."""
        now = self.snapshot()
        out = {}
        for part, values in now.items():
            old = before[part]
            if part == "io":
                out[part] = {
                    lvl: tuple(
                        a - b for a, b in zip(acc, old.get(lvl, (0, 0, 0.0)))
                    )
                    for lvl, acc in values.items()
                }
            else:
                out[part] = {k: v - old.get(k, 0) for k, v in values.items()}
        return out


#: busy-share metric -> the (accumulator, key) terms its seconds sum.
#: Request-path layers report self time; the background phases (sweep,
#: checkpoint) report inclusive time, the shard engines are the engine
#: calls made directly under the router, and journal sync adds the
#: fsync inside each append (every append syncs at ``group_commit=1``).
BUSY = {
    name: [("self", name)]
    for name in (
        "geometry",
        "quantization.decode",
        "quantization.bounds",
        "storage.scheduler",
        "core.search",
        "engine.plan",
        "engine.assemble",
        "engine.shm",
        "engine.fetch",
        "engine.page_cache",
        "engine.sharding.route",
        "storage.journal.append",
        "core.maintenance.apply",
        "storage.encode",
    )
}
BUSY["engine.sharding.shard"] = [
    ("nested", ("engine.sharding.route", "engine.batch")),
]
BUSY["storage.journal.sync"] = [
    ("incl", "storage.journal.sync"),
    ("nested", ("storage.journal.append", "storage.fsync")),
]
BUSY["core.maintenance.sweep"] = [("incl", "core.maintenance.sweep")]
BUSY["storage.persistence.checkpoint"] = [
    ("incl", "storage.persistence.checkpoint"),
]

#: setup metric -> layer whose inclusive time it reports.
SETUP = {
    "setup.fractal_s": "core.fractal",
    "setup.bulk_load_s": "core.bulk_load",
    "setup.optimize_s": "core.optimizer",
    "setup.codecs_s": "core.codecs",
    "setup.layout_s": "storage.layout",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(setup: dict, ops: dict, m) -> dict:
    """``name -> (value, unit)`` for every per-layer metric.

    ``setup`` and ``ops`` are :meth:`LayerTrace.since` windows over the
    traced set-up and the traced request loop; ``m`` is the loop's
    :class:`~benchmarks.iqbench.workloads.Recorder`.  Simulated I/O and
    counts come from the fixed count window, so they repeat exactly for
    a seed.  Each level's simulated seconds are reported as its share
    of the window's total (T_1st, T_2nd, T_3rd in seconds are the shares
    times ``sim_s_per_query``; per query they also follow from the seeks
    and blocks and the disk model).  Busy shares divide a layer's wall
    seconds by the wall time spent inside the workload's calls, so a
    layer a workload never reaches reads 0 rather than a fixed 0 ms.
    """
    out = {}
    queries = m.window_queries
    levels = [m.window_levels.get(lvl, (0, 0, 0.0)) for lvl in LEVEL_NAMES]
    sim_total = sum(sim for _seeks, _blocks, sim in levels)
    for level, (seeks, blocks, sim) in zip(LEVEL_NAMES, levels):
        out[f"{level}.sim_share"] = (sim / sim_total, "ratio")
        out[f"{level}.seeks_per_query"] = (seeks / queries, "seeks")
        out[f"{level}.blocks_per_query"] = (blocks / queries, "blocks")
    for name, terms in BUSY.items():
        seconds = sum(ops[part].get(key, 0.0) for part, key in terms)
        out[f"{name}.busy_share"] = (seconds / m.busy_s, "ratio")
    c = m.counts
    out["level3.refinements_per_result"] = (
        _ratio(c["refinements"], c["results"]), "ratio"
    )
    out["engine.candidates_per_result"] = (
        _ratio(c["candidates"], c["results"]), "ratio"
    )
    out["engine.page_cache.hit_rate"] = (
        _ratio(c["cache_hits"], c["cache_hits"] + c["cache_misses"]), "ratio"
    )
    out["engine.page_cache.evictions"] = (c["cache_evictions"], "count")
    out["engine.sharding.shards_contacted_per_query"] = (
        c["shards_contacted"] / queries, "shards"
    )
    out["storage.journal.bytes_per_write"] = (
        _ratio(c["journal_bytes"], c["writes"]), "bytes"
    )
    out["core.maintenance.dirty_pages_per_sweep"] = (
        _ratio(c["dirty_pages"], c["sweeps"]), "pages"
    )
    out["core.maintenance.pages_requantized_per_sweep"] = (
        _ratio(c["requantized"], c["sweeps"]), "pages"
    )
    for name, layer in SETUP.items():
        out[name] = (setup["incl"].get(layer, 0.0), "s")
    out["setup.fractal_rss_mb"] = (setup["rss"].get(RSS_LAYER, 0.0), "MB")
    out["harness.traced_ms_per_op"] = (m.busy_s / m.requests * 1e3, "ms")
    return out
