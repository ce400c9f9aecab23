"""The process-wide instrument catalogue.

One :data:`REGISTRY` (disabled by default) and every named instrument
the library's hooks write to.  Hooks in hot paths guard with
``if REGISTRY.enabled:`` so a disabled registry costs one attribute
check; everything funnels through this module so ``python -m repro
stats`` and the tests see a single coherent catalogue.

Accounting discipline (kept in sync with the tests in
``tests/test_obs_registry.py``):

* disk counters are fed **only** by the physical charge points on
  :class:`~repro.storage.disk.SimulatedDisk`
  (:meth:`~repro.storage.disk.SimulatedDisk.read_blocks` and the retry
  backoff :meth:`~repro.storage.disk.SimulatedDisk.charge_backoff`) --
  never by :class:`~repro.storage.disk.IOStats` ledger arithmetic
  (``merged_with``/``reset``/snapshots), so ledger bookkeeping in the
  query engine cannot double-count;
* buffer-pool counters are fed only by :class:`~repro.storage.cache.
  BufferPool` itself, so every caller (single-query, batched, planned)
  shares one accounting path.
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry

__all__ = ["REGISTRY"]

#: The process-wide registry all library hooks write to.
REGISTRY = MetricsRegistry(enabled=False)

# ----------------------------------------------------------------------
# Simulated disk (fed by SimulatedDisk.read_blocks only)
# ----------------------------------------------------------------------
DISK_SEEKS = REGISTRY.counter(
    "iq_disk_seeks_total",
    "Random positioning operations on the simulated disk",
)
DISK_BLOCKS_READ = REGISTRY.counter(
    "iq_disk_blocks_read_total",
    "Blocks transferred from the simulated disk (wanted or over-read)",
)
DISK_BLOCKS_OVERREAD = REGISTRY.counter(
    "iq_disk_blocks_overread_total",
    "Blocks transferred purely to bridge a gap between wanted blocks",
)
DISK_SIM_SECONDS = REGISTRY.counter(
    "iq_disk_simulated_seconds_total",
    "Simulated I/O time accrued by the disk model",
)

# ----------------------------------------------------------------------
# Buffer pool
# ----------------------------------------------------------------------
POOL_HITS = REGISTRY.counter(
    "iq_buffer_pool_hits_total", "Block lookups served from the pool"
)
POOL_MISSES = REGISTRY.counter(
    "iq_buffer_pool_misses_total", "Block lookups that missed the pool"
)
POOL_EVICTIONS = REGISTRY.counter(
    "iq_buffer_pool_evictions_total", "LRU evictions from the pool"
)

# ----------------------------------------------------------------------
# Page scheduler (Section 2)
# ----------------------------------------------------------------------
SCHED_BATCH_PLANS = REGISTRY.counter(
    "iq_scheduler_batched_plans_total",
    "Optimal batched-fetch plans computed",
)
SCHED_PLANNED_RUNS = REGISTRY.counter(
    "iq_scheduler_planned_runs_total",
    "Sequential runs emitted by batched-fetch plans",
)
SCHED_WINDOWS = REGISTRY.counter(
    "iq_scheduler_cost_balance_windows_total",
    "Cost-balance windows evaluated (Section 2.1 NN scheduling)",
)
SCHED_WINDOW_BLOCKS = REGISTRY.histogram(
    "iq_scheduler_window_blocks",
    "Blocks per cost-balance window (1 = no speculative read)",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128),
)

# ----------------------------------------------------------------------
# Query execution
# ----------------------------------------------------------------------
PAGES_DECODED = REGISTRY.counter(
    "iq_pages_decoded_total",
    "Quantized data pages decoded, by bit-width (label: bits)",
)
REFINEMENTS = REGISTRY.counter(
    "iq_refinements_total",
    "Third-level exact-coordinate look-ups",
)
QUERY_SECONDS = REGISTRY.histogram(
    "iq_query_simulated_seconds",
    "Simulated I/O time per query (batched queries report the "
    "per-query share of their batch)",
)
BATCHES = REGISTRY.counter(
    "iq_batches_total", "Query batches executed by the engine"
)
BATCH_QUERIES = REGISTRY.counter(
    "iq_batch_queries_total", "Queries executed through the batch engine"
)

# ----------------------------------------------------------------------
# Shard router (repro.engine.sharding)
# ----------------------------------------------------------------------
ROUTER_BATCHES = REGISTRY.counter(
    "iq_router_batches_total",
    "Scatter-gather batches executed by the shard router",
)
SHARDS_CONTACTED = REGISTRY.histogram(
    "iq_router_shards_contacted",
    "Live shards contacted per query (global bound pruning skips the "
    "rest)",
    buckets=(0, 1, 2, 4, 8, 16, 32, 64),
)
SHARDS_SKIPPED = REGISTRY.counter(
    "iq_router_shards_skipped_total",
    "Per-query shard visits avoided because the shard's best mindist "
    "exceeded the query's running bound",
)
DEAD_SHARD_QUERIES = REGISTRY.counter(
    "iq_router_dead_shard_queries_total",
    "Query/shard encounters degraded to LostPage bounds because the "
    "shard was dead or failing",
)
SHARDED_QUERY_SECONDS = REGISTRY.histogram(
    "iq_sharded_query_simulated_seconds",
    "Open-loop per-query latency (queue wait + service) observed by "
    "the sharded serving benchmark",
)

# ----------------------------------------------------------------------
# Decoded-page cache (repro.engine.page_cache)
# ----------------------------------------------------------------------
DECODED_CACHE_HITS = REGISTRY.counter(
    "iq_decoded_page_cache_hits_total",
    "Quantized pages served already-decoded from the tree-level cache",
)
DECODED_CACHE_MISSES = REGISTRY.counter(
    "iq_decoded_page_cache_misses_total",
    "Decoded-page cache lookups that had to fetch and decode",
)
DECODED_CACHE_EVICTIONS = REGISTRY.counter(
    "iq_decoded_page_cache_evictions_total",
    "Decoded pages evicted to stay within the memory budget",
)
DECODED_CACHE_INVALIDATIONS = REGISTRY.counter(
    "iq_decoded_page_cache_invalidations_total",
    "Decoded pages dropped because the backing block changed "
    "(CRC mismatch, replace_block, re-layout, or quarantine)",
)
DECODED_CACHE_BYTES = REGISTRY.gauge(
    "iq_decoded_page_cache_resident_bytes",
    "Bytes of decoded pages and cell boxes resident, over attached stores",
)

# ----------------------------------------------------------------------
# Build / optimizer (Sections 3.4-3.6)
# ----------------------------------------------------------------------
OPT_RUNS = REGISTRY.counter(
    "iq_optimizer_runs_total", "Optimal-quantization runs"
)
OPT_SPLITS = REGISTRY.counter(
    "iq_optimizer_splits_total",
    "Split-tree iterations performed by the optimizer",
)
OPT_PAGES = REGISTRY.gauge(
    "iq_optimizer_pages",
    "Page counts of the last optimizer run (label: stage = "
    "initial | final)",
)

# ----------------------------------------------------------------------
# Read-path fault tolerance (repro.storage.runtime_faults)
# ----------------------------------------------------------------------
READ_FAULTS = REGISTRY.counter(
    "iq_read_faults_total",
    "Injected read faults observed on the timed read path "
    "(label: kind = transient | persistent | corrupt)",
)
FAULT_RETRIES = REGISTRY.counter(
    "iq_read_retries_total",
    "Timed reads retried after a fault (backoff charged as seeks)",
)
FAULT_QUARANTINES = REGISTRY.counter(
    "iq_quarantined_blocks_total",
    "Block addresses quarantined after a permanent read failure",
)
DEGRADED_RESULTS = REGISTRY.counter(
    "iq_degraded_results_total",
    "Query results returned with a quantization interval instead of an "
    "exact distance",
)
LOST_PAGES = REGISTRY.counter(
    "iq_lost_pages_total",
    "Second-level pages reported lost to a query (partition skipped)",
)

# ----------------------------------------------------------------------
# Flight recorder (fed by repro.obs.flight.FlightRecorder)
# ----------------------------------------------------------------------
FLIGHT_RECORDS = REGISTRY.counter(
    "iq_flight_records_total",
    "Queries captured by the flight recorder, by qualification reason "
    "(label: reason = slow | degraded | faulted)",
)
FLIGHT_DROPPED = REGISTRY.counter(
    "iq_flight_records_dropped_total",
    "Flight records evicted from the bounded ring to admit newer ones",
)
FLIGHT_RESIDENT = REGISTRY.gauge(
    "iq_flight_resident_records",
    "Flight records currently resident in the ring buffer",
)

# ----------------------------------------------------------------------
# SLO monitor (fed by repro.obs.slo.SLOMonitor.evaluate)
# ----------------------------------------------------------------------
SLO_MET = REGISTRY.gauge(
    "iq_slo_objective_met",
    "1 when the objective currently meets its threshold, else 0 "
    "(label: objective)",
)
SLO_BURN = REGISTRY.gauge(
    "iq_slo_burn_ratio",
    "Observed value over threshold; above 1.0 the objective is burning "
    "(label: objective)",
)
SLO_OBSERVED = REGISTRY.gauge(
    "iq_slo_observed_value",
    "Value the objective was last evaluated against "
    "(label: objective)",
)
SLO_THRESHOLD = REGISTRY.gauge(
    "iq_slo_threshold",
    "Declared threshold of the objective (label: objective)",
)

# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
CONTAINER_OPS = REGISTRY.counter(
    "iq_container_operations_total",
    "Container save/load/fsck outcomes (labels: op, outcome)",
)

# ----------------------------------------------------------------------
# Write-ahead journal (repro.storage.journal)
# ----------------------------------------------------------------------
WAL_APPENDS = REGISTRY.counter(
    "iq_wal_appends_total",
    "Operations appended to the write-ahead journal (label: op = "
    "insert | delete)",
)
WAL_APPENDED_BYTES = REGISTRY.counter(
    "iq_wal_appended_bytes_total",
    "Bytes written to the write-ahead journal (records only, not the "
    "header)",
)
WAL_FSYNCS = REGISTRY.counter(
    "iq_wal_fsyncs_total",
    "fsync calls issued by the journal append path",
)
WAL_REPLAYED = REGISTRY.counter(
    "iq_wal_replayed_records_total",
    "Journal records re-applied during recovery (records at or below "
    "the checkpointed wal_seq are skipped, not counted)",
)
WAL_RECOVERIES = REGISTRY.counter(
    "iq_wal_recoveries_total",
    "Journal scans at open time (label: outcome = clean | torn-tail "
    "| corrupt)",
)
WAL_CHECKPOINTS = REGISTRY.counter(
    "iq_wal_checkpoints_total",
    "Checkpoints of the journal into the container (label: outcome)",
)
WAL_SIZE = REGISTRY.gauge(
    "iq_wal_size_bytes", "Current byte size of the write-ahead journal"
)

# ----------------------------------------------------------------------
# Background maintenance (repro.core.maintenance.MaintenanceManager)
# ----------------------------------------------------------------------
MAINT_SWEEPS = REGISTRY.counter(
    "iq_maintenance_sweeps_total",
    "Background re-quantization sweeps (label: outcome = ok | noop "
    "| error)",
)
MAINT_REQUANTIZED = REGISTRY.counter(
    "iq_maintenance_pages_requantized_total",
    "Pages re-quantized in place via replace_block (bits-only change)",
)
MAINT_RESTRUCTURED = REGISTRY.counter(
    "iq_maintenance_pages_restructured_total",
    "Dirty pages whose sweep required a structural re-layout "
    "(split, exact transition, or quarantined block address)",
)
MAINT_DIRTY = REGISTRY.gauge(
    "iq_maintenance_dirty_pages",
    "Dirty pages seen by the most recent maintenance sweep",
)

# ----------------------------------------------------------------------
# Cost-model drift (fed by repro.obs.drift.DriftMonitor)
# ----------------------------------------------------------------------
_DRIFT_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0)
DRIFT_PAGE_ERROR = REGISTRY.histogram(
    "iq_costmodel_drift_page_relative_error",
    "Relative error |actual - predicted| / predicted of the cost "
    "model's per-query page-access prediction (eqs. 16-18)",
    buckets=_DRIFT_BUCKETS,
)
DRIFT_TIME_ERROR = REGISTRY.histogram(
    "iq_costmodel_drift_seconds_relative_error",
    "Relative error of the cost model's per-query simulated-time "
    "prediction (eq. 23)",
    buckets=_DRIFT_BUCKETS,
)
