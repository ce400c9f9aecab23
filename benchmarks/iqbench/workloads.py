"""The four iqbench workloads.

Each workload has a fixed database and query set; the run's seed draws
the order of the queries, the arrivals and the write operations, so one
seed always produces the same requests.  Each workload builds its index and serving object in :meth:`setup`
(timed by the caller as ``setup_s``), then :meth:`run` issues requests
for ``seconds`` of wall time.  A fixed *count window* at the start of
the run -- the same requests for a given seed, however fast the host is
-- supplies the simulated-I/O counts, so those repeat exactly; latency
and throughput come from the whole run, each request's wall time scaled
to the reference host speed by :class:`HostSpeed`.  Answers are stored
and checked against a brute-force scan only after the timed loop has
finished.

Why these four (the layer each one isolates is the point):

* ``single-clustered`` -- single-query best-first kNN and range search
  on PQ pages; bypasses the batch engine, workers, sharding and WAL.
* ``batch-uniform`` -- the batch engine with two process workers on
  grid pages; bypasses the single-query path and PQ.
* ``sharded-open`` -- the shard router under open-loop Poisson arrivals
  with a warm decoded-page cache; decode does almost no work.
* ``write-mix`` -- journaled inserts and deletes beside reads, with
  maintenance sweeps and checkpoints on the same tree.
"""

from __future__ import annotations

import heapq
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.search import io_delta, io_snapshot
from repro.core.tree import IQTree, canonicalize
from repro.datasets import (
    gaussian_clusters,
    holdout_queries,
    uniform,
    weather_like,
)
from repro.engine.sharding import ShardRouter
from repro.exceptions import ReproError
from repro.storage.disk import IOStats
from repro.storage.journal import DurableTree

from benchmarks.iqbench.oracle import Oracle, same_knn, same_range

K = 10
#: seed of every database and query set; run seeds only order requests.
DISTRIBUTION_SEED = 7
#: sharded-open arrival rate: at ~4 ms per request, a sixth of one core
#: on a quiet host.  At 80/s the host's slow phases pushed utilisation
#: past a half, and the queueing they added made the median latency 2.5
#: times as noisy between runs (spread 0.10 against 0.04 at 40/s).
ARRIVALS_PER_S = 40.0
#: standard deviation of the jitter added to copied rows on insert.
INSERT_JITTER = 1e-3
#: wall time of the :class:`HostSpeed` probe on the reference host: the
#: 2-core Xeon of the README's baseline table with no other tenant busy.
REFERENCE_S = 2.0e-3
#: how often the host speed is sampled during the timed phase.
PROBE_EVERY_S = 0.1
#: the open loop samples only in idle gaps at least this long, so a probe
#: never delays a request.
PROBE_GAP_S = 0.01


class HostSpeed:
    """How fast the host runs now, relative to the reference host.

    The benchmark shares its cores with other tenants.  Their load slows
    every computation of the process by up to 70% for seconds at a time,
    so the median kNN latency of ten 15-s runs spread by 0.27-0.41 of
    its median on ``single-clustered``.  A fixed reference computation
    -- heap operations in Python plus a small numpy distance scan, the
    mix the query paths run -- timed every :data:`PROBE_EVERY_S` tracks
    that slowdown (correlation 0.96 with the per-second median latency),
    and scaling each request's wall time by ``REFERENCE_S / probe time``
    cut the spread to 0.04.  The probe runs between requests, never
    inside a timed call, and uses no code of the program, so a change to
    the program moves it only if the program leaves work running between
    requests.  It times the core the harness runs on; work on worker
    processes (``batch-uniform``) follows it less closely.
    """

    def __init__(self):
        points = np.random.default_rng(0).random((4096, 16))
        self._points, self._query = points, points[7]
        self.factor = 1.0  # REFERENCE_S over the latest probe time
        self.probes: list[float] = []  # every probe time, in seconds
        self._last = -float("inf")

    def stale(self) -> bool:
        return time.perf_counter() - self._last >= PROBE_EVERY_S

    def sample(self) -> float:
        """Time the reference computation once; returns its seconds."""
        start = time.perf_counter()
        heap = []
        for i in range(3000):
            heapq.heappush(heap, ((i * 7919) % 3001, i))
        while heap:
            heapq.heappop(heap)
        dists = ((self._points - self._query) ** 2).sum(axis=1)
        np.argpartition(dists, K)
        self._last = time.perf_counter()
        seconds = self._last - start
        self.factor = REFERENCE_S / seconds
        self.probes.append(seconds)
        return seconds


@dataclass(frozen=True)
class Size:
    """Input sizes; ``FULL`` is the benchmark, ``SMOKE`` the self-test."""

    n: int  # database rows
    clusters: int  # gaussian_clusters components (~125 rows each)
    single_queries: int  # each runs one nearest and one range call
    batch_queries: int  # distinct queries cycled through knn_batch
    batch: int  # queries per knn_batch call
    shard_warmup: int  # untimed requests that fill the caches
    shard_window: int  # timed requests in the count window
    write_queries: int  # distinct read queries of write-mix
    write_window: int  # write-mix rounds in the count window
    checkpoint_every: int  # write-mix rounds between checkpoints


FULL = Size(
    n=32_000, clusters=256, single_queries=128, batch_queries=256, batch=64,
    shard_warmup=128, shard_window=480,
    write_queries=160, write_window=20, checkpoint_every=20,
)
SMOKE = Size(
    n=3_000, clusters=24, single_queries=4, batch_queries=32, batch=16,
    shard_warmup=8, shard_window=16,
    write_queries=16, write_window=2, checkpoint_every=2,
)


def _sample(generator, size: Size, n_queries: int, seed: int, **kwargs):
    """A fixed database of ``size.n`` rows and fixed held-out queries.

    Both come from a fixed seed; the run's seed only orders the queries.
    Drawn per seed, they would make the I/O counts differ between seeds
    by up to 8% (another sample of the same distribution builds other
    pages, and the I/O of one query varies far more than that), and no
    bound that wide catches a 10% regression in blocks transferred.
    """
    data, queries = holdout_queries(
        generator(n=size.n + n_queries, seed=DISTRIBUTION_SEED, **kwargs),
        n_queries,
        seed=DISTRIBUTION_SEED,
    )
    return data, queries[np.random.default_rng(seed).permutation(n_queries)]


def _clustered(size: Size, n_queries: int, seed: int):
    # Micro-clusters far smaller than a page: the regime where the
    # cost model picks per-page PQ codebooks (codec="auto").
    return _sample(
        gaussian_clusters, size, n_queries, seed,
        dim=16, n_clusters=size.clusters, spread=5e-4,
    )


def _space_amp(trees, n_live: int) -> float:
    """Stored bytes of all three levels over the raw float32 data."""
    blocks = sum(sum(tree.size_summary().values()) for tree in trees)
    tree = trees[0]
    return blocks * tree.disk.model.block_size / (n_live * tree.dim * 4)


@dataclass
class Recorder:
    """What one run of a workload observed.

    ``probe`` (a :class:`~benchmarks.iqbench.layers.LayerTrace`, traced
    pass only) is snapshotted at the count window's edges so the
    per-level I/O can be compared with the window's ledger.  ``speed``
    scales the timed calls' wall times into ``scaled_ms`` and
    ``scaled_busy_s``; ``latency_ms`` and ``busy_s`` keep them as read.
    """

    probe: object = None
    speed: HostSpeed = field(default_factory=HostSpeed)
    requests: int = 0  # every request issued, warm-up included
    measured: int = 0  # requests issued in the timed phase
    busy_s: float = 0.0  # wall time inside every call
    scaled_busy_s: float = 0.0  # reference-speed time inside timed calls
    elapsed_s: float = 0.0  # wall time of the timed phase
    failed: int = 0  # calls that raised a ReproError
    latency_ms: dict = field(default_factory=lambda: defaultdict(list))
    scaled_ms: dict = field(default_factory=lambda: defaultdict(list))
    setup_wall_s: list = field(default_factory=list)  # as read
    counts: dict = field(default_factory=lambda: defaultdict(float))
    answers: list = field(default_factory=list)
    in_window: bool = False
    window_queries: int = 0
    window_service_s: float = 0.0
    window_io: IOStats | None = None
    window_levels: dict | None = None
    space_amp: float = 0.0
    _opened: tuple = ()

    def call(self, kind, fn, *args, n=1, due=None, timed=True):
        """Time one call; ``n`` requests it answers; None if it failed.

        Open-loop requests pass their ``due`` time, so latency counts
        from when the request should have been sent; their generator
        samples the host speed in its idle time instead of here.
        Warm-up calls (``timed=False``) add no latency sample.
        """
        if timed and due is None and self.speed.stale():
            self.speed.sample()
        start = time.perf_counter()
        try:
            result = fn(*args)
        except ReproError:
            result = None
            self.failed += 1
        end = time.perf_counter()
        self.busy_s += end - start
        self.requests += n
        if self.in_window:
            self.window_service_s += end - start
            if kind in ("knn", "range"):
                self.window_queries += n
        if timed:
            self.measured += n
            self.scaled_busy_s += (end - start) * self.speed.factor
            base = start if due is None else due
            self.latency_ms[kind].append((end - base) * 1e3)
            self.scaled_ms[kind].append(
                (end - base) * 1e3 * self.speed.factor
            )
            if due is not None:
                self.latency_ms["lateness"].append((start - due) * 1e3)
        return result

    def count(self, name: str, value: float = 1.0) -> None:
        """Accumulate a per-layer count (count window only)."""
        if self.in_window:
            self.counts[name] += value

    def open_window(self, ledger: IOStats, counters: dict) -> None:
        self.in_window = True
        levels = None if self.probe is None else self.probe.snapshot()
        self._opened = (ledger, counters, levels)

    def close_window(self, ledger: IOStats, counters: dict, space_amp):
        ledger0, counters0, levels0 = self._opened
        self.in_window = False
        self.window_io = io_delta(ledger0, ledger)
        for name, value in counters.items():
            self.counts[name] += value - counters0[name]
        if self.probe is not None:
            self.window_levels = self.probe.since(levels0)["io"]
        self.space_amp = space_amp


class Workload:
    """One set of inputs, its serving object and its request loop."""

    name = ""

    def __init__(self, seed: int, size: Size, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir

    # -- provided by each workload -------------------------------------
    def setup(self) -> None:
        """Build the index and serving object and make the first call."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the serving object (workers, files); idempotent."""

    def ledger(self) -> IOStats:
        """Copy of the serving disk ledger."""
        raise NotImplementedError

    def counters(self) -> dict:
        """Cumulative program counters whose window deltas are reported."""
        return {}

    def space_amp(self) -> float:
        raise NotImplementedError

    def step(self, i: int, m: Recorder) -> None:
        """Issue request ``i`` of the closed loop (a round for write-mix)."""
        raise NotImplementedError

    def wrong_answers(self, m: Recorder) -> int:
        """Answers that disagree with the scan (runs after timing).

        The default reads ``(query index, ids, distances)`` kNN answers
        and checks them against ``self.oracle``.
        """
        return sum(
            not same_knn(ids, dists, *self.oracle.knn(qi, self.queries[qi], K))
            for qi, ids, dists in m.answers
        )

    # -- count window and closed loop -----------------------------------
    def open_window(self, m: Recorder) -> None:
        m.open_window(self.ledger(), self.counters())

    def close_window(self, m: Recorder) -> None:
        m.close_window(self.ledger(), self.counters(), self.space_amp())

    @property
    def window(self) -> int:
        raise NotImplementedError

    def run(self, m: Recorder, seconds: float) -> None:
        """The timed phase: the count window, then more until ``seconds``."""
        start = time.perf_counter()
        self.open_window(m)
        i = 0
        while i < self.window or time.perf_counter() - start < seconds:
            self.step(i, m)
            i += 1
            if i == self.window:
                self.close_window(m)
        m.elapsed_s = time.perf_counter() - start

    def run_window(self, m: Recorder) -> None:
        """Exactly the count window, back to back (untraced reference)."""
        self.run(m, 0.0)


class SingleClustered(Workload):
    name = "single-clustered"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.data, self.queries = _clustered(size, size.single_queries, seed)
        self.oracle = Oracle(self.data)
        # Each range radius is that query's exact 50th-NN distance.
        self.radii = [
            float(self.oracle.knn(i, q, 50)[1][-1])
            for i, q in enumerate(self.queries)
        ]
        self.tree = None

    @property
    def window(self) -> int:
        return 2 * len(self.queries)

    def setup(self) -> None:
        self.tree = IQTree.build(self.data, codec="auto")
        self.tree.nearest(self.queries[0], k=K)

    def ledger(self) -> IOStats:
        return io_snapshot(self.tree)

    def space_amp(self) -> float:
        return _space_amp([self.tree], self.tree.n_live_points)

    def step(self, i: int, m: Recorder) -> None:
        qi, is_range = divmod(i, 2)
        qi %= len(self.queries)
        query = self.queries[qi]
        if is_range:
            kind, fn, arg = "range", self.tree.range_query, self.radii[qi]
        else:
            kind, fn, arg = "knn", self.tree.nearest, K
        result = m.call(kind, fn, query, arg)
        if result is not None:
            m.answers.append((kind, qi, result.ids, result.distances))
            m.count("refinements", result.refinements)
            m.count("results", len(result.ids))

    def wrong_answers(self, m: Recorder) -> int:
        wrong = 0
        for kind, qi, ids, dists in m.answers:
            query = self.queries[qi]
            if kind == "knn":
                want = self.oracle.knn(qi, query, K)
                wrong += not same_knn(ids, dists, *want)
            else:
                want = self.oracle.range(qi, query, self.radii[qi])
                wrong += not same_range(ids, dists, *want)
        return wrong


class BatchUniform(Workload):
    name = "batch-uniform"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.data, self.queries = _sample(
            uniform, size, size.batch_queries, seed, dim=16
        )
        self.oracle = Oracle(self.data)
        self.tree = self.engine = None

    @property
    def window(self) -> int:
        return len(self.queries) // self.size.batch

    def setup(self) -> None:
        self.tree = IQTree.build(self.data, codec="auto")
        self.engine = self.tree.query_engine(workers=2, backend="auto")
        self.engine.knn_batch(self.queries[: self.size.batch], k=K)

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def ledger(self) -> IOStats:
        return io_snapshot(self.tree)

    def space_amp(self) -> float:
        return _space_amp([self.tree], self.tree.n_live_points)

    def step(self, i: int, m: Recorder) -> None:
        b = self.size.batch
        first = (i % self.window) * b
        batch = m.call(
            "knn", self.engine.knn_batch, self.queries[first : first + b], K,
            n=b,
        )
        if batch is None:
            return
        for j, result in enumerate(batch):
            m.answers.append((first + j, result.ids, result.distances))
            m.count("refinements", result.stats.refinements)
            m.count("candidates", result.stats.candidate_points)
            m.count("results", len(result.ids))


class ShardedOpen(Workload):
    name = "sharded-open"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        # Every request of the count window asks a different query.
        self.data, self.queries = _clustered(
            size, size.shard_warmup + size.shard_window, seed
        )
        self.oracle = Oracle(self.data)
        self.router = None

    def setup(self) -> None:
        tree = IQTree.build(self.data, codec="auto")
        # 64 MiB holds every decoded page of every shard: a warm cache.
        self.router = ShardRouter(
            tree, 4, workers=2, backend="thread", decode_cache=64 << 20
        )
        self.router.knn_batch(self.queries[:1], k=K)

    def close(self) -> None:
        if self.router is not None:
            self.router.close()
            self.router = None

    def ledger(self) -> IOStats:
        # The router's composite ledger sums the shard disks afresh.
        return self.router.disk.stats

    def counters(self) -> dict:
        caches = [shard.tree.decoded_cache for shard in self.router.shards]
        return {
            "cache_hits": sum(c.hits for c in caches),
            "cache_misses": sum(c.misses for c in caches),
            "cache_evictions": sum(c.evictions for c in caches),
        }

    def space_amp(self) -> float:
        trees = [shard.tree for shard in self.router.shards]
        return _space_amp(trees, sum(t.n_live_points for t in trees))

    def request(self, j: int, m: Recorder, due=None, timed=True) -> None:
        """Request ``j``; the query set repeats after the count window."""
        qi = j % len(self.queries)
        batch = m.call(
            "knn", self.router.knn_batch, self.queries[qi : qi + 1], K,
            due=due, timed=timed,
        )
        if batch is None:
            return
        result = batch[0]
        m.answers.append((qi, result.ids, result.distances))
        m.count("refinements", result.stats.refinements)
        m.count("candidates", result.stats.candidate_points)
        m.count("results", len(result.ids))
        m.count("shards_contacted", int(batch.routing.contacted[0]))

    def run(self, m: Recorder, seconds: float) -> None:
        """Warm-up, then requests on a Poisson schedule over ``seconds``.

        The count window covers the warm-up and the first
        ``shard_window`` timed requests.  With ``seconds=0`` every
        request is due at once, so the window runs back to back.
        """
        size = self.size
        self.open_window(m)
        for j in range(size.shard_warmup):
            self.request(j, m, timed=False)
        # Sorted uniform arrival times are a Poisson process conditioned
        # on its count, so the offered rate is exact for every seed.
        n = max(size.shard_window, round(ARRIVALS_PER_S * seconds))
        arrivals = np.random.default_rng([self.seed, 3])
        offsets = np.sort(arrivals.uniform(0.0, seconds, n))
        m.speed.sample()
        start = time.perf_counter()
        for j, offset in enumerate(offsets):
            due = start + offset
            # Spin rather than sleep: with the core left idle between
            # requests, service times tracked whatever else the host ran
            # and the median's range across runs was 1.6 times wider.
            while (now := time.perf_counter()) < due:
                if due - now >= PROBE_GAP_S and m.speed.stale():
                    m.speed.sample()
            self.request(size.shard_warmup + j, m, due=due)
            if j + 1 == size.shard_window:
                self.close_window(m)
        m.elapsed_s = time.perf_counter() - start


class WriteMix(Workload):
    name = "write-mix"

    INSERTS, DELETES, READS = 20, 5, 8

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.data, self.queries = _sample(
            weather_like, size, size.write_queries, seed, dim=9
        )
        self.store = None
        self.setups = 0

    @property
    def window(self) -> int:
        return self.size.write_window

    def setup(self) -> None:
        tree = IQTree.build(self.data, codec="auto")
        self.setups += 1
        self.path = self.workdir / f"write-mix-{self.setups}.iqt"
        # The flush policy is part of the workload: fsync every append.
        self.store = DurableTree.create(
            tree, self.path, fsync=True, group_commit=1
        )
        self.manager = tree.maintenance_manager()
        tree.nearest(self.queries[0], k=K)
        self.coords = tree.points.copy()
        self.live = list(range(len(self.coords)))
        self.snapshots = []
        self.rng = np.random.default_rng([self.seed, 2])

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None

    @property
    def tree(self) -> IQTree:
        return self.store.tree

    def ledger(self) -> IOStats:
        return io_snapshot(self.tree)

    def space_amp(self) -> float:
        return _space_amp([self.tree], self.tree.n_live_points)

    def _insert(self, m: Recorder) -> None:
        src = self.live[int(self.rng.integers(len(self.live)))]
        jitter = self.rng.normal(0.0, INSERT_JITTER, self.coords.shape[1])
        point = canonicalize(np.clip(self.coords[src] + jitter, 0.0, 1.0))
        before = self.store.journal.size_bytes
        pid = m.call("write", self.store.insert, point)
        m.count("journal_bytes", self.store.journal.size_bytes - before)
        m.count("writes")
        if pid is None:
            return
        if pid >= len(self.coords):
            grown = np.empty((2 * pid + 1, self.coords.shape[1]))
            grown[: len(self.coords)] = self.coords
            self.coords = grown
        self.coords[pid] = point
        self.live.append(pid)

    def _delete(self, m: Recorder) -> None:
        pos = int(self.rng.integers(len(self.live)))
        pid = self.live[pos]
        self.live[pos] = self.live[-1]
        self.live.pop()
        before = self.store.journal.size_bytes
        m.call("write", self.store.delete, pid)
        m.count("journal_bytes", self.store.journal.size_bytes - before)
        m.count("writes")

    def step(self, i: int, m: Recorder) -> None:
        for _ in range(self.INSERTS):
            self._insert(m)
        for _ in range(self.DELETES):
            self._delete(m)
        self.snapshots.append(np.array(self.live))
        for j in range(self.READS):
            qi = (i * self.READS + j) % len(self.queries)
            result = m.call("knn", self.tree.nearest, self.queries[qi], K)
            if result is not None:
                m.answers.append((i, qi, result.ids, result.distances))
                m.count("refinements", result.refinements)
                m.count("results", len(result.ids))
        report = m.call("sweep", self.manager.sweep, n=0)
        if report is not None:
            m.count("sweeps")
            m.count("dirty_pages", len(report.dirty))
            m.count("requantized", report.requantized)
        if (i + 1) % self.size.checkpoint_every == 0:
            m.call("checkpoint", self.store.checkpoint, n=0)

    def wrong_answers(self, m: Recorder) -> int:
        wrong = 0
        by_round = defaultdict(list)
        for r, qi, ids, dists in m.answers:
            by_round[r].append((qi, ids, dists))
        for r, answers in by_round.items():
            live = np.sort(self.snapshots[r])
            oracle = Oracle(self.coords[live], ids=live)
            for qi, ids, dists in answers:
                want = oracle.knn(qi, self.queries[qi], K)
                wrong += not same_knn(ids, dists, *want)
        return wrong + self._reopen_mismatches(m)

    def _reopen_mismatches(self, m: Recorder) -> int:
        """Close, reopen from container + journal, and compare answers."""
        probe = self.queries[: self.READS]
        before = [self.tree.nearest(q, k=K) for q in probe]
        self.close()
        start = time.perf_counter()
        self.store = DurableTree.open(self.path, fsync=True)
        m.latency_ms["recovery"].append((time.perf_counter() - start) * 1e3)
        live = np.sort(np.asarray(self.live))
        oracle = Oracle(self.coords[live], ids=live)
        wrong = 0
        for qi, (query, old) in enumerate(zip(probe, before)):
            new = self.tree.nearest(query, k=K)
            wrong += not same_knn(
                new.ids, new.distances, old.ids, old.distances
            )
            want = oracle.knn(qi, query, K)
            wrong += not same_knn(new.ids, new.distances, *want)
        return wrong


WORKLOADS = {
    cls.name: cls
    for cls in (SingleClustered, BatchUniform, ShardedOpen, WriteMix)
}
