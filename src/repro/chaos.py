"""Chaos harness: faults against a live index, and the one check of the
degraded-answer contract (``docs/robustness.md``).

The IQ-tree gives every record or page a query cannot read a sound
``[mindist, maxdist]`` interval -- its quantization cell or its page
MBR -- so a degraded answer can be checked against the fault-free
baseline.  :func:`check_answer` is that check.  Three harnesses drive
it, each returning a :class:`Report` of printable lines and a verdict:

* :func:`read_matrix` -- transient, persistent and corrupt read faults
  on the quantized and exact levels of one tree;
* :func:`shard_kill` -- dead shards of a
  :class:`~repro.engine.sharding.ShardRouter`;
* :func:`write_matrix` -- crashes at every journal and checkpoint
  boundary, then maintenance sweeps raced against query batches.

``python -m repro chaos`` parses its arguments, runs one of them and
prints the report.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.core.maintenance import MaintenanceManager
from repro.core.optimizer import OptimizedPartition
from repro.core.search import locate_address
from repro.engine.engine import QueryEngine
from repro.engine.sharding import ShardRouter
from repro.exceptions import IntegrityError
from repro.storage.faults import (
    FaultInjector,
    PowerLoss,
    ReadFaultInjector,
    RetryPolicy,
)
from repro.storage.journal import (
    CRASH_POINTS,
    DurableTree,
    record_spans,
    wal_path,
)
from repro.storage.persistence import load_iqtree

__all__ = [
    "KINDS",
    "LEVELS",
    "Report",
    "check_answer",
    "point_pages",
    "read_matrix",
    "shard_kill",
    "write_matrix",
    "write_script",
]

#: read-fault kinds of the read matrix
KINDS = ("transient", "persistent", "corrupt")
#: the tree levels a read fault is aimed at
LEVELS = ("quantized", "exact")

#: slack of a reported distance or bound against a recomputed distance
TOLERANCE = 1e-9


@dataclass
class Report:
    """The printable lines of a chaos run and whether every check held."""

    lines: list[str] = field(default_factory=list)
    failed: bool = False

    def add(self, line: str, problems=()) -> None:
        """Append a result line, with its problems under it."""
        self.lines.append(line)
        for problem in problems:
            self.failed = True
            self.lines.append(f"      !! {problem}")

    @property
    def verdict(self) -> str:
        return "FAIL" if self.failed else "PASS"


def _ok(problems) -> str:
    return "FAIL" if problems else "ok"


# ----------------------------------------------------------------------
# The degraded-answer contract
# ----------------------------------------------------------------------
def point_pages(tree) -> np.ndarray:
    """The page of every stored point id (-1 for a deleted row)."""
    pages = np.full(tree.n_points, -1, dtype=np.int64)
    for page, opt in enumerate(tree._partitions):
        pages[opt.partition.indices] = page
    return pages


def _within(dist: float, lo: float, hi: float) -> bool:
    return lo - TOLERANCE <= dist <= hi + TOLERANCE


def check_answer(
    tree, query, got, want, *, exact: bool = False, pages=None
) -> list[str]:
    """Problems of one answer ``got`` against its fault-free baseline.

    A non-degraded answer must equal ``want``: the same ids and the
    same distances, bit for bit.  A degraded one -- a problem in itself
    when ``exact`` -- must report every entry marked certain at its
    true distance and give every uncertain entry an interval that
    contains it.  With ``pages`` (:func:`point_pages` of ``want``'s
    tree), every baseline neighbour missing from the answer must lie on
    a reported lost page whose ``[mindist, maxdist]`` contains its
    distance.  That holds where a neighbour can only be lost with its
    page (a faulted quantized level, a dead shard); a lost exact record
    ranks at its cell maxdist and may fall out of the top k unreported.
    """
    if not got.degraded:
        if np.array_equal(got.ids, want.ids) and np.array_equal(
            got.distances, want.distances
        ):
            return []
        return ["non-degraded answer differs from the baseline"]
    problems = ["degraded where an exact answer is due"] if exact else []
    true = tree.metric.distances(query, tree.points[got.ids])
    intervals = got.intervals or {}
    for pos, pid in enumerate(got.ids.tolist()):
        if got.certain is None or got.certain[pos]:
            lo = hi = float(got.distances[pos])
        elif pid in intervals:
            lo, hi = intervals[pid]
        else:
            problems.append(f"uncertain entry {pid} has no interval")
            continue
        if not _within(true[pos], lo, hi):
            problems.append(
                f"entry {pid} reported in [{lo:.4f}, {hi:.4f}] misses "
                f"its true distance {true[pos]:.4f}"
            )
    if pages is not None:
        returned = set(got.ids.tolist())
        for pid, dist in zip(want.ids.tolist(), want.distances.tolist()):
            if pid not in returned and not any(
                lp.page == pages[pid] and _within(dist, lp.mindist, lp.maxdist)
                for lp in got.lost_pages
            ):
                problems.append(
                    f"baseline neighbour {pid} (d={dist:.4f}, page "
                    f"{pages[pid]}) neither returned nor covered by a "
                    f"lost page"
                )
    return problems


# ----------------------------------------------------------------------
# Read faults
# ----------------------------------------------------------------------
def read_matrix(
    tree, queries, k, *, radius=None, kinds=KINDS, levels=LEVELS, retries=3
) -> Report:
    """Run the workload under every ``kind x level`` fault schedule.

    The workload is each query's kNN answer, then its range answer when
    ``radius`` is given.  A schedule-free injector first observes which
    disk addresses it reads; each level's first one is the victim.  A
    cell fails unless every answer passes :func:`check_answer` (a
    transient fault must retry to the exact answer), the schedule
    fired, nothing crashed, and the flight recorder captured every
    degraded answer and faulted query.  The workload is then re-run
    fault-free and must match the baseline.
    """
    policy = RetryPolicy(max_attempts=retries, backoff_seeks=1)
    probes = np.repeat(queries, 1 if radius is None else 2, axis=0)
    pages = point_pages(tree)

    def workload() -> list:
        answers = []
        for query in queries:
            answers.append(tree.nearest(query, k=k))
            if radius is not None:
                answers.append(tree.range_query(query, radius))
        return answers

    def cell(kind, level, address) -> tuple[str, list[str]]:
        injector = ReadFaultInjector()
        if kind == "transient":
            injector.schedule(address, kind)  # the first attempt only
        else:  # corrupt: silent payload damage, caught by the CRC sidecar
            injector.schedule_always(address, kind)
        tree.disk.install_fault_injector(injector)
        ctx = tree.use_fault_tolerance(policy)
        # Flight recorder in chaos-verification mode: relative slow
        # capture off, so every record is a degraded/faulted postmortem
        # we can count against the observed results.
        recorder = tree.use_flight_recorder(
            obs.FlightRecorder(capacity=4096, top_slow=0)
        )
        problems: list[str] = []
        answers: list = []
        try:
            answers = workload()
        except Exception as exc:  # noqa: BLE001 -- no schedule may crash
            problems.append(f"workload crashed: {type(exc).__name__}: {exc}")
        finally:
            tree.disk.clear_fault_injector()
            tree.clear_fault_tolerance()
            tree.clear_flight_recorder()
        problems += _batch_problems(
            tree, probes, answers, baseline, exact=kind == "transient",
            pages=pages if level == "quantized" else None,
        )
        degraded = sum(bool(got.degraded) for got in answers)
        lost = sum(len(got.lost_pages) for got in answers)
        if kind == "transient" and ctx.retries == 0:
            problems.append("transient schedule never triggered a retry")
        if kind != "transient" and not (degraded or lost):
            problems.append(f"{kind} schedule degraded no result")
        problems += _flight_problems(recorder, degraded)
        if (ctx.retries or ctx.quarantined) and not recorder.records(
            "faulted"
        ):
            problems.append(
                "fault tolerance retried/quarantined but the flight "
                "recorder captured no faulted record"
            )
        return (
            f"  {kind:10s} x {level:9s} (block {address}): "
            f"{_ok(problems)}  retries={ctx.retries} "
            f"quarantined={ctx.quarantined} "
            f"degraded={ctx.degraded_results} "
            f"lost_pages={ctx.lost_pages} "
            f"[{degraded} degraded / {lost} lost-page reports]"
        ), problems

    baseline = workload()
    observer = ReadFaultInjector()
    tree.disk.install_fault_injector(observer)
    workload()
    tree.disk.clear_fault_injector()
    victims: dict[str, int] = {}
    for address in sorted(observer.attempts_seen):
        level, _local = locate_address(tree, address)
        if level is not None:
            victims.setdefault(level, address)

    report = Report()
    report.add(
        f"chaos: {len(queries)} queries, k={k}"
        + (f", radius={radius}" if radius is not None else "")
        + f", retry limit {policy.max_attempts}"
    )
    for level in levels:
        if level not in victims:
            report.add(f"  {level:9s}: no reads observed, skipping")
            continue
        for kind in kinds:
            report.add(*cell(kind, level, victims[level]))
    # A chaos run must not poison later fault-free queries.
    problems = _batch_problems(tree, probes, workload(), baseline, exact=True)
    report.add(
        "post-chaos pristine check: "
        + ("FAIL" if problems else "ok (matches baseline)"),
        problems,
    )
    return report


def _flight_problems(recorder, degraded: int) -> list[str]:
    captured = len(recorder.records("degraded"))
    if captured == degraded:
        return []
    return [
        f"flight recorder captured {captured} degraded records for "
        f"{degraded} degraded answers"
    ]


# ----------------------------------------------------------------------
# Dead shards
# ----------------------------------------------------------------------
def shard_kill(tree, router, queries, k) -> Report:
    """Check a router with dead shards against ``tree``'s own answers.

    ``router`` is built over ``tree`` with the shards to test already
    killed.  Every degraded answer must pass :func:`check_answer` with
    the lost-page rule, killing a shard must degrade some answer, and
    the flight recorder must capture every degraded query.  The dead
    shards are then revived, and the router must answer exactly as
    ``tree`` does.
    """
    dead = [shard.index for shard in router.shards if not shard.alive]
    report = Report()
    report.add(
        f"chaos (sharded): {len(queries)} queries, k={k}, "
        f"{router.n_shards} shards, killing "
        f"{','.join(map(str, dead)) or 'none'}"
    )
    with tree.query_engine() as engine:
        baseline = engine.knn_batch(queries, k=k)
    recorder = router.use_flight_recorder(
        obs.FlightRecorder(capacity=4096, top_slow=0)
    )
    try:
        degraded_run = router.knn_batch(queries, k=k)
    finally:
        router.clear_flight_recorder()
    problems = _batch_problems(
        tree, queries, degraded_run, baseline, pages=point_pages(tree)
    )
    n_degraded = sum(1 for r in degraded_run if r.degraded)
    if dead and not n_degraded:
        problems.append("shard kill degraded no result")
    problems += _flight_problems(recorder, n_degraded)
    for index in dead:
        router.revive_shard(index)
    problems += _batch_problems(
        tree, queries, router.knn_batch(queries, k=k), baseline,
        exact=True, label="revived ",
    )
    report.add(
        f"  shard-kill {dead} / {router.n_shards} shards: "
        f"{_ok(problems)}  [{n_degraded} degraded / "
        f"{degraded_run.stats.lost_pages} lost-page reports, "
        f"{degraded_run.routing.skipped} visits pruned]",
        problems,
    )
    return report


def _batch_problems(
    tree, queries, got, want, *, label="", **check
) -> list[str]:
    """:func:`check_answer` over a batch, each problem naming its query."""
    return [
        f"{label}query {i}: {problem}"
        for i, (query, g, w) in enumerate(zip(queries, got, want))
        for problem in check_answer(tree, query, g, w, **check)
    ]


# ----------------------------------------------------------------------
# Write path
# ----------------------------------------------------------------------
def write_script(tree, n_ops: int, seed: int) -> list[tuple]:
    """Deterministic insert/delete script for the write matrix.

    ``(method, argument)`` pairs for a
    :class:`~repro.storage.journal.DurableTree`: roughly one delete per
    four inserts, deleting only ids this script created earlier -- so
    any acked prefix of the script is replayable on a pristine copy of
    the index.
    """
    rng = np.random.default_rng(seed)
    base = tree.n_points
    ops: list[tuple] = []
    created = 0
    live: list[int] = []
    for i in range(n_ops):
        if live and i % 4 == 3:
            ops.append(("delete", live.pop(int(rng.integers(len(live))))))
        else:
            point = (
                rng.random(tree.dim).astype(np.float32).astype(np.float64)
            )
            ops.append(("insert", point))
            live.append(base + created)
            created += 1
    return ops


def write_matrix(
    index, queries, k, ops, *, checkpoint_every: int = 10,
    group_commit: int = 1, backend: str = "thread",
) -> Report:
    """Crash the write path at every protocol boundary, then race
    background re-quantization against query batches.

    Each crash scenario runs the first half of ``ops`` (a
    :func:`write_script`) on a copy of the index at ``index``, crashes
    inside the next op or checkpoint, and recovers; the recovered
    answers must equal a crash-free replay of exactly the acknowledged
    ops.  A flipped bit in an acknowledged journal record must make
    recovery raise.  Finally maintenance sweeps race an engine's and a
    router's batches on ``backend`` workers, and no answer may change.
    """
    crash_at = len(ops) // 2
    report = Report()
    report.add(
        f"chaos (writes): {len(ops)} ops, crash at op {crash_at}, "
        f"checkpoint every {checkpoint_every}, group commit "
        f"{group_commit}, {len(queries)} probe queries, k={k}"
    )
    with tempfile.TemporaryDirectory() as tmp:

        def fresh_store(name, n_ops=0, checkpoints=True):
            path = Path(tmp) / f"{name}.iq"
            shutil.copy(index, path)
            # Drop any journal sidecar left by an earlier scenario.
            wal_path(path).unlink(missing_ok=True)
            store = DurableTree.open(
                path, fsync=False, group_commit=group_commit
            )
            for i in range(n_ops):
                getattr(store, ops[i][0])(ops[i][1])  # insert / delete
                if checkpoints and (i + 1) % checkpoint_every == 0:
                    store.checkpoint()
            return store

        # (name, DurableTree.inject_<hook>, its argument)
        scenarios = (
            [(point, "crash", point) for point in CRASH_POINTS]
            + [(f"torn-append[{b}]", "torn_append", b) for b in (1, 6, 18)]
            + [(f"torn-checkpoint[{b}]", "torn_checkpoint", b)
               for b in (1, 512)]
        )
        for name, hook, arg in scenarios:
            store = fresh_store("victim", crash_at)
            getattr(store, f"inject_{hook}")(arg)
            point = arg if hook == "crash" else None
            n_acked = crash_at
            checkpoint_crash = hook == "torn_checkpoint" or (
                point is not None and point.startswith("checkpoint")
            )
            crashed = False
            try:
                if checkpoint_crash:
                    store.checkpoint()
                else:
                    # Crash inside the next scripted op of the type the
                    # boundary names (torn appends hit whatever is next).
                    wanted = None if point is None else point.split(":")[0]
                    while wanted is not None and ops[n_acked][0] != wanted:
                        getattr(store, ops[n_acked][0])(ops[n_acked][1])
                        n_acked += 1
                    getattr(store, ops[n_acked][0])(ops[n_acked][1])
            except PowerLoss:
                crashed = True
            finally:
                store.close()
            if not crashed:
                report.add(
                    f"  {name:22s}: FAIL", ["injected crash never fired"]
                )
                continue
            # The crashed op was acknowledged iff its journal append
            # completed (post-append); checkpoints ack nothing new.
            if point is not None and point.endswith("post-append"):
                n_acked += 1
            recovered = DurableTree.open(store.path, fsync=False)
            got = [recovered.tree.nearest(q, k=k) for q in queries]
            recovered.close()
            reference = fresh_store("reference", n_acked, checkpoints=False)
            want = [reference.tree.nearest(q, k=k) for q in queries]
            reference.close()
            problems = _batch_problems(
                recovered.tree, queries, got, want, exact=True
            )
            report.add(
                f"  {name:22s}: {_ok(problems)}  "
                f"[{n_acked} acked, {recovered.recovered_ops} replayed]",
                problems,
            )

        # At-rest corruption of an acked record is loud.
        store = fresh_store("victim", crash_at, checkpoints=False)
        store.close()
        spans = record_spans(wal_path(store.path))
        start, _stop, _seq = spans[len(spans) // 2]
        FaultInjector(wal_path(store.path)).flip_bit(start + 12)
        try:
            DurableTree.open(store.path, fsync=False).close()
        except IntegrityError:
            report.add("  corrupt-acked-record   : ok  [recovery raised]")
        else:
            report.add(
                "  corrupt-acked-record   : FAIL",
                ["silent recovery over corrupted acked data"],
            )

    # Concurrent maintenance: sweeps must be invisible.
    for label, target, tree in _race_targets(index, backend):
        with target:
            problems, sweeps = _maintenance_race(target, tree, queries, k)
        report.add(
            f"  maintenance x {label + ':':9s} {_ok(problems)}  "
            f"[{sweeps} sweeps raced]",
            problems,
        )
    return report


def _race_targets(index, backend):
    """``(label, target, tree)``: an engine over a fresh copy of the
    index, then a two-shard router, with the tree a sweep rewrites."""
    tree = load_iqtree(index)
    engine = QueryEngine(tree, workers=2, backend=backend)
    yield f"engine[{engine.backend}]", engine, tree
    router = ShardRouter(
        load_iqtree(index), shards=2, workers=2, backend=backend
    )
    yield "sharded", router, router.shards[0].tree


def _maintenance_race(target, tree, queries, k, rounds: int = 4):
    """Run ``rounds`` kNN batches on ``target`` while a thread keeps
    coarsening one quantized page of ``tree`` and a maintenance sweep
    re-quantizes it; returns the answers' problems against a batch run
    before the race, and the number of sweeps that ran."""
    want = target.knn_batch(queries, k=k)
    mgr = MaintenanceManager(tree, baseline="current")
    victim = int(np.argmax(tree._bits < 32))
    fine = int(tree._bits[victim])
    if fine >= 32 or fine <= 2:
        return [], 0  # nothing to requantize on this index
    stop = threading.Event()
    errors: list[BaseException] = []
    sweeps = 0

    def churn():
        nonlocal sweeps
        while not stop.is_set():
            try:
                with tree._write_lock:
                    opt = tree._partitions[victim]
                    # Only coarsen quantized pages (an exact page has
                    # no refinement sidecar to decode against).
                    if 32 > opt.bits >= fine:
                        mgr._replace_page(
                            victim,
                            OptimizedPartition(opt.partition, fine - 2),
                        )
                if not mgr.maybe_sweep().noop:
                    sweeps += 1
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)
                return

    thread = threading.Thread(target=churn)
    thread.start()
    try:
        results = [target.knn_batch(queries, k=k) for _ in range(rounds)]
    finally:
        stop.set()
        thread.join()
    if errors:
        raise errors[0]
    problems = [
        problem
        for got in results
        for problem in _batch_problems(tree, queries, got, want, exact=True)
    ]
    return problems, sweeps
