"""Extension bench -- parallel serving, simulated AND wall-clock.

A query server replays similar batches over and over; the paper's
measurement discipline (everything cold, head parked) prices each round
as if it were the first.  This bench measures two different things and
keeps them clearly apart:

**Simulated speedup** (the repo's standard cost measure).  A repeated
16-d kNN workload runs two ways on identical trees and disks:

* **serial**: ``QueryEngine(workers=1)`` with no decoded-page cache --
  every round re-fetches and re-decodes its candidate pages (the
  engine's per-batch amortization still applies *within* a round);
* **cached-parallel**: the full serving stack --
  ``QueryEngine(workers=4)`` with a
  :class:`~repro.storage.cache.BufferPool` over the block level and one
  :class:`~repro.engine.page_cache.DecodedPageCache` shared across
  rounds: the first round decodes, later rounds serve pages (and their
  cell bounds) from memory, skip the quantized-level transfers
  entirely, and serve repeated third-level blocks from the pool.

**Wall-clock speedup** (real elapsed time on the host).  The same warm
workload -- decoded cache hot, so per-query CPU dominates -- runs with
``workers=1`` and with ``workers=4, backend="process"`` on separate but
identical trees; results must be bit-identical, only the clock may
differ.  The process backend ships the per-query kernels to worker
processes (large arrays via a shared-memory arena), so this is where
multi-core hosts convert the simulated speedup into real time.  The
measurement is host-dependent by nature: the acceptance threshold below
is only asserted when the runner actually has >= 4 usable cores, and
the JSON records the core count alongside the numbers.

Acceptance thresholds asserted below, from the ISSUEs:

* >= 2x simulated batch-query throughput, cached-parallel vs serial;
* >= 80% decoded-cache hit rate on the repeated workload;
* >= 2.5x wall-clock batch speedup at 4 process workers -- asserted on
  hosts with >= 4 cores, skipped (and still recorded) elsewhere.

Results land in ``BENCH_parallel.json`` at the repo root so CI can
track the trajectory -- at full scale only: a run at any other
``IQ_REPRO_SCALE`` (the CI smoke runs at 0.25) writes its JSON to the
temp directory instead, so it never overwrites the tracked numbers.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import pytest

from benchmarks.conftest import repro_scale, scaled
from repro.core.tree import IQTree
from repro.datasets import make_workload, uniform
from repro.experiments.harness import experiment_disk
from repro.storage.cache import BufferPool

#: identical rounds of the same batch (a repeated workload)
ROUNDS = 6
#: queries per round (simulated-speedup section)
BATCH = 8
K = 5
DIM = 16
WORKERS = 4
#: queries per round of the wall-clock section -- large enough that the
#: per-query kernels dominate the coordinator's bookkeeping
WALL_BATCH = 64
WALL_ROUNDS = 3
#: ISSUE acceptance for the wall-clock section (4-core hosts and up)
WALL_SPEEDUP_FLOOR = 2.5


def artifact_path() -> Path:
    """Where this run's JSON goes: the tracked root artifact at full
    scale, a file in the temp directory at any other scale."""
    if repro_scale() == 1.0:
        return Path(__file__).resolve().parent.parent / "BENCH_parallel.json"
    return Path(tempfile.gettempdir()) / (
        f"BENCH_parallel-scale{repro_scale():g}.json"
    )


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def build_fixture(n_queries: int = BATCH):
    data, queries = make_workload(
        uniform, n=scaled(20_000), n_queries=n_queries, seed=11, dim=DIM
    )
    tree = IQTree.build(
        data, disk=experiment_disk(), optimize=False, fixed_bits=8
    )
    return tree, queries


def run_rounds(engine, queries):
    """Replay the workload; return (sim_seconds, wall_seconds, results)."""
    sim = 0.0
    wall = -time.perf_counter()
    last = None
    for _ in range(ROUNDS):
        last = engine.knn_batch(queries, k=K)
        sim += last.stats.io.elapsed
    wall += time.perf_counter()
    return sim, wall, last


def run_wall(tree, queries, workers, backend):
    """Warm the decoded cache, then time WALL_ROUNDS replays."""
    engine = tree.query_engine(
        workers=workers, backend=backend, decode_cache=64 << 20
    )
    engine.knn_batch(queries, k=K)  # warm: decode once, off the clock
    wall = -time.perf_counter()
    last = None
    for _ in range(WALL_ROUNDS):
        last = engine.knn_batch(queries, k=K)
    wall += time.perf_counter()
    engine.close()
    return wall, last


@pytest.fixture(scope="module")
def result() -> dict:
    n_queries = ROUNDS * BATCH

    tree_s, queries = build_fixture()
    serial_sim, serial_wall, serial_last = run_rounds(
        tree_s.query_engine(), queries
    )

    tree_p, _ = build_fixture()
    pool = BufferPool(2048)
    engine = tree_p.query_engine(
        pool=pool, workers=WORKERS, decode_cache=64 << 20
    )
    par_sim, par_wall, par_last = run_rounds(engine, queries)
    cache = tree_p.decoded_cache
    engine.close()

    # Identical answers, round after round.
    for s, p in zip(serial_last, par_last):
        assert (s.ids == p.ids).all()
        assert (s.distances == p.distances).all()

    # Wall-clock section: same warm workload, serial vs process pool.
    tree_w1, wall_queries = build_fixture(WALL_BATCH)
    wall_serial, wall_serial_last = run_wall(
        tree_w1, wall_queries, workers=1, backend="auto"
    )
    tree_wp, _ = build_fixture(WALL_BATCH)
    wall_process, wall_process_last = run_wall(
        tree_wp, wall_queries, workers=WORKERS, backend="process"
    )
    for s, p in zip(wall_serial_last, wall_process_last):
        assert (s.ids == p.ids).all()
        assert (s.distances == p.distances).all()

    sim_speedup = serial_sim / par_sim
    wall_speedup = wall_serial / wall_process
    out = {
        "fixture": {
            "n_points": int(tree_s.n_points),
            "dim": DIM,
            "k": K,
            "batch": BATCH,
            "rounds": ROUNDS,
            "workers": WORKERS,
            "pages": int(tree_p.n_pages),
        },
        "serial": {
            "sim_seconds": round(serial_sim, 6),
            "wall_seconds": round(serial_wall, 4),
            "throughput_qps_sim": round(n_queries / serial_sim, 2),
        },
        "cached_parallel": {
            "sim_seconds": round(par_sim, 6),
            "wall_seconds": round(par_wall, 4),
            "throughput_qps_sim": round(n_queries / par_sim, 2),
            "decode_cache_hit_rate": round(cache.hit_rate, 4),
            "decoded_pages_reused": cache.hits,
            "pages_decoded": cache.misses,
        },
        "speedup_sim": round(sim_speedup, 3),
        # Wall-clock scaling of the warm workload (process backend).
        # Host-dependent: meaningful on >= WORKERS cores, recorded
        # everywhere for trend visibility.
        "wall_clock": {
            "cores": usable_cores(),
            "batch": WALL_BATCH,
            "rounds": WALL_ROUNDS,
            "serial_seconds": round(wall_serial, 4),
            "process_seconds": round(wall_process, 4),
            "speedup_wall": round(wall_speedup, 3),
            "threshold": WALL_SPEEDUP_FLOOR,
            "threshold_asserted": usable_cores() >= WORKERS,
        },
        "speedup_wall": round(wall_speedup, 3),
        # Classic parallel efficiency (speedup / workers).  On a
        # single-core host the gain comes from cross-round decode
        # amortization, not concurrency, so values below 1 are normal.
        "scaling_efficiency": round(sim_speedup / WORKERS, 3),
    }
    artifact_path().write_text(json.dumps(out, indent=2) + "\n")
    return out


def test_parallel_scaling(benchmark, result):
    benchmark.pedantic(lambda: result, rounds=1, iterations=1)
    print()
    print(json.dumps(result, indent=2))


def test_cached_parallel_at_least_twice_serial_throughput(result):
    """ISSUE acceptance: >= 2x throughput on the repeated workload."""
    assert result["speedup_sim"] >= 2.0


def test_decode_cache_hit_rate_at_least_80_percent(result):
    """ISSUE acceptance: >= 80% decoded-page cache hit rate."""
    assert result["cached_parallel"]["decode_cache_hit_rate"] >= 0.80


def test_wall_clock_speedup_on_multicore_hosts(result):
    """ISSUE acceptance: >= 2.5x wall-clock batch speedup at 4 process
    workers.  Only a host with >= 4 usable cores can demonstrate it;
    smaller runners record the number and skip the assertion."""
    cores = result["wall_clock"]["cores"]
    if cores < WORKERS:
        pytest.skip(
            f"host exposes {cores} usable core(s); wall-clock scaling "
            f"needs >= {WORKERS}"
        )
    assert result["wall_clock"]["speedup_wall"] >= WALL_SPEEDUP_FLOOR


def test_json_artifact_written(result):
    data = json.loads(artifact_path().read_text())
    assert data["speedup_sim"] == result["speedup_sim"]
    assert {
        "serial", "cached_parallel", "scaling_efficiency", "wall_clock"
    } <= set(data)
