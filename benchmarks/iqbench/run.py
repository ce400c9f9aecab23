"""Run the iqbench benchmark for the IQ-tree.

One workload per process::

    python3 benchmarks/iqbench/run.py --workload single-clustered \\
        --seed 0 --seconds 10 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) and ends with one JSON line::

    {"correct": true, "attempted": ..., "failed": 0, "metrics": {...}}

Without ``--workload`` every workload runs in turn, each in a fresh
interpreter, and a summary table follows.  ``--smoke`` shrinks every
input for a quick self-test; ``--out FILE`` also writes the JSON.  The
exit code is non-zero when any answer disagrees with the brute-force
scan, any request fails, or the traced pass's level attribution does
not add up.  The script finds the program in ``src/`` next to its own
directory; ``PYTHONPATH=src python -m benchmarks.iqbench`` works too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np  # noqa: E402

from benchmarks.iqbench.layers import (  # noqa: E402
    LayerTrace,
    per_layer_metrics,
)
from benchmarks.iqbench.workloads import (  # noqa: E402
    FULL,
    REFERENCE_S,
    SMOKE,
    WORKLOADS,
    Recorder,
)

#: set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
DEFAULT_SECONDS = 12


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped workers."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def end_to_end(setup_s: list[float], m: Recorder) -> dict:
    """Wall-clock metrics are at the reference host speed (HostSpeed).

    The kNN tail is printed with the other latencies but not reported:
    even scaled, its spread between runs on a shared 2-core host is more
    than a third of the largest bound a metric may have (see README.md).
    """
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (m.measured / m.scaled_busy_s, "ops/s"),
        "knn_p50_ms": (float(np.percentile(m.scaled_ms["knn"], 50)), "ms"),
        "sim_s_per_query": (m.window_io.elapsed / m.window_queries, "s"),
        "blocks_per_query": (
            m.window_io.blocks_read / m.window_queries, "blocks"
        ),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "space_amp": (m.space_amp, "ratio"),
    }


def measure(workload, seconds: float):
    """Untraced pass: repeated set-up, then the timed request loop.

    Each set-up's wall time is scaled by the host speed sampled just
    before and just after it.
    """
    m = Recorder()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        workload.close()
        before = m.speed.sample()
        start = time.perf_counter()
        workload.setup()
        wall = time.perf_counter() - start
        after = m.speed.sample()
        m.setup_wall_s.append(wall)
        setup_s.append(wall * REFERENCE_S / ((before + after) / 2))
    workload.run(m, seconds)
    wrong = workload.wrong_answers(m)
    return end_to_end(setup_s, m), [m], wrong, [], None


def attribution_problems(traced: Recorder, untraced: Recorder) -> list:
    """Check that T_1st + T_2nd + T_3rd equals the whole ledger.

    Seeks and blocks must agree exactly; seconds are float sums taken
    in a different order, so they must agree to 1e-9 relative.
    """
    levels = traced.window_levels.values()
    seeks = sum(level[0] for level in levels)
    blocks = sum(level[1] for level in levels)
    sim = sum(level[2] for level in levels)
    problems = []
    for label, recorder in (("traced", traced), ("untraced", untraced)):
        io = recorder.window_io
        if (seeks, blocks) != (io.seeks, io.blocks_read) or not math.isclose(
            sim, io.elapsed, rel_tol=1e-9
        ):
            problems.append(
                f"level1+2+3 = {sim!r} s, {seeks} seeks, {blocks} blocks "
                f"but the {label} count-window ledger reads "
                f"{io.elapsed!r} s, {io.seeks} seeks, {io.blocks_read} blocks"
            )
    return problems


def measure_traced(workload, seconds: float):
    """Traced pass, then an untraced run of the same count window."""
    with LayerTrace() as trace:
        before = trace.snapshot()
        workload.setup()
        setup_window = trace.since(before)
        m = Recorder(probe=trace)
        before = trace.snapshot()
        workload.run(m, seconds)
        ops_window = trace.since(before)
    wrong = workload.wrong_answers(m)
    workload.close()
    workload.setup()
    ref = Recorder()
    workload.run_window(ref)
    wrong += workload.wrong_answers(ref)
    metrics = per_layer_metrics(setup_window, ops_window, m)
    metrics["harness.trace_overhead"] = (
        m.window_service_s / ref.window_service_s - 1.0, "ratio"
    )
    problems = attribution_problems(m, ref)
    return metrics, [m, ref], wrong, problems, ops_window


def print_report(name, metrics, m, ops_window) -> None:
    """Human-readable lines; the JSON result line follows them."""
    print(f"# {name}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:48s} {value:14.6g} {unit}")
    latencies = [("as read", m.latency_ms), ("scaled", m.scaled_ms)]
    for label, by_kind in latencies:
        for kind, samples in sorted(by_kind.items()):
            print(
                f"  {label:7s} {kind:12s} n={len(samples):5d}  "
                f"p50={np.percentile(samples, 50):9.3f} ms  "
                f"p95={np.percentile(samples, 95):9.3f} ms"
            )
    probes = np.asarray(m.speed.probes) * 1e3
    if len(probes):
        print(
            f"  host probe p50={np.median(probes):.3f} ms "
            f"min={probes.min():.3f} ms over {len(probes)} samples "
            f"(reference {REFERENCE_S * 1e3:g} ms); as read: "
            f"{m.measured / max(m.elapsed_s, 1e-9):.4g} ops/s, set-ups "
            + " ".join(f"{s:.3f}" for s in m.setup_wall_s) + " s"
        )
    if ops_window is not None:
        for level, (seeks, blocks, sim) in sorted(m.window_levels.items()):
            print(
                f"  {level} T = {sim / m.window_queries * 1e3:9.4f} ms/query "
                f"({seeks} seeks, {blocks} blocks over "
                f"{m.window_queries} queries)"
            )
        ops = max(m.requests, 1)
        print(f"  {'layer':32s} {'calls/op':>10s} {'self ms/op':>11s} "
              f"{'incl ms/op':>11s}")
        for layer, calls in sorted(ops_window["calls"].items()):
            if not calls:
                continue
            own = ops_window["self"].get(layer, 0.0)
            incl = ops_window["incl"].get(layer, 0.0)
            print(
                f"  {layer:32s} {calls / ops:10.3f} "
                f"{own / ops * 1e3:11.4f} {incl / ops * 1e3:11.4f}"
            )


def run_one(args) -> int:
    # The write-mix container and journal live here.  Arena files that
    # ship batch arrays to worker processes stay where the engine puts
    # them (memory-backed /dev/shm), as in production.
    workdir = Path.cwd() / ".iqbench-tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    size = SMOKE if args.smoke else FULL
    try:
        workload = WORKLOADS[args.workload](args.seed, size, workdir)
        try:
            run = measure_traced if args.trace else measure
            metrics, recorders, wrong, problems, ops_window = run(
                workload, args.seconds
            )
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print_report(args.workload, metrics, recorders[0], ops_window)
    for problem in problems:
        print(f"  ATTRIBUTION: {problem}")
    failed = wrong + sum(r.failed for r in recorders)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": sum(r.requests for r in recorders),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    line = json.dumps(result)
    if args.out:
        Path(args.out).write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter, then a summary table."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
        try:
            results[name] = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = None
            status = status or 1
    names = [n for n in WORKLOADS if results[n]]
    metrics = dict.fromkeys(
        m for n in names for m in results[n]["metrics"]
    )
    print(f"\n{'metric':48s}" + "".join(f"{n:>18s}" for n in WORKLOADS))
    for metric in metrics:
        cells = "".join(
            f"{results[n]['metrics'][metric]['value']:18.6g}"
            if results[n] else f"{'FAILED':>18s}"
            for n in WORKLOADS
        )
        print(f"{metric:48s}{cells}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): per-layer metrics from the traced pass",
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
