"""Top-level command line: build, query, and inspect persisted indexes.

Usage::

    python -m repro build  data.npy index.iqt [--metric l2] [--no-optimize]
    python -m repro query  index.iqt --point 0.1,0.2,... [--k 5]
    python -m repro query  index.iqt --random 3 [--k 5]
    python -m repro batch  index.iqt --random 50 [--k 5] [--pool 256]
    python -m repro batch  index.iqt --random 50 --workers 4 [--backend process] [--decode-cache 4194304]
    python -m repro batch  index.iqt --random 50 --radius 0.2 [--compare]
    python -m repro info   index.iqt
    python -m repro fsck   index.iqt
    python -m repro validate index.iqt [--queries 10]
    python -m repro stats  index.iqt --random 50 [--format prometheus]
    python -m repro stats  index.iqt --slo lat=iq_query_simulated_seconds:p99<=0.05
    python -m repro trace  index.iqt [--k 5] [--json]
    python -m repro trace  index.iqt --export chrome --shards 4 --workers 2
    python -m repro flight index.iqt --shards 4 --kill-shard 0
    python -m repro chaos  index.iqt [--kinds transient] [--levels exact]
    python -m repro chaos  index.iqt --writes [--ops 40] [--backend process]

``data.npy`` is any ``numpy.save``-ed ``(n, d)`` float array.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro import chaos, obs
from repro.core.tree import IQTree
from repro.storage.persistence import (
    load_iqtree,
    save_iqtree,
    verify_container,
)

__all__ = ["main"]


def _cmd_build(args: argparse.Namespace) -> int:
    data = np.load(args.data)
    tree = IQTree.build(
        data,
        metric=args.metric,
        optimize=not args.no_optimize and args.bits is None,
        fixed_bits=args.bits,
        fractal_dim=None if args.uniform_model else "auto",
        codec=args.codec,
    )
    save_iqtree(tree, args.index)
    bits, counts = np.unique(tree.page_bits, return_counts=True)
    print(
        f"built {tree!r}\n"
        f"page resolutions: "
        f"{dict(zip(bits.tolist(), counts.tolist()))}\n"
        f"saved to {args.index}"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    tree = load_iqtree(args.index)
    if args.point:
        queries = [np.array([float(x) for x in args.point.split(",")])]
    else:
        queries = _random_queries(tree, args.random, args.seed)
    for query in queries:
        result = tree.nearest(query, k=args.k)
        pairs = ", ".join(
            f"{pid} (d={dist:.4f})"
            for pid, dist in zip(result.ids, result.distances)
        )
        print(
            f"query -> {pairs}  [{result.io.elapsed * 1e3:.2f} ms "
            f"simulated, {result.pages_read} pages, "
            f"{result.refinements} refinements]"
        )
    return 0


def _random_queries(tree, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lo = tree.points.min(axis=0)
    hi = tree.points.max(axis=0)
    return lo + rng.random((count, tree.dim)) * (hi - lo)


def _router(args: argparse.Namespace, tree, kill=(), **options):
    """A ShardRouter over ``args.shards`` shards of ``tree`` with
    ``args.workers`` workers, the shards listed in ``kill`` taken down."""
    from repro.engine import ShardRouter

    router = ShardRouter(
        tree, shards=args.shards, workers=args.workers, **options
    )
    for index in kill:
        if not 0 <= index < router.n_shards:
            router.close()
            raise SystemExit(
                f"shard index {index} out of range (router has "
                f"{router.n_shards} shards; the count clamps to the "
                f"page count)"
            )
        router.kill_shard(index)
    return router


def _cmd_batch(args: argparse.Namespace) -> int:
    tree = load_iqtree(args.index)
    queries = _random_queries(tree, args.random, args.seed)
    if args.shards is not None:
        return _batch_sharded(args, tree, queries)
    engine = tree.query_engine(
        pool=args.pool,
        workers=args.workers,
        decode_cache=args.decode_cache,
        backend=args.backend,
    )
    if args.radius is not None:
        result = engine.range_batch(queries, args.radius)
        kind = f"range r={args.radius}"
    else:
        result = engine.knn_batch(queries, k=args.k)
        kind = f"{args.k}-NN"
    stats = result.stats
    print(
        f"batch of {stats.n_queries} {kind} queries "
        f"({stats.workers} worker{'s' if stats.workers != 1 else ''}, "
        f"{engine.backend} backend): "
        f"{stats.io.elapsed * 1e3:.2f} ms simulated "
        f"({stats.mean_time * 1e3:.3f} ms/query), "
        f"{stats.io.seeks} seeks, {stats.pages_read} pages, "
        f"{stats.refinements} refinements, "
        f"{stats.bytes_transferred} bytes"
    )
    if stats.pool_hits or stats.pool_misses:
        print(
            f"buffer pool: {stats.pool_hits} hits / "
            f"{stats.pool_misses} misses "
            f"(hit rate {stats.pool_hit_rate:.2f})"
        )
    if stats.decoded_pages_reused:
        print(
            f"decoded-page cache: {stats.decoded_pages_reused} pages "
            f"reused, {stats.pages_read} fetched "
            f"(reuse rate {stats.decode_reuse_rate:.2f})"
        )
    if args.compare:
        seq = load_iqtree(args.index)
        before = seq.disk.stats.elapsed, seq.disk.stats.seeks
        for query in queries:
            seq.disk.park()
            if args.radius is not None:
                seq.range_query(query, args.radius)
            else:
                seq.nearest(query, k=args.k)
        elapsed = seq.disk.stats.elapsed - before[0]
        seeks = seq.disk.stats.seeks - before[1]
        speedup = elapsed / stats.io.elapsed if stats.io.elapsed else float("inf")
        print(
            f"sequential loop: {elapsed * 1e3:.2f} ms simulated, "
            f"{seeks} seeks ({speedup:.1f}x slower than batched)"
        )
    return 0


def _batch_sharded(args: argparse.Namespace, tree, queries) -> int:
    """Run the batch scatter-gather through a ShardRouter."""
    router = _router(
        args,
        tree,
        args.kill_shard or (),
        backend=args.backend,
        pool=args.pool,
        decode_cache=args.decode_cache,
    )
    if args.radius is not None:
        result = router.range_batch(queries, args.radius)
        kind = f"range r={args.radius}"
    else:
        result = router.knn_batch(queries, k=args.k)
        kind = f"{args.k}-NN"
    stats, routing = result.stats, result.routing
    alive = sum(1 for s in router.shards if s.alive)
    print(
        f"sharded batch of {stats.n_queries} {kind} queries over "
        f"{router.n_shards} shards ({alive} alive, "
        f"{stats.workers} worker{'s' if stats.workers != 1 else ''}, "
        f"{router.backend} backend): "
        f"{stats.io.elapsed * 1e3:.2f} ms simulated "
        f"({stats.mean_time * 1e3:.3f} ms/query), "
        f"{stats.io.seeks} seeks, {stats.pages_read} pages, "
        f"{stats.refinements} refinements"
    )
    mean_contacted = (
        float(routing.contacted.mean()) if len(result) else 0.0
    )
    print(
        f"routing: visit order {routing.visit_order}, "
        f"{mean_contacted:.2f} shards contacted/query, "
        f"{routing.skipped} shard visits pruned"
        + (f", dead shards {list(routing.dead)}" if routing.dead else "")
    )
    degraded = sum(1 for r in result if r.degraded)
    if degraded:
        print(
            f"degraded answers: {degraded}/{stats.n_queries} "
            f"({stats.lost_pages} lost-page reports with global "
            f"mindist/maxdist bounds)"
        )
    router.close()
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    tree = load_iqtree(args.index)
    bits, counts = np.unique(tree.page_bits, return_counts=True)
    sizes = tree.size_summary()
    est = tree.estimated_query_cost()
    print(f"{tree!r}")
    print(f"metric: {tree.metric.name}")
    print(f"fractal dimension (model): {tree.cost_model.fractal_dim:.2f}")
    print(
        f"page resolutions: {dict(zip(bits.tolist(), counts.tolist()))}"
    )
    print(
        f"blocks: directory={sizes['directory_blocks']} "
        f"quantized={sizes['quantized_blocks']} "
        f"exact={sizes['exact_blocks']}"
    )
    print(
        f"estimated query cost: {est.total * 1e3:.2f} ms "
        f"(T1={est.first_level * 1e3:.2f}, T2={est.second_level * 1e3:.2f}, "
        f"T3={est.refinement * 1e3:.2f})"
    )
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    report = verify_container(args.index, expect_codec=args.codec)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.experiments.validation import validate_cost_model

    tree = load_iqtree(args.index)
    rng = np.random.default_rng(args.seed)
    picks = rng.choice(
        tree.n_points, size=min(args.queries, tree.n_points), replace=False
    )
    queries = tree.points[picks]
    validation = validate_cost_model(tree, queries, k=args.k)
    print(validation.summary())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    obs.registry.reset()
    obs.drift.reset()
    obs.enable()
    burning = 0
    try:
        tree = load_iqtree(args.index)
        queries = _random_queries(tree, args.random, args.seed)
        engine = tree.query_engine(pool=args.pool)
        engine.knn_batch(queries, k=args.k)
        statuses = None
        if args.slo:
            monitor = obs.SLOMonitor(args.slo)
            statuses = monitor.evaluate()
            burning = sum(1 for s in statuses if not s.met)
        if args.format == "json":
            payload = obs.registry.collect()
            if args.drift:
                payload["drift"] = obs.drift.report().to_dict()
            print(json.dumps(payload, indent=2))
        else:
            sys.stdout.write(obs.registry.to_prometheus())
            if args.drift:
                print(f"\n{obs.drift.report().summary()}")
        if statuses is not None:
            for status in statuses:
                print(status.describe(), file=sys.stderr)
    finally:
        obs.disable()
    return 1 if burning else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    tree = load_iqtree(args.index)
    queries = _random_queries(tree, args.random, args.seed)
    router = None
    if args.shards is not None:
        router = _router(args, tree, backend=args.backend, pool=args.pool)
        target = router
        name = f"knn-batch k={args.k} shards={router.n_shards}"
    else:
        target = tree.query_engine(
            pool=args.pool, workers=args.workers, backend=args.backend
        )
        name = f"knn-batch k={args.k}"
    try:
        with obs.trace_query(target, name=name) as tracer:
            result = target.knn_batch(queries, k=args.k)
    finally:
        if router is not None:
            router.close()

    # The attribution invariant always gets checked; when the span tree
    # itself goes to stdout (export / json), the report moves to stderr
    # so the payload stays machine-readable.
    report = sys.stderr if (args.export or args.json) else sys.stdout
    root = tracer.root
    own = sum((s.own_io for s in root.walk()), start=obs.SpanIO())
    ledger = result.stats.io
    ok = (
        abs(own.elapsed - ledger.elapsed) < 1e-9
        and own.seeks == ledger.seeks
        and own.blocks_read == ledger.blocks_read
    )

    if args.export:
        payload = json.dumps(obs.export_trace(tracer, args.export), indent=2)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"wrote {args.export} trace to {args.out}", file=report)
        else:
            print(payload)
    elif args.json:
        print(tracer.to_json())
    else:
        print(tracer.render())
    print(
        f"\nspan own-I/O sum: {own.elapsed * 1e3:.2f} ms, "
        f"{own.seeks} seeks, {own.blocks_read} blocks",
        file=report,
    )
    print(
        f"IOStats ledger:   {ledger.elapsed * 1e3:.2f} ms, "
        f"{ledger.seeks} seeks, {ledger.blocks_read} blocks",
        file=report,
    )
    print(f"attribution {'consistent' if ok else 'MISMATCH'}", file=report)
    return 0 if ok else 1


def _cmd_flight(args: argparse.Namespace) -> int:
    tree = load_iqtree(args.index)
    queries = _random_queries(tree, args.random, args.seed)
    recorder = obs.FlightRecorder(
        capacity=args.capacity,
        slow_threshold=args.slow_threshold,
        top_slow=args.top_slow,
    )
    if args.shards is not None:
        router = _router(args, tree, args.kill_shard or ())
        router.use_flight_recorder(recorder)
        try:
            router.knn_batch(queries, k=args.k)
        finally:
            router.clear_flight_recorder()
            router.close()
    elif args.single:
        tree.use_flight_recorder(recorder)
        try:
            for query in queries:
                tree.nearest(query, k=args.k)
        finally:
            tree.clear_flight_recorder()
    else:
        tree.use_flight_recorder(recorder)
        engine = tree.query_engine(pool=args.pool, workers=args.workers)
        try:
            engine.knn_batch(queries, k=args.k)
        finally:
            tree.clear_flight_recorder()
    print(recorder.to_json())
    print(
        f"flight recorder: {recorder.recorded} recorded, "
        f"{recorder.dropped} dropped, {len(recorder)} resident "
        f"(capacity {recorder.capacity})",
        file=sys.stderr,
    )
    return 0


def _names(text: str, allowed, what: str) -> list[str]:
    """The comma-separated names of ``text``, each one of ``allowed``."""
    names = [s for s in text.split(",") if s]
    for name in names:
        if name not in allowed:
            raise SystemExit(f"unknown {what} {name!r}")
    return names


def _cmd_chaos(args: argparse.Namespace) -> int:
    tree = load_iqtree(args.index)
    queries = _random_queries(tree, args.random, args.seed)
    k = min(args.k, tree.n_points)
    if args.writes:
        report = chaos.write_matrix(
            args.index,
            queries,
            k,
            chaos.write_script(tree, args.ops, args.seed),
            checkpoint_every=args.checkpoint_every,
            group_commit=args.group_commit,
            backend=args.backend,
        )
    elif args.shards is not None:
        kill = [int(s) for s in args.kill_shards.split(",") if s != ""]
        with _router(args, tree, kill) as router:
            report = chaos.shard_kill(tree, router, queries, k)
    else:
        report = chaos.read_matrix(
            tree,
            queries,
            k,
            radius=args.radius,
            kinds=_names(args.kinds, chaos.KINDS, "fault kind"),
            levels=_names(args.levels, chaos.LEVELS, "level"),
            retries=args.retries,
        )
    for line in report.lines:
        print(line)
    print(f"chaos verdict: {report.verdict}")
    return 1 if report.failed else 0


def _workload_parser(sub, name, func, help, *, random, random_help, k):
    """A subcommand over a saved index that runs ``--random`` seeded
    queries (see :func:`_random_queries`) with ``--k`` neighbors."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument("index")
    parser.add_argument(
        "--random", type=int, default=random, help=random_help
    )
    parser.add_argument("--k", type=int, default=k)
    parser.add_argument("--seed", type=int, default=0)
    parser.set_defaults(func=func)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="IQ-tree index tool (build / query / info / validate)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build and save an index")
    build.add_argument("data", help="numpy .npy file of (n, d) points")
    build.add_argument("index", help="output index path")
    build.add_argument("--metric", default="euclidean")
    build.add_argument(
        "--no-optimize",
        action="store_true",
        help="store exact pages (skip the quantization optimizer)",
    )
    build.add_argument(
        "--bits",
        type=int,
        default=None,
        help="quantize every page at this resolution (skips the optimizer)",
    )
    build.add_argument(
        "--uniform-model",
        action="store_true",
        help="use the uniform cost model instead of estimating D_F",
    )
    build.add_argument(
        "--codec",
        choices=("auto", "grid", "pq", "ef"),
        default="grid",
        help="second-level page codec policy: grid (reference layout), "
        "pq (per-page k-means codebooks), ef (Elias-Fano compressed "
        "directory), or auto (cost-model pick per page + directory)",
    )
    build.set_defaults(func=_cmd_build)

    query = _workload_parser(
        sub, "query", _cmd_query, "run nearest-neighbor queries",
        random=1, random_help="number of random queries when --point "
        "is absent", k=1,
    )
    query.add_argument(
        "--point", help="comma-separated query coordinates"
    )

    batch = _workload_parser(
        sub, "batch", _cmd_batch,
        "run a query batch through the shared-buffer engine",
        random=10, random_help="number of random queries in the batch",
        k=1,
    )
    batch.add_argument(
        "--radius",
        type=float,
        default=None,
        help="run range queries with this radius instead of kNN",
    )
    batch.add_argument(
        "--pool",
        type=int,
        default=None,
        help="buffer pool capacity in blocks (default: no pool)",
    )
    batch.add_argument(
        "--workers",
        type=int,
        default=1,
        help="workers for the per-query phases (default: 1)",
    )
    batch.add_argument(
        "--backend",
        choices=("auto", "thread", "process"),
        default="auto",
        help="executor backend for --workers > 1: processes scale on "
        "real cores, threads avoid worker startup (default: auto = "
        "process when parallel); results are identical either way",
    )
    batch.add_argument(
        "--decode-cache",
        type=int,
        default=None,
        metavar="BYTES",
        help="cross-batch decoded-page cache budget in bytes "
        "(default: no decoded cache)",
    )
    batch.add_argument(
        "--compare",
        action="store_true",
        help="also run the same queries one by one and report the cost",
    )
    batch.add_argument(
        "--shards",
        type=int,
        default=None,
        help="serve scatter-gather over this many shards (partitioned "
        "from the first-level directory by MBR); --pool and "
        "--decode-cache become per-shard budgets",
    )
    batch.add_argument(
        "--kill-shard",
        type=int,
        action="append",
        metavar="INDEX",
        help="take a shard down before the batch (repeatable); its "
        "queries degrade to lost-page bounds instead of failing",
    )

    info = sub.add_parser("info", help="describe a saved index")
    info.add_argument("index")
    info.set_defaults(func=_cmd_info)

    fsck = sub.add_parser(
        "fsck",
        help="verify a container's integrity section by section",
    )
    fsck.add_argument("index")
    fsck.add_argument(
        "--codec",
        choices=("auto", "grid", "pq", "ef"),
        default=None,
        help="also assert the container's declared codec policy "
        "matches this build-time choice",
    )
    fsck.set_defaults(func=_cmd_fsck)

    validate = sub.add_parser(
        "validate", help="compare cost-model predictions with measurements"
    )
    validate.add_argument("index")
    validate.add_argument("--queries", type=int, default=10)
    validate.add_argument("--k", type=int, default=1)
    validate.add_argument("--seed", type=int, default=0)
    validate.set_defaults(func=_cmd_validate)

    stats = _workload_parser(
        sub, "stats", _cmd_stats,
        "run a query workload and dump the metrics registry",
        random=20, random_help="workload size", k=5,
    )
    stats.add_argument("--pool", type=int, default=None)
    stats.add_argument(
        "--format",
        choices=("prometheus", "json"),
        default="prometheus",
        help="output format (default: Prometheus text exposition)",
    )
    stats.add_argument(
        "--drift",
        action="store_true",
        help="append the cost-model drift report",
    )
    stats.add_argument(
        "--slo",
        action="append",
        metavar="SPEC",
        help="evaluate a service-level objective and export iq_slo_* "
        "gauges: '[name=]histogram:p99<=0.05' or "
        "'[name=]counter_a/counter_b<=0.01' (repeatable); exit code "
        "1 when any objective burns",
    )

    trace = _workload_parser(
        sub, "trace", _cmd_trace,
        "trace one query batch as a span tree with I/O attribution",
        random=1, random_help="queries in the batch", k=5,
    )
    trace.add_argument("--pool", type=int, default=None)
    trace.add_argument(
        "--json", action="store_true", help="emit the span tree as JSON"
    )
    trace.add_argument(
        "--export",
        choices=("chrome", "otlp"),
        default=None,
        help="emit the trace as Chrome trace-event JSON (load in "
        "Perfetto / chrome://tracing) or OTLP-style span JSON "
        "instead of the rendered tree",
    )
    trace.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the exported trace to this file instead of stdout",
    )
    trace.add_argument(
        "--shards",
        type=int,
        default=None,
        help="trace a sharded scatter-gather batch through a "
        "ShardRouter instead of a single engine",
    )
    trace.add_argument(
        "--workers",
        type=int,
        default=1,
        help="workers for the per-query phases (default: 1)",
    )
    trace.add_argument(
        "--backend",
        choices=("auto", "thread", "process"),
        default="auto",
        help="executor backend for --workers > 1; the stitched trace "
        "is identical either way",
    )

    flight = _workload_parser(
        sub, "flight", _cmd_flight,
        "run a workload with a flight recorder attached and dump the "
        "captured postmortem records as JSON",
        random=20, random_help="workload size", k=5,
    )
    flight.add_argument("--pool", type=int, default=None)
    flight.add_argument(
        "--capacity", type=int, default=64, help="ring-buffer capacity"
    )
    flight.add_argument(
        "--slow-threshold",
        type=float,
        default=None,
        metavar="SIM_SECONDS",
        help="absolute simulated-seconds bound for slow capture",
    )
    flight.add_argument(
        "--top-slow",
        type=int,
        default=8,
        help="capture queries among this many slowest seen so far "
        "(0 disables relative slow capture)",
    )
    flight.add_argument(
        "--workers",
        type=int,
        default=1,
        help="workers for the batch / sharded paths",
    )
    flight.add_argument(
        "--single",
        action="store_true",
        help="run single queries through tree.nearest instead of one "
        "engine batch (exact per-query costs)",
    )
    flight.add_argument(
        "--shards",
        type=int,
        default=None,
        help="run the batch through a ShardRouter with this many shards",
    )
    flight.add_argument(
        "--kill-shard",
        type=int,
        action="append",
        metavar="INDEX",
        help="take a shard down first (repeatable, with --shards); the "
        "degraded queries then show up in the recorder",
    )

    chaos_cmd = _workload_parser(
        sub, "chaos", _cmd_chaos,
        "inject read faults and verify the degraded-result contract",
        random=8, random_help="queries per schedule", k=3,
    )
    chaos_cmd.add_argument(
        "--radius",
        type=float,
        default=None,
        help="also run range queries with this radius",
    )
    chaos_cmd.add_argument(
        "--kinds",
        default=",".join(chaos.KINDS),
        help="comma-separated fault kinds (transient,persistent,corrupt)",
    )
    chaos_cmd.add_argument(
        "--levels",
        default=",".join(chaos.LEVELS),
        help="comma-separated victim levels (quantized,exact)",
    )
    chaos_cmd.add_argument(
        "--retries", type=int, default=3, help="retry budget per read"
    )
    chaos_cmd.add_argument(
        "--shards",
        type=int,
        default=None,
        help="run the shard-kill matrix instead of block faults: "
        "split into this many shards and verify degraded answers "
        "contain the truth",
    )
    chaos_cmd.add_argument(
        "--kill-shards",
        default="0",
        metavar="I,J,...",
        help="comma-separated shard indices to kill (default: 0); "
        "only used with --shards",
    )
    chaos_cmd.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker count of the sharded run (only with --shards)",
    )
    chaos_cmd.add_argument(
        "--writes",
        action="store_true",
        help="run the write-path matrix instead of read faults: crash "
        "the journal/checkpoint protocol at every boundary, verify "
        "recovery is bit-identical to a crash-free replay of the "
        "acknowledged ops, then race background re-quantization "
        "against query batches",
    )
    chaos_cmd.add_argument(
        "--ops",
        type=int,
        default=40,
        help="scripted insert/delete operations (only with --writes)",
    )
    chaos_cmd.add_argument(
        "--checkpoint-every",
        type=int,
        default=10,
        help="checkpoint cadence in the write script (only with --writes)",
    )
    chaos_cmd.add_argument(
        "--group-commit",
        type=int,
        default=1,
        help="WAL group-commit window: acknowledge writes only at every "
        "Nth fsync batch (only with --writes; 1 = fsync per append)",
    )
    chaos_cmd.add_argument(
        "--backend",
        default="thread",
        choices=("thread", "process"),
        help="worker backend of the concurrent-maintenance phase "
        "(only with --writes)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
