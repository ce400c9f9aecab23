"""Query tracing: span nesting, exact simulated-I/O attribution,
cross-worker span stitching, exporters, and the no-op fast path when
nobody is tracing."""

from __future__ import annotations

import json
import pickle

import pytest

import repro.engine.engine as engine_mod
from repro.core.tree import IQTree
from repro.exceptions import SearchError
from repro.obs.export import chrome_trace, export_trace, otlp_spans
from repro.obs.tracing import (
    Span,
    SpanIO,
    SpanRecord,
    Tracer,
    _NULL_SPAN,
    active_tracer,
    ledger_state,
    span,
    trace_query,
)
from repro.storage.disk import DiskModel, IOStats, SimulatedDisk


@pytest.fixture
def tree(rng):
    disk = SimulatedDisk(
        DiskModel(t_seek=0.010, t_xfer=0.001, block_size=512)
    )
    return IQTree.build(rng.random((800, 6)), disk=disk)


class TestSpanIO:
    def test_arithmetic(self):
        a = SpanIO(seeks=2, blocks_read=5, blocks_overread=1, elapsed=0.5)
        b = SpanIO(seeks=1, blocks_read=2, blocks_overread=0, elapsed=0.2)
        assert (a - b).seeks == 1
        assert (a + b).blocks_read == 7
        assert (a - b).elapsed == pytest.approx(0.3)


class TestTracerStructure:
    def test_nesting(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("a"):
                with tracer.span("a1"):
                    pass
            with tracer.span("b"):
                pass
        root = tracer.root
        assert [c.name for c in root.children] == ["a", "b"]
        assert root.children[0].children[0].name == "a1"
        assert root.find("a1") is root.children[0].children[0]
        assert root.find("missing") is None

    def test_wall_clock_recorded(self):
        tracer = Tracer()
        with tracer.span("root"):
            pass
        assert tracer.root.wall_seconds >= 0.0

    def test_json_round_trip(self):
        tracer = Tracer()
        with tracer.span("root", queries=3):
            with tracer.span("child"):
                pass
        payload = json.loads(tracer.to_json())
        assert payload["spans"][0]["name"] == "root"
        assert payload["spans"][0]["attrs"] == {"queries": 3}
        assert payload["spans"][0]["children"][0]["name"] == "child"

    def test_render_lists_all_spans(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        rendered = tracer.render()
        assert "root" in rendered and "child" in rendered


class TestAmbientSpan:
    def test_null_span_outside_trace_query(self):
        assert active_tracer() is None
        assert span("anything") is _NULL_SPAN
        with span("anything") as node:
            assert node is None

    def test_active_inside_trace_query(self, tree):
        with trace_query(tree) as tracer:
            assert active_tracer() is tracer
            with span("inner") as node:
                assert isinstance(node, Span)
        assert active_tracer() is None
        assert tracer.root.children[0].name == "inner"

    def test_tracer_popped_on_error(self, tree):
        with pytest.raises(RuntimeError):
            with trace_query(tree):
                raise RuntimeError("boom")
        assert active_tracer() is None


class TestIOAttribution:
    def test_engine_spans_sum_to_batch_total(self, tree, rng):
        """Acceptance: per-span own I/O sums to the IOStats ledger."""
        engine = tree.query_engine()
        queries = rng.random((4, 6))
        with trace_query(engine) as tracer:
            batch = engine.knn_batch(queries, k=3)
        root = tracer.root
        own = SpanIO()
        for node in root.walk():
            own = own + node.own_io
        ledger = batch.stats.io
        assert own.seeks == ledger.seeks == root.io.seeks
        assert own.blocks_read == ledger.blocks_read
        assert own.blocks_overread == ledger.blocks_overread
        assert own.elapsed == pytest.approx(ledger.elapsed, abs=1e-12)

    def test_engine_emits_expected_span_chain(self, tree, rng):
        engine = tree.query_engine()
        with trace_query(engine) as tracer:
            engine.knn_batch(rng.random((2, 6)), k=2)
        names = [c.name for c in tracer.root.children]
        assert names[:2] == ["directory-scan", "schedule"]
        assert "refine" in names
        # Cold tree: the candidate pages must actually be fetched.
        assert "fetch" in names and "decode" in names

    def test_directory_scan_io_positive(self, tree, rng):
        engine = tree.query_engine()
        with trace_query(engine) as tracer:
            engine.knn_batch(rng.random((2, 6)), k=2)
        scan = tracer.root.find("directory-scan")
        assert scan.io.blocks_read >= 1

    def test_range_batch_traces_too(self, tree, rng):
        engine = tree.query_engine()
        with trace_query(engine) as tracer:
            batch = engine.range_batch(rng.random((3, 6)), radius=0.4)
        own = SpanIO()
        for node in tracer.root.walk():
            own = own + node.own_io
        assert own.elapsed == pytest.approx(
            batch.stats.io.elapsed, abs=1e-12
        )

    def test_disk_none_records_zero_io(self):
        with trace_query(None) as tracer:
            with span("inner"):
                pass
        assert tracer.root.io == SpanIO()

    def test_untraced_run_unaffected(self, tree, rng):
        """Running without trace_query must not create spans anywhere."""
        engine = tree.query_engine()
        engine.knn_batch(rng.random((2, 6)), k=2)
        assert active_tracer() is None


class TestSimulatedClock:
    """The deterministic second clock: sim_start / sim_seconds."""

    def test_sim_seconds_equals_io_elapsed(self, tree, rng):
        engine = tree.query_engine()
        with trace_query(engine) as tracer:
            engine.knn_batch(rng.random((3, 6)), k=2)
        for node in tracer.root.walk():
            assert node.sim_seconds == pytest.approx(
                node.io.elapsed, abs=1e-15
            )

    def test_child_windows_nest_inside_parent(self, tree, rng):
        engine = tree.query_engine()
        with trace_query(engine) as tracer:
            engine.knn_batch(rng.random((3, 6)), k=2)
        for node in tracer.root.walk():
            for child in node.children:
                assert child.sim_start >= node.sim_start - 1e-12
                assert (
                    child.sim_start + child.sim_seconds
                    <= node.sim_start + node.sim_seconds + 1e-9
                )

    def test_sim_dict_excludes_wall_clock(self, tree, rng):
        engine = tree.query_engine()
        with trace_query(engine) as tracer:
            engine.knn_batch(rng.random((2, 6)), k=2)
        for node in tracer.root.walk():
            payload = node.sim_dict()
            assert "wall_seconds" not in payload
            assert payload["sim_seconds"] == node.sim_seconds

    def test_sim_dict_bit_identical_across_runs(self):
        """The deterministic projection of two identical runs matches
        byte for byte (the wall clock never would)."""
        dumps = []
        for _ in range(2):
            rng = __import__("numpy").random.default_rng(7)
            disk = SimulatedDisk(
                DiskModel(t_seek=0.010, t_xfer=0.001, block_size=512)
            )
            tree = IQTree.build(rng.random((600, 6)), disk=disk)
            engine = tree.query_engine()
            with trace_query(engine) as tracer:
                engine.knn_batch(rng.random((4, 6)), k=3)
            dumps.append(
                json.dumps(tracer.root.sim_dict(), sort_keys=True)
            )
        assert dumps[0] == dumps[1]


class TestSpanRecord:
    """The picklable worker-to-coordinator span carrier."""

    def test_capture_windows_the_ledger_delta(self):
        ledger = IOStats()
        before = ledger_state(ledger)
        ledger.seeks = 2
        ledger.blocks_read = 7
        ledger.elapsed = 0.5
        rec = SpanRecord.capture("unit", ledger, before, query=3)
        assert rec.name == "unit"
        assert rec.attrs == (("query", 3),)
        assert (rec.seeks, rec.blocks_read) == (2, 7)
        assert rec.sim_start == 0.0
        assert rec.sim_seconds == pytest.approx(0.5)

    def test_capture_none_ledger_is_all_zero(self):
        rec = SpanRecord.capture("idle", None, ledger_state(None))
        assert rec.sim_seconds == 0.0
        assert rec.seeks == rec.blocks_read == 0

    def test_records_pickle_round_trip(self):
        rec = SpanRecord(
            name="plan-query",
            attrs=(("query", 1),),
            sim_seconds=0.25,
            children=(SpanRecord(name="inner"),),
        )
        clone = pickle.loads(pickle.dumps(rec))
        assert clone == rec
        assert clone.children[0].name == "inner"

    def test_stitch_grafts_under_the_open_span(self):
        disk = SimulatedDisk(
            DiskModel(t_seek=0.010, t_xfer=0.001, block_size=512)
        )
        tracer = Tracer(disk)
        records = [
            SpanRecord(name="plan-query", attrs=(("query", 0),)),
            SpanRecord(name="plan-query", attrs=(("query", 1),)),
        ]
        with tracer.span("refine"):
            disk.read_blocks(0, 3)
            base = disk.stats.elapsed
            spans = tracer.stitch(records)
        refine = tracer.root
        assert refine.name == "refine"
        assert [c.name for c in refine.children] == [
            "plan-query",
            "plan-query",
        ]
        assert refine.children[0].attrs == {"query": 0}
        # Re-based onto the coordinator clock at stitch time.
        assert spans[0].sim_start == pytest.approx(base)
        assert spans[0].wall_seconds == 0.0

    def test_stitch_worker_delta_becomes_span_io(self):
        tracer = Tracer()
        rec = SpanRecord(
            name="assemble-query",
            sim_start=0.0,
            sim_seconds=0.125,
            seeks=1,
            blocks_read=4,
        )
        with tracer.span("root"):
            (node,) = tracer.stitch([rec])
        assert node.io == SpanIO(
            seeks=1, blocks_read=4, blocks_overread=0, elapsed=0.125
        )
        assert node.sim_seconds == 0.125

    def test_stitch_without_open_span_adds_roots(self):
        tracer = Tracer()
        tracer.stitch([SpanRecord(name="orphan")])
        assert [r.name for r in tracer.roots] == ["orphan"]


class TestExporters:
    def make_trace(self, tree, rng):
        engine = tree.query_engine()
        with trace_query(engine, name="knn-batch") as tracer:
            engine.knn_batch(rng.random((3, 6)), k=2)
        return tracer

    def test_chrome_events_are_matched_and_monotone(self, tree, rng):
        tracer = self.make_trace(tree, rng)
        events = tracer.root.to_events()
        last_ts = float("-inf")
        stack = []
        for event in events:
            assert event["ts"] >= last_ts
            last_ts = event["ts"]
            if event["ph"] == "B":
                stack.append(event["name"])
            else:
                assert event["ph"] == "E"
                assert stack.pop() == event["name"]
        assert stack == []

    def test_chrome_trace_shape(self, tree, rng):
        tracer = self.make_trace(tree, rng)
        payload = chrome_trace(tracer)
        assert payload["displayTimeUnit"] == "ms"
        assert payload["traceEvents"]
        json.dumps(payload)  # must be serializable as-is

    def test_begin_events_carry_own_io(self, tree, rng):
        tracer = self.make_trace(tree, rng)
        begins = [
            e for e in tracer.root.to_events() if e["ph"] == "B"
        ]
        for event in begins:
            assert "own_seeks" in event["args"]
            assert "own_blocks" in event["args"]
        total = sum(e["args"]["own_blocks"] for e in begins)
        assert total == tracer.root.io.blocks_read

    def test_otlp_shape_and_deterministic_ids(self, tree, rng):
        tracer = self.make_trace(tree, rng)
        payload = otlp_spans(tracer)
        spans = payload["resourceSpans"][0]["scopeSpans"][0]["spans"]
        assert spans[0]["name"] == "knn-batch"
        ids = [s["spanId"] for s in spans]
        assert ids == [f"{i + 1:016x}" for i in range(len(spans))]
        assert len({s["traceId"] for s in spans}) == 1
        # Children reference their parent by id.
        by_id = {s["spanId"]: s for s in spans}
        for s in spans[1:]:
            assert s["parentSpanId"] in by_id
        json.dumps(payload)

    def test_export_trace_dispatch(self, tree, rng):
        tracer = self.make_trace(tree, rng)
        assert export_trace(tracer, "chrome") == chrome_trace(tracer)
        assert export_trace(tracer, "otlp") == otlp_spans(tracer)
        with pytest.raises(ValueError):
            export_trace(tracer, "jaeger")


class TestDistributedAttribution:
    """Worker-side spans: stitched in, exact, and loud when missing."""

    def own_sum(self, tracer) -> SpanIO:
        own = SpanIO()
        for node in tracer.root.walk():
            own = own + node.own_io
        return own

    def test_own_io_invariant_under_process_backend(self, tree, rng):
        engine = tree.query_engine(workers=4, backend="process")
        queries = rng.random((8, 6))
        try:
            with trace_query(engine) as tracer:
                batch = engine.knn_batch(queries, k=3)
        finally:
            engine.close()
        own = self.own_sum(tracer)
        ledger = batch.stats.io
        assert own.seeks == ledger.seeks == tracer.root.io.seeks
        assert own.blocks_read == ledger.blocks_read
        assert own.elapsed == pytest.approx(ledger.elapsed, abs=1e-12)

    def test_worker_spans_stitched_into_refine(self, tree, rng):
        engine = tree.query_engine(workers=2, backend="thread")
        queries = rng.random((5, 6))
        try:
            with trace_query(engine) as tracer:
                engine.knn_batch(queries, k=3)
        finally:
            engine.close()
        refine = tracer.root.find("refine")
        plans = refine.find_all("plan-query")
        assembles = refine.find_all("assemble-query")
        assert len(plans) == len(assembles) == queries.shape[0]
        # Stitched in query order regardless of worker sharding.
        assert [p.attrs["query"] for p in plans] == list(range(5))
        assert [a.attrs["query"] for a in assembles] == list(range(5))
        # Plans land before the exact fetch they feed.
        names = [c.name for c in refine.children]
        assert names.index("fetch-exact") > names.index("plan-query")

    def test_plan_spans_report_bounded_rows(self, rng):
        """kNN and range plan-query spans carry ``bounded``, the rows
        that reached the exact pass: at most the candidate points, at
        least the refinements, and fewer than the candidates once the
        abandoning pass drops rows (uniform 16-d quantized pages)."""
        disk = SimulatedDisk(
            DiskModel(t_seek=0.010, t_xfer=0.001, block_size=512)
        )
        tree = IQTree.build(
            rng.random((3000, 16)), disk=disk, optimize=False,
            fixed_bits=8,
        )
        engine = tree.query_engine(workers=2, backend="thread")
        queries = rng.random((4, 16))
        try:
            with trace_query(engine) as tracer:
                engine.knn_batch(queries, k=5)
                engine.range_batch(queries, radius=0.9)
        finally:
            engine.close()
        plans = tracer.root.find_all("plan-query")
        assert len(plans) == 2 * len(queries)
        for plan in plans:
            attrs = plan.attrs
            assert attrs["refine"] <= attrs["bounded"] <= attrs["points"]
        knn_plans = plans[: len(queries)]
        assert all(p.attrs["bounded"] < p.attrs["points"] for p in knn_plans)

    def test_trace_identical_across_workers_and_backends(self, rng):
        """Acceptance: stitched trees are bit-identical for any
        worker count and backend (sim projection, not wall clock)."""
        points = rng.random((800, 6))
        queries = rng.random((6, 6))
        dumps = []
        for workers, backend in [
            (1, "thread"),
            (2, "thread"),
            (4, "process"),
        ]:
            disk = SimulatedDisk(
                DiskModel(t_seek=0.010, t_xfer=0.001, block_size=512)
            )
            tree = IQTree.build(points, disk=disk)
            engine = tree.query_engine(
                workers=workers, backend=backend
            )
            try:
                with trace_query(engine, name="knn-batch") as tracer:
                    engine.knn_batch(queries, k=3)
            finally:
                engine.close()
            dumps.append(
                json.dumps(tracer.root.sim_dict(), sort_keys=True)
            )
        assert dumps[0] == dumps[1] == dumps[2]

    def test_own_io_invariant_under_fault_injection(self, tree, rng):
        from repro.storage.runtime_faults import ReadFaultInjector

        inj = ReadFaultInjector()
        inj.fail_always(tree._quant_file.extent_start)
        tree.disk.install_fault_injector(inj)
        tree.use_fault_tolerance()
        engine = tree.query_engine(workers=2, backend="thread")
        try:
            with trace_query(engine) as tracer:
                batch = engine.knn_batch(rng.random((6, 6)), k=3)
        finally:
            engine.close()
        assert batch.stats.degraded
        own = self.own_sum(tracer)
        ledger = batch.stats.io
        assert own.seeks == ledger.seeks
        assert own.blocks_read == ledger.blocks_read
        assert own.elapsed == pytest.approx(ledger.elapsed, abs=1e-12)

    def test_missing_worker_spans_raise_under_pytest(
        self, tree, rng, monkeypatch
    ):
        """Satellite: a kernel that drops its span records while a
        trace is active must fail loudly, not silently thin the tree.

        The stripping wrapper is a local (unpicklable), so this runs
        on the default inline/thread path -- which is exactly where
        the engine-side stitch check lives.
        """
        real = engine_mod.plan_shard

        def stripping(task, indices, ledger):
            plans = real(task, indices, ledger)
            for plan in plans:
                plan.pop("spans", None)
            return plans

        monkeypatch.setattr(engine_mod, "plan_shard", stripping)
        engine = tree.query_engine()
        with trace_query(engine):
            with pytest.raises(SearchError, match="span"):
                engine.knn_batch(rng.random((2, 6)), k=2)

    def test_missing_worker_spans_raise_on_range_batches(
        self, tree, rng, monkeypatch
    ):
        """The same stitch check guards range batches: both kinds run
        the one plan kernel through the one pipeline."""
        real = engine_mod.plan_shard

        def stripping(task, indices, ledger):
            plans = real(task, indices, ledger)
            for plan in plans:
                plan.pop("spans", None)
            return plans

        monkeypatch.setattr(engine_mod, "plan_shard", stripping)
        engine = tree.query_engine()
        with trace_query(engine):
            with pytest.raises(SearchError, match="span"):
                engine.range_batch(rng.random((2, 6)), 0.3)

    def test_no_tracer_means_no_records_requested(self, tree, rng):
        """Workers only pay for span capture when a trace is active."""
        engine = tree.query_engine()
        batch = engine.knn_batch(rng.random((2, 6)), k=2)
        assert batch.stats.n_queries == 2  # and no SearchError raised
