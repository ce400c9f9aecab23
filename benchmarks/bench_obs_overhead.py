"""Observability overhead -- disabled instrumentation must be ~free.

The telemetry hooks threaded through the storage and engine layers all
guard on one flag (``REGISTRY.enabled``) or one list-truthiness check
(the ambient tracing span).  This bench measures what those guards cost
when nobody is observing: the same kNN batch workload is timed once
with the instrumented code as shipped (registry disabled) and once with
the hottest hooks monkeypatched back to pristine, hook-free versions.

The relative overhead must stay under ``IQ_OBS_OVERHEAD_THRESHOLD``
(default 0.05, i.e. 5%).  CI runs this in smoke mode with a laxer
threshold because shared runners time noisily; locally the default
threshold holds with plenty of margin.  Min-of-N timing is used on both
sides to suppress scheduler noise.

For scale, the enabled-registry cost is also reported (not asserted):
that is the price of actually collecting metrics, not of shipping the
hooks.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import scaled
from repro import obs
from repro.core.tree import IQTree
from repro.datasets import make_workload, uniform
from repro.engine.engine import QueryEngine
from repro.experiments.harness import experiment_disk
from repro.obs.tracing import _NULL_SPAN
from repro.storage.cache import BufferPool
from repro.storage.disk import SimulatedDisk

REPS = 5
BATCHES = 6
BATCH_SIZE = 16
K = 5


def _threshold() -> float:
    return float(os.environ.get("IQ_OBS_OVERHEAD_THRESHOLD", "0.05"))


@pytest.fixture(scope="module")
def workload():
    data, queries = make_workload(
        uniform,
        n=scaled(8_000),
        n_queries=BATCHES * BATCH_SIZE,
        seed=11,
        dim=8,
    )
    tree = IQTree.build(data, disk=experiment_disk())
    return tree, queries


def _run(tree, queries) -> None:
    engine = QueryEngine(tree, pool=BufferPool(128))
    for i in range(BATCHES):
        batch = queries[i * BATCH_SIZE : (i + 1) * BATCH_SIZE]
        engine.knn_batch(batch, k=K)


def _time(tree, queries) -> float:
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        _run(tree, queries)
        best = min(best, time.perf_counter() - t0)
    return best


# ----------------------------------------------------------------------
# Pristine (hook-free) copies of the hottest instrumented code paths.
# They mirror the shipped implementations minus every observability
# line, giving the "never instrumented" baseline to compare against.
# ----------------------------------------------------------------------
def _pristine_read_blocks(self, start, count, overread=0):
    if count <= 0:
        return
    with self._lock:
        if start != self._head:
            self.stats.add_seek(self.model)
        self.stats.add_transfer(self.model, count, overread=overread)
        self._head = start + count


def _pristine_lookup(self, address):
    with self._lock:
        hit = address in self._resident
        if hit:
            self._resident.move_to_end(address)
            self.hits += 1
        else:
            self.misses += 1
    return hit


def _pristine_record(self, hits=0, misses=0):
    with self._lock:
        self.hits += hits
        self.misses += misses


def _pristine_admit(self, address):
    if self.capacity == 0:
        return
    with self._lock:
        if address in self._resident:
            self._resident.move_to_end(address)
            return
        if len(self._resident) >= self.capacity:
            self._resident.popitem(last=False)
        self._resident[address] = None


def _pristine_span(name, disk=None, **attrs):
    return _NULL_SPAN


def _patch_pristine(monkeypatch) -> None:
    import repro.engine.decode as decode_mod
    import repro.engine.engine as engine_mod
    import repro.engine.sharding as sharding_mod

    monkeypatch.setattr(
        SimulatedDisk, "read_blocks", _pristine_read_blocks
    )
    monkeypatch.setattr(BufferPool, "lookup", _pristine_lookup)
    monkeypatch.setattr(BufferPool, "record", _pristine_record)
    monkeypatch.setattr(BufferPool, "admit", _pristine_admit)
    monkeypatch.setattr(decode_mod, "obs_span", _pristine_span)
    monkeypatch.setattr(engine_mod, "obs_span", _pristine_span)
    monkeypatch.setattr(sharding_mod, "obs_span", _pristine_span)
    monkeypatch.setattr(
        QueryEngine, "_observe_batch", lambda self, *a, **kw: None
    )


def test_disabled_instrumentation_overhead(workload, monkeypatch):
    tree, queries = workload
    assert not obs.registry.enabled

    instrumented = _time(tree, queries)
    with monkeypatch.context() as patched:
        _patch_pristine(patched)
        pristine = _time(tree, queries)

    overhead = (instrumented - pristine) / pristine
    threshold = _threshold()
    print(
        f"\ndisabled-instrumentation overhead: {overhead * 100:+.2f}% "
        f"(pristine {pristine * 1e3:.1f} ms, "
        f"instrumented {instrumented * 1e3:.1f} ms, "
        f"threshold {threshold * 100:.0f}%)"
    )
    assert overhead < threshold, (
        f"disabled instrumentation costs {overhead * 100:.1f}% "
        f"(> {threshold * 100:.0f}%); a hook is missing its "
        "REGISTRY.enabled guard"
    )


def test_disabled_overhead_parallel_sharded(workload, monkeypatch):
    """Tracing-disabled overhead on the full distributed serving path.

    The tentpole threads span capture through the worker kernels
    (``task.trace`` guards), the coordinator stitch points, and the
    router's per-shard-visit spans.  All of it must stay behind the
    same one-check guards as the serial path: this times the identical
    sharded kNN workload (4 shards, 4 process workers) as shipped vs.
    with every observability seam monkeypatched out of the coordinator.
    Worker processes keep their ``task.trace`` branch either way -- the
    flag rides the task object, so the disabled cost there is one
    attribute test per query.
    """
    from repro.engine import ShardRouter

    tree, queries = workload
    assert not obs.registry.enabled
    router = ShardRouter(
        tree, shards=4, workers=4, backend="process", pool=128
    )

    def _run_router() -> None:
        for i in range(BATCHES):
            batch = queries[i * BATCH_SIZE : (i + 1) * BATCH_SIZE]
            router.knn_batch(batch, k=K)

    def _time_router() -> float:
        best = float("inf")
        for _ in range(REPS):
            t0 = time.perf_counter()
            _run_router()
            best = min(best, time.perf_counter() - t0)
        return best

    try:
        instrumented = _time_router()
        with monkeypatch.context() as patched:
            _patch_pristine(patched)
            pristine = _time_router()
    finally:
        router.close()

    overhead = (instrumented - pristine) / pristine
    threshold = _threshold()
    print(
        f"\ndisabled overhead (4 shards, 4 process workers): "
        f"{overhead * 100:+.2f}% "
        f"(pristine {pristine * 1e3:.1f} ms, "
        f"instrumented {instrumented * 1e3:.1f} ms, "
        f"threshold {threshold * 100:.0f}%)"
    )
    assert overhead < threshold, (
        f"disabled tracing costs {overhead * 100:.1f}% on the sharded "
        f"process-backend path (> {threshold * 100:.0f}%); a span or "
        "stitch seam is missing its is-tracing-enabled guard"
    )


def test_enabled_registry_reported_not_asserted(workload):
    """Informational: what turning the registry on actually costs."""
    tree, queries = workload
    disabled = _time(tree, queries)
    obs.registry.reset()
    obs.enable()
    try:
        enabled = _time(tree, queries)
    finally:
        obs.disable()
        obs.registry.reset()
        obs.drift.reset()
    print(
        f"\nenabled-registry cost: "
        f"{(enabled - disabled) / disabled * 100:+.2f}% "
        f"(disabled {disabled * 1e3:.1f} ms, "
        f"enabled {enabled * 1e3:.1f} ms)"
    )
    assert enabled > 0  # smoke: the instrumented run completed


def test_null_span_is_shared_and_free(workload):
    """The ambient span helper allocates nothing when untraced."""
    from repro.obs.tracing import span

    assert span("a") is span("b") is _NULL_SPAN
