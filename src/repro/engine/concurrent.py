"""Deterministic worker-pool execution for the batch query engine.

:class:`WorkerPool` shards a batch's per-query work across workers.  The
engine keeps every *simulated-I/O charge* on its coordinator thread (the
directory scan, the batched page fetch, the batched third-level fetch),
so workers only run pure CPU work -- the per-query kernels of
:mod:`repro.engine.kernels` over read-only precomputed state.  That
division of labor is what makes the parallel engine *deterministic*:
the simulated-cost ledger and every observability counter come out
bit-identical for any worker count and either backend, which the
equivalence tests pin.

Two backends execute the shards:

``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  Zero shipping
    cost (shards see the coordinator's arrays by reference), but pure
    Python portions of the kernels serialize on the GIL, so wall-clock
    scaling is limited to the numpy regions that release it.

``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor` (``fork`` start
    method when the platform offers it).  Task payloads are pickled
    once per phase on the coordinator; large arrays travel zero-copy
    through a :class:`~repro.engine.shm.SharedArena` when the engine
    froze them.  It was built to turn simulated speedup into wall-clock
    speedup, but on a 2-core host two process workers took 192 ms per
    64-query kNN batch against 180 ms on two threads
    (``docs/performance.md``, "Backend selection").  It requires the mapped
    function (and task) to be picklable -- module-level kernels, plain
    data.

``auto`` (the default) resolves to ``process`` for ``workers > 1`` and
to the zero-overhead inline path for ``workers=1``; if the platform
cannot start a process pool, it degrades to ``thread`` (identical
results, reduced wall-clock scaling).

Sharding is contiguous and balanced: ``q`` items over ``w`` workers
become at most ``w`` runs of ``ceil``/``floor`` sizes in original order.
Each shard gets its own :class:`~repro.storage.disk.IOStats` ledger;
after the barrier the shard results are concatenated in shard order and
the ledgers are merged in shard order through
:meth:`~repro.storage.disk.IOStats.merged_with`, so even a worker
function that *does* charge its ledger aggregates reproducibly.  When
several shards fail, the first shard's exception (in shard order) is
raised and every other shard's failure is attached to it as a
``__notes__`` entry -- concurrent failures never vanish.

Tracing rides the same channel: when a ``trace_query`` block is
active, the engine flags its task objects and the kernels return
compact picklable :class:`~repro.obs.tracing.SpanRecord` lists *by
value* inside their ordinary results -- the pool itself carries no
tracing state, no ambient context crosses the process boundary, and
the coordinator stitches the records into the live span tree in query
order after the barrier.
"""

from __future__ import annotations

import multiprocessing
import pickle
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from typing import Callable, Sequence, TypeVar

from repro.exceptions import SearchError
from repro.storage.disk import IOStats

__all__ = ["WorkerPool"]

T = TypeVar("T")

_BACKENDS = ("auto", "thread", "process")

#: sentinel distinguishing "no task payload" from a None task
_NO_TASK = object()


def _process_shard(blob: bytes, shard) -> tuple[list, IOStats]:
    """Worker-process entry point: run one shard of a pre-pickled task.

    The ``(fn, task, has_task)`` payload is pickled *once* on the
    coordinator and shipped as bytes, so submitting W shards costs one
    serialization, not W.  The shard gets a fresh ledger that travels
    back with the results (cross-process mutation cannot propagate).
    """
    fn, task, has_task = pickle.loads(blob)
    ledger = IOStats()
    if has_task:
        out = fn(task, shard, ledger)
    else:
        out = fn(shard, ledger)
    return out, ledger


class WorkerPool:
    """A fixed-size worker pool with deterministic sharded mapping.

    Parameters
    ----------
    workers:
        Number of workers (at least 1).  With one worker every shard
        runs inline on the calling thread -- no executor, no thread or
        process hop -- so ``workers=1`` is exactly the serial engine.
    backend:
        ``"thread"``, ``"process"``, or ``"auto"`` (default).  See the
        module docstring; any backend yields bit-identical results.

    The underlying executor is created lazily on first parallel use and
    reused across batches; :meth:`close` (or use as a context manager)
    shuts it down.
    """

    def __init__(self, workers: int = 1, backend: str = "auto"):
        if workers < 1:
            raise SearchError("workers must be at least 1")
        if backend not in _BACKENDS:
            raise SearchError(
                f"backend must be one of {_BACKENDS}, got {backend!r}"
            )
        self.workers = int(workers)
        self.backend = (
            "process" if backend == "auto" and self.workers > 1
            else "thread" if backend == "auto"
            else backend
        )
        self._executor: Executor | None = None

    # ------------------------------------------------------------------
    # Sharded mapping
    # ------------------------------------------------------------------
    def shard(self, items: Sequence[T]) -> list[Sequence[T]]:
        """Split ``items`` into at most ``workers`` contiguous runs.

        Sizes differ by at most one and earlier shards get the extra
        element, so the split is a pure function of ``(len(items),
        workers)`` -- the same inputs always produce the same shards.
        """
        n = len(items)
        n_shards = min(self.workers, n)
        if n_shards <= 1:
            return [items] if n else []
        base, extra = divmod(n, n_shards)
        shards = []
        start = 0
        for s in range(n_shards):
            size = base + (1 if s < extra else 0)
            shards.append(items[start : start + size])
            start += size
        return shards

    def map_sharded(
        self,
        fn: Callable,
        items: Sequence[T],
        task=_NO_TASK,
    ) -> tuple[list, IOStats]:
        """Run ``fn`` over contiguous shards of ``items``.

        Without ``task`` the worker signature is ``fn(shard, ledger)``;
        with one it is ``fn(task, shard, ledger)`` where ``task`` is an
        arbitrary read-only payload shared by every shard (the process
        backend pickles it exactly once).  Returns ``(results, merged)``
        where ``results`` is the concatenation of every shard's returned
        list *in shard order* (i.e. original item order) and ``merged``
        is the shard ledgers merged in the same order.  Worker
        exceptions propagate after all shards have settled: the first
        failing shard's exception is raised, with every other shard's
        failure recorded on it via ``add_note`` -- no shard failure is
        silently dropped.
        """
        shards = self.shard(list(items))
        has_task = task is not _NO_TASK
        if len(shards) <= 1:
            ledgers = [IOStats() for _ in shards]
            if has_task:
                outputs = [
                    fn(task, s, led) for s, led in zip(shards, ledgers)
                ]
            else:
                outputs = [fn(s, led) for s, led in zip(shards, ledgers)]
        elif self.backend == "process":
            outputs, ledgers = self._run_process(fn, task, has_task, shards)
        else:
            ledgers = [IOStats() for _ in shards]
            executor = self._ensure_executor()
            if has_task:
                futures = [
                    executor.submit(fn, task, s, led)
                    for s, led in zip(shards, ledgers)
                ]
            else:
                futures = [
                    executor.submit(fn, s, led)
                    for s, led in zip(shards, ledgers)
                ]
            outputs = self._settle(futures)
        merged = IOStats()
        for ledger in ledgers:
            merged = merged.merged_with(ledger)
        return [r for out in outputs for r in out], merged

    def _run_process(
        self, fn, task, has_task, shards
    ) -> tuple[list, list[IOStats]]:
        """Ship shards to the process pool; returns (outputs, ledgers)."""
        try:
            blob = pickle.dumps(
                (fn, None if not has_task else task, has_task),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except Exception as exc:
            raise SearchError(
                "the process backend needs a picklable worker function "
                "and task (module-level kernels over plain arrays); "
                f"got: {exc}"
            ) from exc
        # A thread executor may come back when process pools are
        # unavailable on the platform; _process_shard runs identically
        # either way (it is self-contained over the pickled payload).
        executor = self._ensure_executor()
        futures = [
            executor.submit(_process_shard, blob, s) for s in shards
        ]
        settled = self._settle(futures)
        outputs = [out for out, _led in settled]
        ledgers = [led for _out, led in settled]
        return outputs, ledgers

    @staticmethod
    def _settle(futures) -> list:
        """All shard results, aggregating every failure onto the first.

        ``wait`` guarantees no shard is abandoned mid-flight; when
        several shards raise, the first (in shard order) is re-raised
        and the others are attached as notes so concurrent failures
        stay diagnosable.
        """
        wait(futures)
        errors = [
            (i, f.exception())
            for i, f in enumerate(futures)
            if f.exception() is not None
        ]
        if errors:
            _first, primary = errors[0]
            for i, exc in errors[1:]:
                if exc is primary:
                    # A broken pool settles every future with the same
                    # exception instance; one report is enough.
                    continue
                primary.add_note(
                    f"[worker-pool] shard {i} also failed: "
                    f"{type(exc).__name__}: {exc}"
                )
            raise primary
        return [f.result() for f in futures]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _ensure_executor(self) -> Executor:
        if self._executor is None:
            if self.backend == "process":
                try:
                    context = None
                    if "fork" in multiprocessing.get_all_start_methods():
                        context = multiprocessing.get_context("fork")
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.workers, mp_context=context
                    )
                except (OSError, ValueError, ImportError):
                    # No process support (exotic sandbox): degrade to
                    # threads -- results are identical by construction.
                    self.backend = "thread"
                    self._executor = ThreadPoolExecutor(
                        max_workers=self.workers,
                        thread_name_prefix="iq-worker",
                    )
            else:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="iq-worker",
                )
        return self._executor

    def close(self) -> None:
        """Shut the executor down (idempotent; pool stays usable --
        the next parallel call recreates the workers)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        # Best-effort: engines are not always closed explicitly, and a
        # leaked process pool would otherwise idle until interpreter
        # exit.  Never raise from a finalizer.
        try:
            if self._executor is not None:
                self._executor.shutdown(wait=False)
        except Exception:
            pass

    def __repr__(self) -> str:
        state = "live" if self._executor is not None else "idle"
        return (
            f"WorkerPool(workers={self.workers}, "
            f"backend={self.backend!r}, {state})"
        )
