"""Golden guard of the degraded-mode answers and ledgers.

A seeded matrix of single-query kNN and range workloads under read
faults -- codec ``grid``/``pq`` x fault kind x faulted level x
scheduler x decoded-page cache (none, cold, warm) -- is hashed into
one SHA-256 digest: ids, distance bytes, the I/O delta, pages read,
refinements, ``certain``, ``intervals``, ``lost_pages`` and
``degraded`` of every answer, plus the four ``FaultContext`` session
counters of every case.  Any change to what a degraded query reads,
charges, refines or reports changes the digest.

The pinned value was computed on the implementation this guard was
written against; a deliberate behaviour change must re-derive it and
say why.
"""

import hashlib

import numpy as np
import pytest

from repro.core.search import locate_address
from repro.core.tree import IQTree
from repro.storage.disk import DiskModel, SimulatedDisk
from repro.storage.runtime_faults import ReadFaultInjector, RetryPolicy

GOLDEN = "423bd8d0c7148815eff6784f23b8438d08c712b7510ab6e785375d156b732de7"

KINDS = ("transient", "persistent", "corrupt")
LEVELS = ("quantized", "exact")
SCHEDULERS = ("optimized", "standard")
CACHES = ("none", "cold", "warm")
K = 3
RADIUS = 0.5
POLICY = RetryPolicy(max_attempts=3, backoff_seeks=1)


@pytest.fixture(scope="module")
def trees():
    points = np.random.default_rng(3).random((2000, 8))
    queries = np.random.default_rng(11).random((6, 8))

    def build(codec):
        disk = SimulatedDisk(
            DiskModel(t_seek=0.010, t_xfer=0.001, block_size=512)
        )
        return IQTree.build(
            points, disk=disk, optimize=False, fixed_bits=5, codec=codec
        )

    return {codec: build(codec) for codec in ("grid", "pq")}, queries


def schedule(injector, kind, address):
    if kind == "transient":
        injector.fail_once(address)
    elif kind == "persistent":
        injector.fail_always(address)
    else:
        injector.corrupt_always(address)


def run_workload(tree, queries, scheduler):
    results = []
    for query in queries:
        results.append(tree.nearest(query, k=K, scheduler=scheduler))
        results.append(tree.range_query(query, RADIUS))
    return results


def victims(tree, queries, scheduler):
    """First address of each level a pristine workload reads, in read
    order: the first quantized window of the first query and the block
    of its first refined record, so faults land on pages and records
    the kNN answer depends on."""
    observer = ReadFaultInjector()
    tree.disk.install_fault_injector(observer)
    try:
        run_workload(tree, queries, scheduler)
    finally:
        tree.disk.clear_fault_injector()
    found = {}
    for address in observer.attempts_seen:
        level, _block = locate_address(tree, address)
        if level is not None:
            found.setdefault(level, address)
    return found


def answer_record(result):
    io = result.io
    return (
        result.ids.tolist(),
        result.distances.tobytes().hex(),
        (io.seeks, io.blocks_read, io.blocks_overread, repr(io.elapsed)),
        result.pages_read,
        result.refinements,
        None if result.certain is None else result.certain.tolist(),
        None
        if result.intervals is None
        else sorted(
            (pid, repr(lo), repr(hi))
            for pid, (lo, hi) in result.intervals.items()
        ),
        [
            (lp.page, lp.n_points, repr(lp.mindist), repr(lp.maxdist))
            for lp in result.lost_pages
        ],
        result.degraded,
    )


def run_case(tree, queries, scheduler, cache, injector=None, tolerant=True):
    """Answers plus session counters of one workload run."""
    tree.clear_decoded_cache()
    if cache != "none":
        tree.use_decoded_cache(1 << 24)
    if cache == "warm":
        tree.disk.park()
        run_workload(tree, queries, scheduler)
    if injector is not None:
        tree.disk.install_fault_injector(injector)
    ctx = tree.use_fault_tolerance(POLICY) if tolerant else None
    try:
        tree.disk.park()
        results = run_workload(tree, queries, scheduler)
    finally:
        tree.disk.clear_fault_injector()
        tree.clear_fault_tolerance()
        tree.clear_decoded_cache()
    counters = (
        None
        if ctx is None
        else (ctx.retries, ctx.quarantined, ctx.degraded_results,
              ctx.lost_pages)
    )
    return [answer_record(r) for r in results], counters


def test_degraded_matrix_matches_golden(trees):
    by_codec, queries = trees
    digest = hashlib.sha256()
    for codec, tree in by_codec.items():
        for scheduler in SCHEDULERS:
            found = victims(tree, queries, scheduler)
            for level in LEVELS:
                for kind in KINDS:
                    for cache in CACHES:
                        injector = ReadFaultInjector()
                        schedule(injector, kind, found[level])
                        answers, counters = run_case(
                            tree, queries, scheduler, cache, injector
                        )
                        case = (codec, scheduler, level, kind, cache)
                        digest.update(
                            repr((case, answers, counters)).encode()
                        )
    assert digest.hexdigest() == GOLDEN


@pytest.mark.parametrize("cache", CACHES)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("codec", ["grid", "pq"])
def test_fault_context_without_faults_changes_nothing(
    trees, codec, scheduler, cache
):
    by_codec, queries = trees
    tree = by_codec[codec]
    plain, _ = run_case(tree, queries, scheduler, cache, tolerant=False)
    guarded, counters = run_case(
        tree, queries, scheduler, cache, ReadFaultInjector()
    )
    assert guarded == plain
    assert counters == (0, 0, 0, 0)
