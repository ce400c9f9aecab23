"""One heap entry per page: the run-merge filter stage is observably
identical to pushing every surviving cell into the priority list.

The oracle is a test-only copy of the eager per-point push loop the
search used before runs existed: each candidate gets its own heap entry,
with tie numbers drawn one at a time in local order.  Swapped in for
:func:`repro.core.search._push_run`, it turns every caller (the k-NN
filter stage and distance browsing) back into the eager algorithm, so
the two can be compared on the same tree: ids, distance bytes, the
simulated-I/O ledger, ``pages_read``, ``refinements`` and the
degraded-mode fields must all match.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core import search
from repro.core.search import browse_by_distance, locate_address
from repro.core.tree import IQTree
from repro.datasets import gaussian_clusters, make_workload
from repro.storage.disk import DiskModel, SimulatedDisk
from repro.storage.runtime_faults import ReadFaultInjector

SCHEDULERS = ("optimized", "standard")


def _eager_push_run(heap, ties, kind, page, dists, items) -> None:
    """The pre-run filter stage: one heap entry per candidate."""
    for dist, item in zip(dists.tolist(), items.tolist()):
        search.heapq.heappush(
            heap, (dist, ties.take(), kind, page, int(item), None, 0)
        )


def eager():
    """Context manager running the search with the eager oracle."""
    return mock.patch.object(search, "_push_run", _eager_push_run)


def _disk(block_size: int) -> SimulatedDisk:
    return SimulatedDisk(
        DiskModel(t_seek=0.010, t_xfer=0.001, block_size=block_size)
    )


@contextlib.contextmanager
def recorded_pops():
    """Log the ``(dist, tie, kind, page, item)`` of every heap pop -- the
    sequence the run merge must reproduce exactly."""
    pops: list[tuple] = []
    real_pop = search._pop

    def pop(heap):
        entry = real_pop(heap)
        pops.append(entry[:5])
        return entry

    with mock.patch.object(search, "_pop", pop):
        yield pops


def from_rest(tree) -> None:
    """Same disk state before every compared call: the ledger is
    cumulative, so two deltas are only bit-comparable from equal
    starting totals (and an equal head position)."""
    tree.disk.reset_stats()
    tree.disk.park()


def snapshot(result) -> tuple:
    """Everything a caller can observe about a k-NN/range result."""
    return (
        result.ids.tolist(),
        result.distances.tobytes(),
        result.io,
        result.pages_read,
        result.refinements,
        None if result.certain is None else result.certain.tolist(),
        result.intervals,
        result.lost_pages,
        result.degraded,
    )


def traced_nearest(tree, query, k, scheduler) -> tuple:
    """One k-NN query from a rested disk: its snapshot and pop log."""
    from_rest(tree)
    with recorded_pops() as pops:
        result = tree.nearest(query, k=k, scheduler=scheduler)
    return snapshot(result), pops


def run_faulted(tree, fn, addresses):
    """Run ``fn`` under a fresh fault context and a fresh injector that
    fails ``addresses`` permanently (identical state for every call)."""
    injector = ReadFaultInjector()
    for address in addresses:
        injector.fail_always(address)
    tree.disk.install_fault_injector(injector)
    tree.use_fault_tolerance()
    try:
        return fn()
    finally:
        tree.clear_fault_tolerance()
        tree.disk.clear_fault_injector()


def touched_addresses(tree, query, k):
    """Second- and third-level addresses a pristine query reads."""
    observer = ReadFaultInjector()
    tree.disk.install_fault_injector(observer)
    try:
        tree.nearest(query, k=k)
    finally:
        tree.disk.clear_fault_injector()
    return [
        address
        for address in sorted(observer.attempts_seen)
        if locate_address(tree, address)[0] in ("quantized", "exact")
    ]


# ----------------------------------------------------------------------
# Adversarial datasets
# ----------------------------------------------------------------------
@st.composite
def scenarios(draw):
    """A small tree plus a query and k, built to stress tie handling.

    Coordinates sit on a 1/8 grid (exact in float32, so distances tie
    constantly); rows are duplicated; a dimension may have zero extent;
    the k-th nearest point gets planted twins; pages may be emptied by
    deletes; pages are 1-bit grid, 4-bit grid, exact, or PQ.
    """
    dim = draw(st.integers(1, 5))
    n = draw(st.integers(2, 400))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 9, size=(n, dim)).astype(np.float64) / 8.0
    if draw(st.booleans()):
        dups = rng.integers(0, n, size=draw(st.integers(1, 20)))
        data = np.vstack([data, data[dups]])
    if dim > 1 and draw(st.booleans()):
        data[:, draw(st.integers(0, dim - 1))] = 0.375
    query = rng.integers(0, 9, size=dim).astype(np.float64) / 8.0
    k = draw(st.integers(1, data.shape[0]))
    if draw(st.booleans()):
        # Twins of the k-th nearest point: an exact k-th-distance tie.
        dists = np.linalg.norm(data - query, axis=1)
        kth = np.argsort(dists, kind="stable")[k - 1]
        data = np.vstack([data, np.repeat(data[kth : kth + 1], 2, axis=0)])
    layout = draw(st.sampled_from(["grid1", "grid4", "exact", "pq"]))
    if layout == "pq":
        # A PQ codebook needs a larger block than a tiny grid page.
        tree = IQTree.build(
            data, disk=_disk(256), fractal_dim=None, optimize=False,
            fixed_bits=3, codec="pq",
        )
        assume(any(opt.codec for opt in tree._partitions))
    else:
        bits = {"grid1": 1, "grid4": 4, "exact": 32}[layout]
        tree = IQTree.build(
            data, disk=_disk(128), fractal_dim=None, optimize=False,
            fixed_bits=bits,
        )
    if tree.n_pages > 1 and draw(st.booleans()):
        victim = draw(st.integers(0, tree.n_pages - 1))
        for pid in tree._part_ids[victim].tolist():
            tree.delete(int(pid))
    n_live = tree.n_live_points
    k = n_live if draw(st.booleans()) else min(k, n_live)
    return tree, query, k


SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestNearestMatchesEagerOracle:
    @given(scenario=scenarios())
    @SETTINGS
    def test_pristine(self, scenario):
        tree, query, k = scenario
        for scheduler in SCHEDULERS:
            got = traced_nearest(tree, query, k, scheduler)
            with eager():
                want = traced_nearest(tree, query, k, scheduler)
            assert got == want

    @given(scenario=scenarios())
    @SETTINGS
    def test_answers_are_exact(self, scenario):
        tree, query, k = scenario
        live = np.concatenate(
            [opt.partition.indices for opt in tree._partitions]
        )
        dists = tree.metric.distances(query, tree.points[live])
        true = np.sort(dists)[:k]
        res = tree.nearest(query, k=k)
        assert res.distances.tobytes() == true.tobytes()

    @given(scenario=scenarios(), pick=st.integers(0, 2**16))
    @SETTINGS
    def test_under_read_faults(self, scenario, pick):
        tree, query, k = scenario
        touched = touched_addresses(tree, query, k)
        rng = np.random.default_rng(pick)
        faulted = [a for a in touched if rng.random() < 0.3]
        for scheduler in SCHEDULERS:
            def query_once():
                return traced_nearest(tree, query, k, scheduler)

            got = run_faulted(tree, query_once, faulted)
            with eager():
                want = run_faulted(tree, query_once, faulted)
            assert got == want


class TestBrowseMatchesEagerOracle:
    @given(scenario=scenarios(), take=st.integers(1, 200))
    @SETTINGS
    def test_prefix_and_ledger(self, scenario, take):
        tree, query, _k = scenario

        def browse():
            from_rest(tree)
            with recorded_pops() as pops:
                prefix = list(
                    itertools.islice(browse_by_distance(tree, query), take)
                )
            return prefix, search.io_snapshot(tree), pops

        got = browse()
        with eager():
            want = browse()
        assert got == want


class _CountingHeapq:
    """Stands in for the ``heapq`` module inside repro.core.search."""

    def __init__(self):
        self.pushes = 0

    def heappush(self, heap, item):
        self.pushes += 1
        heapq.heappush(heap, item)

    def __getattr__(self, name):
        return getattr(heapq, name)


@pytest.fixture(scope="module")
def clustered_pq_tree():
    """Micro-clusters far smaller than a page: every page is PQ."""
    data, queries = make_workload(
        gaussian_clusters, n=8000, n_queries=6, seed=7,
        dim=16, n_clusters=64, spread=0.0005,
    )
    tree = IQTree.build(data, codec="pq")
    assert all(opt.codec for opt in tree._partitions), "not all PQ"
    return tree, queries


class TestClusteredPQ:
    """The multi-page PQ regime the run merge was built for."""

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("k", [1, 10, 50])
    def test_matches_eager_oracle(self, clustered_pq_tree, scheduler, k):
        tree, queries = clustered_pq_tree
        for query in queries:
            got = traced_nearest(tree, query, k, scheduler)
            with eager():
                want = traced_nearest(tree, query, k, scheduler)
            assert got == want

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_matches_eager_oracle_under_faults(
        self, clustered_pq_tree, scheduler
    ):
        tree, queries = clustered_pq_tree
        degraded = 0
        for query in queries:
            faulted = touched_addresses(tree, query, 10)[::4]

            def query_once():
                return traced_nearest(tree, query, 10, scheduler)

            got = run_faulted(tree, query_once, faulted)
            with eager():
                want = run_faulted(tree, query_once, faulted)
            assert got == want
            degraded += got[0][-1]
        assert degraded, "no query degraded: the faults missed"

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_heap_pushes_bounded(self, clustered_pq_tree, scheduler):
        """Complexity guard: one push per loaded page and per refined
        point, plus the k-best heap's own pushes (at most k <= n_pages);
        the eager filter stage pushed every surviving cell, about n."""
        tree, queries = clustered_pq_tree
        k = 10
        assert k <= tree.n_pages
        for query in queries:
            counter = _CountingHeapq()
            with mock.patch.object(search, "heapq", counter):
                res = tree.nearest(query, k=k, scheduler=scheduler)
            bound = tree.n_pages + res.pages_read + res.refinements
            assert counter.pushes <= bound
            eager_counter = _CountingHeapq()
            with eager(), mock.patch.object(search, "heapq", eager_counter):
                tree.nearest(query, k=k, scheduler=scheduler)
            assert eager_counter.pushes > 4 * counter.pushes
