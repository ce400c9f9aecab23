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
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import search
from repro import obs
from repro.core.search import browse_by_distance, locate_address
from repro.core.tree import ExactStore, IQTree
from repro.obs.instruments import REFINEMENTS
from repro.datasets import gaussian_clusters, make_workload
from repro.storage.runtime_faults import ReadFaultInjector
from tests.scenarios import assert_matches_scan, scenarios

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


@contextlib.contextmanager
def recorded_pops():
    """Log the ``(dist, tie, kind, page, item)`` of every entry the
    search takes -- the sequence the run merge must reproduce exactly.

    Entries leave the priority list through two functions: ``_pop``
    takes one entry, and the k-NN search's ``_drain`` takes the point
    at the top together with the stretch of its run that would pop
    next.  A drained stretch is logged entry by entry; an entry pushed
    without a run (the eager oracle's) is taken alone.
    """
    pops: list[tuple] = []
    real_pop, real_drain = search._pop, search._drain

    def pop(heap):
        entry = real_pop(heap)
        pops.append(entry[:5])
        return entry

    def drain(heap, *args):
        top = heap[0]
        stop = real_drain(heap, *args)
        run = top[5]
        if run is None:
            pops.append(top[:5])
        else:
            pops.extend(run.entry(pos)[:5] for pos in range(top[6], stop))
        return stop

    with mock.patch.object(search, "_pop", pop), mock.patch.object(
        search, "_drain", drain
    ):
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
        assert_matches_scan(tree, query, tree.nearest(query, k=k), k=k)

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
    """Stands in for the ``heapq`` module inside repro.core.search.  A
    ``heapreplace`` of a priority-list entry -- a drained run's next
    entry taking the top's place -- counts as a push; the k-best heap's
    ``(distance, id)`` replacements do not."""

    def __init__(self):
        self.pushes = 0

    def heappush(self, heap, item):
        self.pushes += 1
        heapq.heappush(heap, item)

    def heapreplace(self, heap, item):
        self.pushes += len(item) > 2
        return heapq.heapreplace(heap, item)

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
        """Complexity guard: one push per loaded page and per run
        segment (at most one per refined point), plus the k-best heap's
        own pushes (at most k <= n_pages); the eager filter stage pushed
        every surviving cell, about n."""
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


#: ``NNResult.refinements`` of the clustered PQ tree's queries, by k:
#: the counts the one-entry-per-point search made.
PINNED_REFINEMENTS = {
    1: [25, 28, 26, 19, 70, 83],
    10: [97, 103, 76, 71, 110, 108],
    50: [114, 125, 134, 111, 132, 118],
}


class TestRefinementCounter:
    """A drained stretch counts its decoded records as refinements
    without calling ``ExactStore.refine``; the registry counter must see
    each of them once, as ``NNResult.refinements`` does."""

    @pytest.mark.parametrize("k", sorted(PINNED_REFINEMENTS))
    def test_counter_equals_result(self, clustered_pq_tree, monkeypatch, k):
        tree, queries = clustered_pq_tree
        calls = []
        real_refine = ExactStore.refine

        def refine(store, *args):
            calls.append(args)
            return real_refine(store, *args)

        monkeypatch.setattr(ExactStore, "refine", refine)
        obs.registry.reset()
        obs.enable()
        try:
            counts = []
            for query in queries:
                before = REFINEMENTS.value()
                result = tree.nearest(query, k=k)
                assert REFINEMENTS.value() - before == result.refinements
                counts.append(result.refinements)
        finally:
            obs.disable()
            obs.registry.reset()
        assert counts == PINNED_REFINEMENTS[k]
        # Most of them are stretch look-ups, not calls of refine.
        assert 2 * len(calls) < sum(counts)
