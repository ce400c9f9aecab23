"""The differential oracle: every search entry point keeps the
exactness contract of :func:`tests.scenarios.assert_matches_scan` on
the adversarial trees :func:`tests.scenarios.scenarios` draws.

kNN answers must equal the scan's in ids and distance bytes, in order;
range answers (radius = the scan's k-th distance) must hold the same
ids at the same distances.  Under persistent read faults and dead
shards, :func:`repro.chaos.check_answer` judges the degraded answer:
with ``pages`` for quantized-level faults and dead shards, where a
neighbour is only lost with its page; without for exact-level faults,
where a lost record ranks at its cell maxdist and may leave the top k
unreported.
"""

from __future__ import annotations

import contextlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chaos import check_answer, point_pages
from repro.core.search import locate_address
from repro.core.tree import IQTree
from repro.engine import QueryEngine, ShardRouter
from repro.storage.faults import PowerLoss
from repro.storage.journal import DurableTree
from repro.storage.persistence import load_iqtree, save_iqtree
from repro.storage.runtime_faults import ReadFaultInjector
from tests.scenarios import (
    CASES, assert_matches_scan, assert_same, browsed, census, live_ids, scan,
    scenarios, small_disk,
)

ORACLE = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
SCHEDULERS = ("optimized", "standard")
SERVERS = {
    "engine-1": lambda tree: QueryEngine(tree, workers=1, backend="thread"),
    "engine-2": lambda tree: QueryEngine(tree, workers=2, backend="thread"),
    "router-1": lambda tree: ShardRouter(tree, 1, backend="thread"),
    "router-3": lambda tree: ShardRouter(tree, 3, backend="thread"),
}


def probes(tree, query) -> np.ndarray:
    """The drawn query plus a stored row (distance 0 to its duplicates):
    two queries, so a two-worker batch splits them."""
    return np.vstack([query, tree.points[live_ids(tree)[0]]])


def round_trip(tree) -> IQTree:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.iqt"
        save_iqtree(tree, path, fsync=False)
        return load_iqtree(path, small_disk(tree.disk.model.block_size))


def assert_exact(tree, queries, k) -> None:
    """Every entry point's kNN and range answers equal the scan's."""
    want = [scan(tree, q, k) for q in queries]
    radii = [ref.distances[-1] for ref in want]
    loaded = round_trip(tree)
    knn = {
        f"nearest-{s}": [tree.nearest(q, k=k, scheduler=s) for q in queries]
        for s in SCHEDULERS
    }
    knn["browse"] = [browsed(tree, q, k) for q in queries]
    knn["save-load"] = [loaded.nearest(q, k=k) for q in queries]
    ranged = {"range_query": list(map(tree.range_query, queries, radii))}
    for name, open_server in SERVERS.items():
        with open_server(tree) as server:
            knn[name] = list(server.knn_batch(queries, k=k))
            ranged[name] = list(server.range_batch(queries, radii))
    for name, answers in knn.items():
        for got, ref in zip(answers, want):
            assert_same(got, ref, name)
    want = [scan(tree, q, radius=r) for q, r in zip(queries, radii)]
    for name, answers in ranged.items():
        for got, ref in zip(answers, want):
            assert_same(got, ref, name, by_id=True)


@contextlib.contextmanager
def replayed(tree, ops, crash: bool):
    """Journal ``ops`` on a copy of ``tree`` and reopen it, replaying
    the journal; with ``crash`` the power fails once the last op is
    journaled, so only the replay applies it.  Yields the tree."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.iqt"
        store = DurableTree.create(round_trip(tree), path, fsync=False)
        *head, (last_op, last_arg) = ops
        for op, arg in head:
            getattr(store, op)(arg)
        if crash:
            store.inject_crash(f"{last_op}:post-append")
            with pytest.raises(PowerLoss):
                getattr(store, last_op)(last_arg)
        else:
            getattr(store, last_op)(last_arg)
        store.journal.close()
        disk = small_disk(tree.disk.model.block_size)
        store = DurableTree.open(path, disk=disk, fsync=False)
        try:
            yield store.tree
        finally:
            store.close()


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
def test_every_entry_point_matches_the_scan():
    """The examples must also draw every case the census names."""
    seen: set[str] = set()

    @given(scenario=scenarios())
    @ORACLE
    def oracle(scenario):
        tree, query, k = scenario
        seen.update(census(tree, query, k))
        assert_exact(tree, probes(tree, query), k)

    oracle()
    assert seen == CASES, f"never drawn: {sorted(CASES - seen)}"


@st.composite
def journal_ops(draw, tree, query):
    """1-6 inserts (grid points, stored rows, the query) and 1-6
    deletes of stored rows, shuffled."""
    live = live_ids(tree).tolist()
    grid = st.lists(st.integers(0, 8), min_size=tree.dim, max_size=tree.dim)
    point = st.one_of(
        grid.map(lambda c: np.array(c, dtype=np.float64) / 8.0),
        st.sampled_from(live).map(lambda pid: tree.points[pid].copy()),
        st.just(query),
    )
    inserts = draw(st.lists(point, min_size=1, max_size=6))
    deletes = draw(
        st.lists(
            st.sampled_from(live), min_size=1,
            max_size=min(6, len(live) - 1), unique=True,
        )
    )
    ops = [("insert", p) for p in inserts]
    return draw(st.permutations(ops + [("delete", pid) for pid in deletes]))


@given(data=st.data(), scenario=scenarios(), crash=st.booleans())
@ORACLE
def test_journal_replay_matches_the_scan(data, scenario, crash):
    tree, query, _k = scenario
    ops = data.draw(journal_ops(tree, query))
    with replayed(tree, ops, crash) as recovered:
        k = data.draw(st.integers(1, recovered.n_live_points))
        for q in probes(recovered, query):
            for s in SCHEDULERS:
                got = recovered.nearest(q, k=k, scheduler=s)
                assert_matches_scan(recovered, q, got, k=k)


def observed_addresses(tree, query, k) -> dict[str, list[int]]:
    """The quantized- and exact-level addresses pristine queries read."""
    observer = ReadFaultInjector()
    tree.disk.install_fault_injector(observer)
    try:
        for s in SCHEDULERS:
            tree.nearest(query, k=k, scheduler=s)
    finally:
        tree.disk.clear_fault_injector()
    levels: dict[str, list[int]] = {"quantized": [], "exact": []}
    for address in sorted(observer.attempts_seen):
        level = locate_address(tree, address)[0]
        if level in levels:
            levels[level].append(address)
    return levels


@given(scenario=scenarios(), pick=st.integers(0, 2**16))
@ORACLE
def test_read_faults_keep_the_truth(scenario, pick):
    tree, query, k = scenario
    want = scan(tree, query, k)
    rng = np.random.default_rng(pick)
    for level, touched in observed_addresses(tree, query, k).items():
        faulted = [a for a in touched if rng.random() < 0.3]
        if not faulted:
            continue
        injector = ReadFaultInjector()
        for address in faulted:
            injector.schedule_always(address, "persistent")
        tree.disk.install_fault_injector(injector)
        tree.use_fault_tolerance()
        try:
            answers = [
                tree.nearest(query, k=k, scheduler=s) for s in SCHEDULERS
            ]
            with SERVERS["engine-1"](tree) as engine:
                answers += engine.knn_batch(query[None], k=k)
        finally:
            tree.clear_fault_tolerance()
            tree.disk.clear_fault_injector()
        pages = point_pages(tree) if level == "quantized" else None
        for got in answers:
            assert check_answer(tree, query, got, want, pages=pages) == []


@given(scenario=scenarios(), dead=st.integers(0, 2))
@ORACLE
def test_dead_shards_keep_the_truth(scenario, dead):
    tree, query, k = scenario
    queries = probes(tree, query)
    with SERVERS["router-3"](tree) as router:
        router.kill_shard(dead % router.n_shards)
        answers = router.knn_batch(queries, k=k)
    for q, got in zip(queries, answers):
        problems = check_answer(
            tree, q, got, scan(tree, q, k), pages=point_pages(tree)
        )
        assert problems == []


# ----------------------------------------------------------------------
# Named regressions: k-th-distance ties break by (distance, id)
# ----------------------------------------------------------------------
class TestTieOrder:
    """Two repros where answers depended on the order candidates were
    offered in: every entry point must return the smaller tied ids."""

    @staticmethod
    def check(tree, query, k) -> None:
        dists = np.sort(tree.metric.distances(query, tree.points))
        assert dists[k - 1] == dists[k], "no tie at the k-th distance"
        assert_exact(tree, query[None], k)
        ids = live_ids(tree)
        ops = [("insert", tree.points[ids[-1]]), ("delete", int(ids[1]))]
        with replayed(tree, ops, crash=True) as recovered:
            for s in SCHEDULERS:
                got = recovered.nearest(query, k=k, scheduler=s)
                assert_matches_scan(recovered, query, got, k=k)

    def test_planted_ties(self):
        """400 uniform 5-d points plus 40 exactly 0.125 from the query
        (one coordinate off by +-0.125); k = 20 cuts through them."""
        query = np.full(5, 0.5)
        rows = np.arange(40)
        twins = np.repeat(query[None], 40, axis=0)
        twins[rows, rows % 5] += np.where(rows // 5 % 2, -0.125, 0.125)
        data = np.vstack([np.random.default_rng(5).random((400, 5)), twins])
        self.check(IQTree.build(data, disk=small_disk(512)), query, 20)

    def test_duplicate_ties(self):
        """Twenty 4-d rows stored 30 times each; the query is the first
        row before float32 rounding, so 30 points tie; k = 10."""
        data = np.repeat(np.random.default_rng(0).random((20, 4)), 30, axis=0)
        self.check(IQTree.build(data, disk=small_disk(512)), data[0], 10)
