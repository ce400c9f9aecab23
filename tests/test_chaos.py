"""The chaos harness and its one check of the degraded-answer contract.

``check_answer`` must pass the answers a faulted index really gives
and report each way an answer can break the contract; the harnesses
built on it must pass on healthy indexes.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.chaos import (
    check_answer,
    point_pages,
    read_matrix,
    shard_kill,
    write_matrix,
    write_script,
)
from repro.core.search import locate_address
from repro.core.tree import IQTree
from repro.engine import ShardRouter
from repro.storage.disk import DiskModel, SimulatedDisk
from repro.storage.persistence import save_iqtree
from repro.storage.runtime_faults import ReadFaultInjector


def faulted_tree(points, bits=4):
    disk = SimulatedDisk(
        DiskModel(t_seek=0.010, t_xfer=0.001, block_size=512)
    )
    return IQTree.build(points, disk=disk, optimize=False, fixed_bits=bits)


def degraded_answer(tree, query, level, k=5):
    """``(baseline, answer)`` of ``query`` with a block failing on every
    attempt: the page of the nearest neighbour, or the first exact
    block the query reads."""
    base = tree.nearest(query, k=k)
    if level == "quantized":
        page = point_pages(tree)[base.ids[0]]
        address = tree._quant_file.extent_start + int(page)
    else:
        observer = ReadFaultInjector()
        tree.disk.install_fault_injector(observer)
        tree.nearest(query, k=k)
        tree.disk.clear_fault_injector()
        address = next(
            a for a in sorted(observer.attempts_seen)
            if locate_address(tree, a)[0] == level
        )
    injector = ReadFaultInjector()
    injector.fail_always(address)
    tree.disk.install_fault_injector(injector)
    tree.use_fault_tolerance()
    try:
        got = tree.nearest(query, k=k)
    finally:
        tree.disk.clear_fault_injector()
        tree.clear_fault_tolerance()
    assert got.degraded
    return base, got


@pytest.fixture
def tree(uniform_points):
    return faulted_tree(uniform_points[:600])


@pytest.fixture
def exact_fault(tree, uniform_points):
    """A degraded answer with uncertain entries (a lost exact block)."""
    query = uniform_points[701]
    base, got = degraded_answer(tree, query, "exact")
    assert not got.certain.all() and got.certain.any()
    return query, base, got


@pytest.fixture
def page_fault(tree, uniform_points):
    """A degraded answer missing baseline neighbours (a lost page)."""
    query = uniform_points[702]
    base, got = degraded_answer(tree, query, "quantized")
    assert got.lost_pages
    assert not set(base.ids.tolist()) <= set(got.ids.tolist())
    return query, base, got


class TestCheckAnswer:
    def test_real_degraded_answers_pass(self, tree, exact_fault, page_fault):
        pages = point_pages(tree)
        for query, base, got in (exact_fault, page_fault):
            assert check_answer(tree, query, got, base, pages=pages) == []

    def test_baseline_passes_even_when_exact_is_due(self, tree, exact_fault):
        query, base, _got = exact_fault
        assert check_answer(tree, query, base, base, exact=True) == []

    def test_interval_excluding_the_truth(self, tree, exact_fault):
        query, base, got = exact_fault
        pos = int(np.flatnonzero(~got.certain)[0])
        pid = int(got.ids[pos])
        _lo, hi = got.intervals[pid]
        intervals = {**got.intervals, pid: (hi + 1.0, hi + 2.0)}
        bad = replace(got, intervals=intervals)
        problems = check_answer(tree, query, bad, base)
        assert len(problems) == 1 and f"entry {pid}" in problems[0]

    def test_certain_entry_with_a_wrong_distance(self, tree, exact_fault):
        query, base, got = exact_fault
        pos = int(np.flatnonzero(got.certain)[0])
        distances = got.distances.copy()
        distances[pos] += 1e-6
        bad = replace(got, distances=distances)
        problems = check_answer(tree, query, bad, base)
        assert len(problems) == 1 and f"entry {got.ids[pos]}" in problems[0]

    def test_uncertain_entry_without_an_interval(self, tree, exact_fault):
        query, base, got = exact_fault
        pid = int(got.ids[np.flatnonzero(~got.certain)[0]])
        intervals = {p: iv for p, iv in got.intervals.items() if p != pid}
        bad = replace(got, intervals=intervals)
        assert check_answer(tree, query, bad, base) == [
            f"uncertain entry {pid} has no interval"
        ]

    def test_dropped_neighbour_without_a_lost_page(self, tree, page_fault):
        query, base, got = page_fault
        pages = point_pages(tree)
        bad = replace(got, lost_pages=())
        problems = check_answer(tree, query, bad, base, pages=pages)
        missing = set(base.ids.tolist()) - set(got.ids.tolist())
        assert len(problems) == len(missing)
        assert all("neither returned nor covered" in p for p in problems)

    def test_lost_page_bounds_missing_the_distance(self, tree, page_fault):
        query, base, got = page_fault
        far = tuple(
            replace(lp, mindist=lp.maxdist + 1.0, maxdist=lp.maxdist + 2.0)
            for lp in got.lost_pages
        )
        bad = replace(got, lost_pages=far)
        assert check_answer(tree, query, bad, base, pages=point_pages(tree))

    def test_dropped_neighbour_of_a_certain_answer(self, tree, uniform_points):
        """An answer marked degraded but all certain, one neighbour
        short: only the lost-page rule catches it."""
        query = uniform_points[703]
        base = tree.nearest(query, k=5)
        bad = replace(
            base, ids=base.ids[:-1], distances=base.distances[:-1],
            certain=np.ones(4, dtype=bool), intervals={}, degraded=True,
        )
        assert check_answer(tree, query, bad, base) == []
        pages = point_pages(tree)
        problems = check_answer(tree, query, bad, base, pages=pages)
        assert len(problems) == 1 and str(base.ids[-1]) in problems[0]

    def test_non_degraded_answer_with_one_id_swapped(self, tree, exact_fault):
        query, base, _got = exact_fault
        ids = base.ids.copy()
        ids[[0, 1]] = ids[[1, 0]]
        problems = check_answer(tree, query, replace(base, ids=ids), base)
        assert problems == ["non-degraded answer differs from the baseline"]

    def test_degraded_where_exact_is_due(self, tree, exact_fault):
        query, base, got = exact_fault
        assert check_answer(tree, query, got, base) == []
        assert check_answer(tree, query, got, base, exact=True) == [
            "degraded where an exact answer is due"
        ]


class TestPointPages:
    def test_every_live_point_on_its_page(self, tree):
        pages = point_pages(tree)
        for page, opt in enumerate(tree._partitions):
            assert np.all(pages[opt.partition.indices] == page)

    def test_deleted_rows_have_no_page(self, tree):
        tree.delete(7)
        pages = point_pages(tree)
        assert pages[7] == -1
        assert np.count_nonzero(pages >= 0) == tree.n_live_points


def random_queries(tree, count, seed):
    rng = np.random.default_rng(seed)
    lo, hi = tree.points.min(axis=0), tree.points.max(axis=0)
    return lo + rng.random((count, tree.dim)) * (hi - lo)


class TestHarnesses:
    def test_read_matrix_passes(self):
        points = np.random.default_rng(3).random((2000, 8))
        tree = IQTree.build(points, optimize=False, fixed_bits=5)
        report = read_matrix(
            tree, random_queries(tree, 4, 0), 3, radius=0.5
        )
        assert not report.failed, "\n".join(report.lines)
        cells = [line for line in report.lines if " x " in line]
        assert len(cells) == 6
        assert report.lines[-1] == (
            "post-chaos pristine check: ok (matches baseline)"
        )

    @pytest.mark.parametrize("kill", [(0,), (3,), (0, 2)])
    def test_shard_kill_passes(self, kill):
        points = np.random.default_rng(5).random((4000, 8))
        tree = IQTree.build(points, optimize=False, fixed_bits=5)
        with ShardRouter(tree, shards=4, workers=2) as router:
            for index in kill:
                router.kill_shard(index)
            report = shard_kill(tree, router, random_queries(tree, 6, 0), 3)
            assert all(shard.alive for shard in router.shards)
        assert not report.failed, "\n".join(report.lines)
        assert report.lines[1].startswith(f"  shard-kill {list(kill)} / 4")
        assert " 0 degraded" not in report.lines[1]

    def test_write_matrix_passes(self, tmp_path):
        points = np.random.default_rng(5).random((800, 8))
        tree = IQTree.build(points, optimize=False, fixed_bits=8)
        index = tmp_path / "index.iqt"
        save_iqtree(tree, index)
        report = write_matrix(
            index,
            random_queries(tree, 4, 0),
            3,
            write_script(tree, 12, 0),
            checkpoint_every=5,
        )
        assert not report.failed, "\n".join(report.lines)
        assert report.verdict == "PASS"
        assert report.lines[-2].startswith("  maintenance x engine[thread]:")
        assert report.lines[-1].startswith("  maintenance x sharded:  ok")
