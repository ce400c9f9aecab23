"""The stacked plan kernels pick exactly what the per-page kernels picked.

The oracle is a test-local copy of the plan kernels as they were before
the page table was stacked: one ``mindist_to_boxes`` and one
``maxdist_to_boxes`` call per candidate page, the k-th smallest upper
bound taken over *every* candidate point, and one ``(page, local)``
key built per quantized candidate.  The stacked kernels bound all
candidate rows in one pass and compute upper bounds only for points
whose lower bound is within a seed threshold T'; they must return the
same refinement list (as an ordered list: :class:`KBest` breaks ties
by offer order), the same exact-page distance and id bytes and the
same candidate counts.

Hypothesis draws small adversarial tables: coordinates on a coarse
grid (duplicate points and planted ties at the k-th upper bound),
zero-extent cells, d = 1, k up to and past the candidate count, exact
and quantized pages mixed, pages without points, non-contiguous
candidate subsets and lost pages, under three metrics.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.tree import IQTree
from repro.engine import QueryEngine
from repro.core.search import KBest
from repro.engine.kernels import (
    PageStack,
    PageTable,
    PlanTask,
    assemble_knn_query,
    cell_boxes,
    interval_for,
    plan_shard,
)
from repro.engine.shm import SharedArena
from repro.geometry.mbr import maxdist_to_boxes, mindist_to_boxes
from repro.geometry.metrics import EUCLIDEAN, MAXIMUM, LpMetric
from repro.storage.disk import DiskModel, SimulatedDisk

METRICS = (EUCLIDEAN, MAXIMUM, LpMetric(3))


# ----------------------------------------------------------------------
# Oracle: the per-page kernels over per-page dicts
# ----------------------------------------------------------------------
def reference_knn(query, k, pages, exact, bounds, metric) -> dict:
    exact_dists, exact_ids, quant_lowers, uppers = [], [], [], []
    quant_keys: list[tuple[int, int]] = []
    candidate_points = 0
    for page in pages.tolist():
        if page in exact:
            points, ids = exact[page]
            dists = metric.distances(query, points)
            candidate_points += dists.size
            exact_dists.append(dists)
            exact_ids.append(ids)
            uppers.append(dists)
            continue
        lo, up = bounds[page]
        lower_b = mindist_to_boxes(query, lo, up, metric)
        upper_b = maxdist_to_boxes(query, lo, up, metric)
        candidate_points += lower_b.size
        quant_lowers.append(lower_b)
        quant_keys.extend((page, local) for local in range(lower_b.size))
        uppers.append(upper_b)
    all_uppers = np.concatenate(uppers) if uppers else np.empty(0)
    if all_uppers.size >= k:
        tau = np.partition(all_uppers, k - 1)[k - 1]
    else:
        tau = np.inf
    refine = []
    if quant_lowers:
        lowers_cat = np.concatenate(quant_lowers)
        for idx in np.flatnonzero(lowers_cat <= tau).tolist():
            refine.append(quant_keys[idx])
    return {
        "exact_dists": (
            np.concatenate(exact_dists) if exact_dists else np.empty(0)
        ),
        "exact_ids": (
            np.concatenate(exact_ids)
            if exact_ids
            else np.empty(0, dtype=np.int64)
        ),
        "refine": refine,
        "candidate_points": candidate_points,
    }


def reference_range(query, radius, pages, exact, bounds, metric) -> dict:
    exact_ids, exact_dists = [], []
    refine: list[tuple[int, int]] = []
    candidate_points = 0
    for page in pages.tolist():
        if page in exact:
            points, ids = exact[page]
            dists = metric.distances(query, points)
            candidate_points += dists.size
            inside = dists <= radius
            exact_ids.append(ids[inside].astype(np.int64, copy=False))
            exact_dists.append(dists[inside].astype(np.float64, copy=False))
            continue
        lo, up = bounds[page]
        lower_b = mindist_to_boxes(query, lo, up, metric)
        candidate_points += lower_b.size
        refine.extend(
            (page, int(local)) for local in np.flatnonzero(lower_b <= radius)
        )
    return {
        "exact_ids": (
            np.concatenate(exact_ids)
            if exact_ids
            else np.empty(0, dtype=np.int64)
        ),
        "exact_dists": (
            np.concatenate(exact_dists) if exact_dists else np.empty(0)
        ),
        "refine": refine,
        "candidate_points": candidate_points,
    }


def readable(cand_row, lost) -> np.ndarray:
    return np.array(
        [p for p in np.flatnonzero(cand_row).tolist() if p not in lost],
        dtype=np.int64,
    )


# ----------------------------------------------------------------------
# Adversarial tables
# ----------------------------------------------------------------------
@st.composite
def scenarios(draw):
    """Pages of points on a coarse grid, plus queries and candidates."""
    dim = draw(st.integers(1, 3))
    coord = st.integers(0, 3).map(lambda v: v / 2.0)
    row = st.lists(coord, min_size=dim, max_size=dim)
    n_pages = draw(st.integers(1, 6))
    exact, bounds, part_ids, lost = {}, {}, {}, set()
    next_id = 0
    for page in range(n_pages):
        kind = draw(st.sampled_from(["exact", "quant", "quant", "lost"]))
        m = draw(st.integers(0, 5))
        if draw(st.booleans()):
            rows = [draw(row)] * m  # duplicates
        else:
            rows = [draw(row) for _ in range(m)]
        base = np.array(rows, dtype=np.float64).reshape(m, dim)
        ids = np.arange(next_id, next_id + m, dtype=np.int64)
        next_id += m
        if kind == "lost":
            lost.add(page)
        elif kind == "exact":
            exact[page] = (base, ids)
        else:
            # Zero-extent cells in every dimension (lower == upper) or
            # in some of them; widths stay on the grid, so ties abound.
            widths = np.array(
                draw(
                    st.lists(
                        st.sampled_from([0.0, 0.0, 0.5, 1.0]),
                        min_size=dim,
                        max_size=dim,
                    )
                )
            )
            bounds[page] = (base, base + widths)
            part_ids[page] = ids
    n_queries = draw(st.integers(1, 3))
    queries = np.array(
        [draw(row) for _ in range(n_queries)], dtype=np.float64
    ).reshape(n_queries, dim)
    cand_mask = np.array(
        [
            draw(st.lists(st.booleans(), min_size=n_pages, max_size=n_pages))
            for _ in range(n_queries)
        ]
    ).reshape(n_queries, n_pages)
    return {
        "exact": exact,
        "bounds": bounds,
        "part_ids": part_ids,
        "lost": frozenset(lost),
        "queries": queries,
        "cand_mask": cand_mask,
        "n_points": next_id,
        "dim": dim,
        "metric": draw(st.sampled_from(METRICS)),
    }


def stacked_table(sc) -> PageTable:
    """The scenario's pages in the engine's stacked form."""
    dim = sc["dim"]
    no_ids = np.empty(0, dtype=np.int64)
    exact = sorted(sc["exact"].items())
    quant = [
        (page, (sc["part_ids"][page],), cell_boxes(lo, up))
        for page, (lo, up) in sorted(sc["bounds"].items())
    ]
    return PageTable(
        exact=PageStack.stack(exact, (np.empty((0, dim)), no_ids)),
        quant=PageStack.stack(quant, (no_ids,), dim),
    )


def run_shard(kernel, task, n_queries, shipped):
    """Run a plan kernel, optionally through a sealed shared arena."""
    if not shipped:
        return kernel(task, range(n_queries), None)
    arena = SharedArena.create()
    assert arena is not None
    with arena:
        frozen = task.frozen(arena)
        arena.seal()
        return kernel(frozen, range(n_queries), None)


def assert_same_plan(got, want) -> None:
    assert got["refine"] == want["refine"]
    for key in ("exact_dists", "exact_ids"):
        assert got[key].dtype == want[key].dtype
        assert got[key].tobytes() == want[key].tobytes()
    assert got["candidate_points"] == want["candidate_points"]


# ----------------------------------------------------------------------
# Differential tests
# ----------------------------------------------------------------------
class TestPlanKernelsMatchPerPageOracle:
    @settings(max_examples=400, deadline=None)
    @given(sc=scenarios(), data=st.data())
    def test_knn_plan(self, sc, data):
        n = sc["n_points"]
        k = data.draw(
            st.one_of(st.integers(1, max(1, n) + 2), st.just(max(1, n)))
        )
        shipped = data.draw(st.booleans())
        task = PlanTask(
            queries=sc["queries"],
            k=k,
            cand_mask=sc["cand_mask"],
            lost=sc["lost"],
            metric=sc["metric"],
            table=stacked_table(sc),
        )
        plans = run_shard(
            plan_shard, task, len(sc["queries"]), shipped
        )
        for i, plan in enumerate(plans):
            pages = readable(sc["cand_mask"][i], sc["lost"])
            want = reference_knn(
                sc["queries"][i], k, pages, sc["exact"], sc["bounds"],
                sc["metric"],
            )
            assert_same_plan(plan, want)
            assert plan["lost"] == [
                p for p in np.flatnonzero(sc["cand_mask"][i]).tolist()
                if p in sc["lost"]
            ]

    @settings(max_examples=300, deadline=None)
    @given(sc=scenarios(), data=st.data())
    def test_range_plan(self, sc, data):
        radii = np.array(
            data.draw(
                st.lists(
                    st.integers(0, 8).map(lambda v: v / 4.0),
                    min_size=len(sc["queries"]),
                    max_size=len(sc["queries"]),
                )
            )
        )
        task = PlanTask(
            queries=sc["queries"],
            radii=radii,
            cand_mask=sc["cand_mask"],
            lost=sc["lost"],
            metric=sc["metric"],
            table=stacked_table(sc),
        )
        plans = run_shard(
            plan_shard, task, len(sc["queries"]),
            data.draw(st.booleans()),
        )
        for i, plan in enumerate(plans):
            pages = readable(sc["cand_mask"][i], sc["lost"])
            want = reference_range(
                sc["queries"][i], float(radii[i]), pages, sc["exact"],
                sc["bounds"], sc["metric"],
            )
            assert_same_plan(plan, want)

    def test_planted_tie_at_kth_upper_bound(self):
        """Zero-extent cells whose lower == upper == T': the filter
        for S must keep points *at* the threshold."""
        lo = np.array([[1.0], [1.0], [2.0], [1.0]])
        up = np.array([[1.0], [1.0], [3.0], [2.5]])
        sc = {
            "exact": {},
            "bounds": {0: (lo, up)},
            "part_ids": {0: np.arange(4, dtype=np.int64)},
            "dim": 1,
        }
        table = stacked_table(sc)
        query = np.array([0.0])
        for k in (1, 2, 3, 4):
            task = PlanTask(
                queries=query[None, :],
                k=k,
                cand_mask=np.ones((1, 1), dtype=bool),
                lost=frozenset(),
                metric=EUCLIDEAN,
                table=table,
            )
            (plan,) = plan_shard(task, range(1), None)
            want = reference_knn(
                query, k, np.array([0]), {}, sc["bounds"], EUCLIDEAN
            )
            assert plan["refine"] == want["refine"]


# ----------------------------------------------------------------------
# Assembly: refined records offered as one array
# ----------------------------------------------------------------------
def reference_assemble_knn(query, k, plan, points, table, metric):
    """The kNN assembly offering each refinement in turn."""
    best = KBest(k)
    intervals = {}
    best.offer_many(plan["exact_dists"], plan["exact_ids"])
    for key in plan["refine"]:
        if key in points:
            coords, pid = points[key]
            best.offer(float(metric.distances(query, coords[None])[0]), pid)
        else:
            pid, lo, hi = interval_for(query, key, table, metric)
            intervals[pid] = (lo, hi)
            best.offer(hi, pid)
    ids, dists = best.sorted_results()
    return ids, dists, intervals


class TestAssembleKnn:
    @settings(max_examples=300, deadline=None)
    @given(sc=scenarios(), data=st.data())
    def test_array_offer_matches_offers_in_turn(self, sc, data):
        """Refined records on the grid (ties at the k-th distance), some
        unreadable: the same ids, distance bytes and intervals."""
        n = sc["n_points"]
        k = data.draw(st.integers(1, max(1, n) + 2))
        table = stacked_table(sc)
        task = PlanTask(
            queries=sc["queries"], k=k, cand_mask=sc["cand_mask"],
            lost=sc["lost"], metric=sc["metric"], table=table,
        )
        plans = plan_shard(task, range(len(sc["queries"])), None)
        coord = st.integers(0, 3).map(lambda v: v / 2.0)
        (ids,) = table.quant.rows
        for i, plan in enumerate(plans):
            points = {
                key: (
                    np.array(
                        data.draw(
                            st.lists(
                                coord, min_size=sc["dim"],
                                max_size=sc["dim"],
                            )
                        )
                    ),
                    int(ids[table.quant.row(*key)]),
                )
                for key in plan["refine"]
                if data.draw(st.booleans())
            }
            args = (sc["queries"][i], k, plan, points, table, sc["metric"])
            got_ids, got_dists, got_iv = assemble_knn_query(*args)
            want_ids, want_dists, want_iv = reference_assemble_knn(*args)
            assert got_ids.tobytes() == want_ids.tobytes()
            assert got_dists.tobytes() == want_dists.tobytes()
            assert got_iv == want_iv


# ----------------------------------------------------------------------
# Shipping guard
# ----------------------------------------------------------------------
class TestArenaShipping:
    def test_arena_puts_do_not_grow_with_candidate_pages(self, rng):
        """A process-backed kNN batch freezes a fixed number of arrays,
        however many pages its queries examine."""
        data = rng.random((4000, 2)).astype(np.float32).astype(np.float64)
        disk = SimulatedDisk(
            DiskModel(t_seek=0.0025, t_xfer=0.0002, block_size=256)
        )
        tree = IQTree.build(data, disk=disk, optimize=False, fixed_bits=5)
        # Two queries in one corner: k=1 loads a handful of pages,
        # k=n loads all of them.
        queries = np.array([[0.05, 0.05], [0.06, 0.04]])
        real_put = SharedArena.put
        puts: list[int] = []

        def counting_put(self, array):
            puts[-1] += 1
            return real_put(self, array)

        counts = {}
        with QueryEngine(tree, workers=2, backend="process") as engine:
            with mock.patch.object(SharedArena, "put", counting_put):
                for k in (1, tree.n_points):
                    puts.append(0)
                    batch = engine.knn_batch(queries, k=k)
                    counts[k] = (batch.stats.pages_read, puts[-1])
        (few_pages, few_puts), (many_pages, many_puts) = (
            counts[1], counts[tree.n_points],
        )
        assert many_pages == tree.n_pages > 4 * few_pages
        assert few_puts > 0
        assert many_puts == few_puts
