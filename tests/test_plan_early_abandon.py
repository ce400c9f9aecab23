"""The early-abandoning plan kernels pick exactly what one full pass picks.

The oracle is a test-local copy of the one-pass stacked kernels: one
``mindist_to_boxes`` call over *every* candidate row, upper bounds for
the k seed rows and for S, ``lower <= tau`` over every row.  The
kernels under test first drop the rows whose partial fold of mindist
terms already exceeds the bound (tau0 for kNN, the radius for range)
and bound only the rest; they must return the same refinement list,
the same exact-page bytes and the same candidate counts.

Hypothesis plants the cases the drop test can get wrong: rows whose
full lower bound equals tau0 exactly (grid coordinates, where
``fl(fl(sqrt(x))**2) < x`` for many sums ``x``), twin rows nudged by
one ulp so their partial sum lies within an ulp of ``tau0**2``,
zero-extent dimensions, d = 1 and d below one stage, k at and past the
candidate count, and pages emptied of points -- under all three
metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import kernels
from repro.engine.kernels import (
    STAGE_DIMS,
    PageStack,
    PageTable,
    PlanTask,
    cell_boxes,
    plan_shard,
)
from repro.engine.shm import SharedArena
from repro.geometry.mbr import maxdist_to_boxes, mindist_to_boxes
from repro.geometry.metrics import EUCLIDEAN, MAXIMUM, LpMetric

METRICS = (EUCLIDEAN, MAXIMUM, LpMetric(3))


# ----------------------------------------------------------------------
# Oracle: the one-pass stacked kernels
# ----------------------------------------------------------------------
def _rows_at(selection, positions):
    if isinstance(selection, slice):
        return positions + selection.start
    return selection[positions]


def _kth(values, k):
    return np.partition(values, k - 1)[k - 1]


def one_pass_knn(query, k, pages, table, metric) -> dict:
    points, ids = table.exact.rows
    exact_sel = table.exact.select(pages)
    exact_dists = metric.distances(query, points[exact_sel])
    sel = table.quant.select(pages)
    lo, up = table.lower[sel], table.upper[sel]
    lower = mindist_to_boxes(query, lo, up, metric)
    candidate_points = exact_dists.size + lower.size
    if candidate_points < k:
        tau = np.inf
    else:
        seed = (
            np.argpartition(lower, k - 1)[:k]
            if lower.size > k
            else slice(None)
        )
        seed_up = maxdist_to_boxes(query, lo[seed], up[seed], metric)
        t_prime = _kth(np.concatenate([exact_dists, seed_up]), k)
        in_s = np.flatnonzero(lower <= t_prime)
        s_up = maxdist_to_boxes(query, lo[in_s], up[in_s], metric)
        tau = _kth(np.concatenate([exact_dists, s_up]), k)
    survivors = np.flatnonzero(lower <= tau)
    return {
        "exact_dists": exact_dists,
        "exact_ids": ids[exact_sel],
        "refine": table.quant.keys(_rows_at(sel, survivors)),
        "candidate_points": candidate_points,
    }


def one_pass_range(query, radius, pages, table, metric) -> dict:
    points, ids = table.exact.rows
    exact_sel = table.exact.select(pages)
    dists = metric.distances(query, points[exact_sel])
    inside = dists <= radius
    sel = table.quant.select(pages)
    lo, up = table.lower[sel], table.upper[sel]
    lower = mindist_to_boxes(query, lo, up, metric)
    survivors = np.flatnonzero(lower <= radius)
    return {
        "exact_ids": ids[exact_sel][inside].astype(np.int64, copy=False),
        "exact_dists": dists[inside].astype(np.float64, copy=False),
        "refine": table.quant.keys(_rows_at(sel, survivors)),
        "candidate_points": dists.size + lower.size,
    }


def readable(cand_row, lost) -> np.ndarray:
    return np.array(
        [p for p in np.flatnonzero(cand_row).tolist() if p not in lost],
        dtype=np.int64,
    )


def assert_same_plan(got, want) -> None:
    assert got["refine"] == want["refine"]
    for key in ("exact_dists", "exact_ids"):
        assert got[key].dtype == want[key].dtype
        assert got[key].tobytes() == want[key].tobytes()
    assert got["candidate_points"] == want["candidate_points"]
    assert len(got["refine"]) <= got["bounded"]


@dataclass
class BuiltTable(PageTable):
    """A page table plus the row-major corners of the quantized pages
    it was built from, in stack row order: the oracles read these, not
    the stack under test."""

    lower: np.ndarray = None
    upper: np.ndarray = None


def make_table(dim, exact, quant) -> BuiltTable:
    """``exact``: {page: (points, ids)}; ``quant``: {page: (lo, up, ids)}."""
    no_ids = np.empty(0, dtype=np.int64)
    pages = sorted(quant.items())
    none = np.empty((0, dim))
    return BuiltTable(
        exact=PageStack.stack(sorted(exact.items()), (none, no_ids)),
        quant=PageStack.stack(
            [(p, (ids,), cell_boxes(lo, up)) for p, (lo, up, ids) in pages],
            (no_ids,),
            dim,
        ),
        lower=np.concatenate([none] + [lo for _p, (lo, _up, _i) in pages]),
        upper=np.concatenate([none] + [up for _p, (_lo, up, _i) in pages]),
    )


def run_shard(kernel, task, n_queries, shipped):
    if not shipped:
        return kernel(task, range(n_queries), None)
    arena = SharedArena.create()
    assert arena is not None
    with arena:
        frozen = task.frozen(arena)
        arena.seal()
        return kernel(frozen, range(n_queries), None)


def knn_task(queries, k, table, metric, cand_mask=None, lost=frozenset()):
    if cand_mask is None:
        n_pages = 1 + max(
            [int(p) for s in (table.exact, table.quant) for p in s.pages]
            or [0]
        )
        cand_mask = np.ones((len(queries), n_pages), dtype=bool)
    return PlanTask(
        queries=queries, k=k, cand_mask=cand_mask, lost=lost,
        metric=metric, table=table,
    )


# ----------------------------------------------------------------------
# Adversarial tables
# ----------------------------------------------------------------------
@st.composite
def scenarios(draw):
    """Grid pages with planted ties and one-ulp twins."""
    dim = draw(st.sampled_from([1, 2, 3, STAGE_DIMS - 1, STAGE_DIMS,
                                STAGE_DIMS + 1, 2 * STAGE_DIMS]))
    coord = st.integers(0, 3).map(lambda v: v / 2.0)
    row = st.lists(coord, min_size=dim, max_size=dim)
    n_pages = draw(st.integers(1, 6))
    exact, quant, lost = {}, {}, set()
    next_id = 0
    for page in range(n_pages):
        kind = draw(st.sampled_from(["exact", "quant", "quant", "lost"]))
        m = draw(st.integers(0, 6))  # 0: a page emptied of points
        rows = [draw(row) for _ in range(m)]
        base = np.array(rows, dtype=np.float64).reshape(m, dim)
        ids = np.arange(next_id, next_id + m, dtype=np.int64)
        next_id += m
        if kind == "lost":
            lost.add(page)
        elif kind == "exact":
            exact[page] = (base, ids)
        else:
            widths = np.array(
                draw(
                    st.lists(
                        st.sampled_from([0.0, 0.0, 0.5, 1.0]),
                        min_size=dim, max_size=dim,
                    )
                )
            )
            quant[page] = [base, base + widths, ids]
    # Twins: a quantized row copied onto a later quantized page, exact
    # or with one corner coordinate nudged by one ulp either way -- a
    # row whose bound ties another's, or misses it by an ulp.
    quant_pages = sorted(quant)
    if len(quant_pages) > 1:
        for _ in range(draw(st.integers(0, 4))):
            src = draw(st.sampled_from(quant_pages[:-1]))
            dst = draw(st.sampled_from([p for p in quant_pages if p > src]))
            lo, up, _ids = quant[src]
            if not len(lo):
                continue
            r = draw(st.integers(0, len(lo) - 1))
            t_lo, t_up = lo[r].copy(), up[r].copy()
            j = draw(st.integers(0, dim - 1))
            nudge = draw(st.sampled_from([0.0, -np.inf, np.inf]))
            if nudge:
                t_lo[j] = np.nextafter(t_lo[j], nudge)
                t_up[j] = max(t_up[j], t_lo[j])
            d_lo, d_up, d_ids = quant[dst]
            quant[dst] = [
                np.vstack([d_lo, t_lo]),
                np.vstack([d_up, t_up]),
                np.append(d_ids, next_id),
            ]
            next_id += 1
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
        "table": make_table(
            dim, exact, {p: tuple(v) for p, v in quant.items()}
        ),
        "lost": frozenset(lost),
        "queries": queries,
        "cand_mask": cand_mask,
        "n_points": next_id,
        "metric": draw(st.sampled_from(METRICS)),
    }


# ----------------------------------------------------------------------
# Differential tests
# ----------------------------------------------------------------------
class TestAbandoningMatchesOnePass:
    @settings(max_examples=500, deadline=None)
    @given(sc=scenarios(), data=st.data())
    def test_knn_plan(self, sc, data):
        n = sc["n_points"]
        k = data.draw(st.one_of(st.integers(1, 3), st.integers(1, n + 2)))
        task = knn_task(
            sc["queries"], k, sc["table"], sc["metric"],
            sc["cand_mask"], sc["lost"],
        )
        plans = run_shard(
            plan_shard, task, len(sc["queries"]),
            data.draw(st.booleans()),
        )
        for i, plan in enumerate(plans):
            pages = readable(sc["cand_mask"][i], sc["lost"])
            want = one_pass_knn(
                sc["queries"][i], k, pages, sc["table"], sc["metric"]
            )
            assert_same_plan(plan, want)

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
            queries=sc["queries"], radii=radii, cand_mask=sc["cand_mask"],
            lost=sc["lost"], metric=sc["metric"], table=sc["table"],
        )
        plans = run_shard(
            plan_shard, task, len(sc["queries"]),
            data.draw(st.booleans()),
        )
        for i, plan in enumerate(plans):
            pages = readable(sc["cand_mask"][i], sc["lost"])
            want = one_pass_range(
                sc["queries"][i], float(radii[i]), pages, sc["table"],
                sc["metric"],
            )
            assert_same_plan(plan, want)


class TestPlantedBoundaries:
    """Fixed tables on both sides of the drop test's boundary."""

    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
    @pytest.mark.parametrize("dim", [1, 3, STAGE_DIMS, 2 * STAGE_DIMS + 1])
    def test_row_at_tau0(self, metric, dim):
        """Two points at the k-th distance on different pages; tau0 is
        that distance and both are refined.  For the sum (1, 1, 1) of
        squares ``fl(fl(sqrt(3))**2) < 3``, so a drop test without
        slack would abandon both."""
        point = np.zeros(dim)
        point[:3] = 1.0
        near = np.vstack([point, point + 2.0])
        twin = point[::-1].copy() if dim >= 3 else point.copy()
        quant = {
            0: (near, near, np.array([0, 1])),
            1: (twin[None, :], twin[None, :], np.array([2])),
        }
        table = make_table(dim, {}, quant)
        query = np.zeros((1, dim))
        for k in (1, 2, 3):
            (plan,) = plan_shard(
                knn_task(query, k, table, metric), range(1), None
            )
            want = one_pass_knn(query[0], k, np.array([0, 1]), table, metric)
            assert_same_plan(plan, want)
            assert (1, 0) in plan["refine"]

    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
    @pytest.mark.parametrize("dim", [1, STAGE_DIMS - 1, 2 * STAGE_DIMS])
    def test_partial_within_an_ulp_of_tau0(self, metric, dim):
        """Rows one ulp inside, at and one ulp outside tau0 along one
        axis: the last one's first-stage partial sum of squares is the
        float right above ``tau0**2``."""
        dist = np.sqrt(0.5)
        offsets = [np.nextafter(dist, -np.inf), dist,
                   np.nextafter(dist, np.inf)]
        assert offsets[2] ** 2 == np.nextafter(dist * dist, np.inf)
        seed = np.zeros((1, dim))
        seed[0, 0] = dist
        rows = np.zeros((len(offsets), dim))
        rows[:, 0] = offsets
        quant = {
            0: (seed, seed, np.array([0])),
            1: (rows, rows, np.arange(1, 4)),
        }
        table = make_table(dim, {}, quant)
        query = np.zeros((1, dim))
        for k in (1, 2, 3):
            (plan,) = plan_shard(
                knn_task(query, k, table, metric), range(1), None
            )
            want = one_pass_knn(query[0], k, np.array([0, 1]), table, metric)
            assert_same_plan(plan, want)
        assert (1, 1) in plan["refine"]  # the exact tie at k = 2, 3
        radius = float(metric.distances(query[0], seed)[0])
        (plan,) = plan_shard(
            PlanTask(
                queries=query, radii=np.array([radius]),
                cand_mask=np.ones((1, 2), dtype=bool), lost=frozenset(),
                metric=metric, table=table,
            ),
            range(1),
            None,
        )
        assert_same_plan(
            plan,
            one_pass_range(query[0], radius, np.array([0, 1]), table, metric),
        )

    def test_k_at_and_past_the_candidate_count(self):
        lo = np.arange(6, dtype=float).reshape(6, 1)
        table = make_table(1, {}, {0: (lo, lo + 0.5, np.arange(6))})
        query = np.array([[2.2]])
        for k in (5, 6, 7, 50):
            (plan,) = plan_shard(
                knn_task(query, k, table, EUCLIDEAN), range(1), None
            )
            assert_same_plan(
                plan, one_pass_knn(query[0], k, np.array([0]), table, EUCLIDEAN)
            )
        assert plan["bounded"] == 6  # nothing abandoned at k > count

    def test_only_empty_candidate_pages(self):
        empty = np.empty((0, 2))
        no_ids = np.empty(0, dtype=np.int64)
        table = make_table(2, {}, {0: (empty, empty, no_ids)})
        (plan,) = plan_shard(
            knn_task(np.zeros((1, 2)), 1, table, EUCLIDEAN), range(1), None
        )
        assert plan["refine"] == [] and plan["bounded"] == 0


# ----------------------------------------------------------------------
# The abandoning path is taken
# ----------------------------------------------------------------------
def uniform_table(rng, n_pages=16, per_page=250, dim=16):
    """Pages of uniform points in 8-bit grid cells, split on axis 0."""
    points = rng.random((n_pages * per_page, dim))
    points = points[np.argsort(points[:, 0], kind="stable")]
    lo = np.floor(points * 256) / 256
    quant = {
        page: (
            lo[page * per_page : (page + 1) * per_page],
            lo[page * per_page : (page + 1) * per_page] + 1 / 256,
            np.arange(page * per_page, (page + 1) * per_page),
        )
        for page in range(n_pages)
    }
    return make_table(dim, {}, quant)


class TestAbandoningDropsRows:
    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
    def test_uniform_16d_knn_drops_most_rows(self, rng, metric):
        table = uniform_table(rng)
        queries = rng.random((8, 16))
        real = kernels._abandon
        kept_counts = []

        def spy(*args):
            kept = real(*args)
            kept_counts.append(kernels._selected(kept))
            return kept

        task = knn_task(queries, 10, table, metric)
        with mock.patch.object(kernels, "_abandon", spy):
            plans = plan_shard(task, range(len(queries)), None)
        assert len(kept_counts) == len(queries)
        n_rows = table.quant.offsets[-1]
        for i, plan in enumerate(plans):
            assert plan["candidate_points"] == n_rows
            assert plan["bounded"] == kept_counts[i] < n_rows // 2
            assert_same_plan(
                plan,
                one_pass_knn(
                    queries[i], 10, np.arange(16), table, metric
                ),
            )

    def test_far_pages_are_skipped(self, rng):
        """Clustered pages: only the rows of pages whose bounding box is
        within tau0 reach the exact pass."""
        dim = 16
        quant = {}
        for page in range(6):
            lo = page * 10.0 + rng.random((40, dim))
            quant[page] = (lo, lo + 0.01, np.arange(40 * page, 40 * page + 40))
        table = make_table(dim, {}, quant)
        queries = 20.0 + rng.random((3, dim))
        plans = plan_shard(
            knn_task(queries, 5, table, EUCLIDEAN), range(3), None
        )
        for i, plan in enumerate(plans):
            assert plan["bounded"] <= 40
            assert_same_plan(
                plan,
                one_pass_knn(queries[i], 5, np.arange(6), table, EUCLIDEAN),
            )

    def test_uniform_16d_range_drops_rows(self, rng):
        table = uniform_table(rng)
        queries = rng.random((4, 16))
        radii = np.full(4, 0.6)
        plans = plan_shard(
            PlanTask(
                queries=queries, radii=radii,
                cand_mask=np.ones((4, 16), dtype=bool), lost=frozenset(),
                metric=EUCLIDEAN, table=table,
            ),
            range(4),
            None,
        )
        for i, plan in enumerate(plans):
            assert plan["bounded"] < plan["candidate_points"]
            assert_same_plan(
                plan,
                one_pass_range(
                    queries[i], 0.6, np.arange(16), table, EUCLIDEAN
                ),
            )


# ----------------------------------------------------------------------
# In-place bounding: the pages' own blocks against one joined block
# ----------------------------------------------------------------------
def joined_table(table) -> PageTable:
    """The reference layout: the quantized blocks joined into one."""
    return PageTable(exact=table.exact, quant=table.quant.joined())


def assert_same_bounds(got, want) -> None:
    """Plans of two layouts: bit-equal, ``bounded`` included."""
    assert_same_plan(got, want)
    assert got["bounded"] == want["bounded"]


def plans_by_layout(query, param, pages, table, metric, kind):
    """One query's plan over the per-page, the joined and the frozen
    (shipped, then resolved) layouts of ``table``."""
    plan = {
        "knn": kernels.plan_knn_query, "range": kernels.plan_range_query
    }[kind]
    out = []
    arena = SharedArena.create()
    assert arena is not None
    with arena:
        frozen = table.frozen(arena)
        arena.seal()
        for layout in (table, joined_table(table), frozen.resolved()):
            scratch = kernels._Scratch(layout.quant)
            out.append(plan(query, param, pages, layout, metric, scratch))
    return out


def clustered_pages(centres, per_page=40, dim=16, seed=3):
    """One page of ``per_page`` small cells around each centre."""
    rng = np.random.default_rng(seed)
    quant = {}
    for page, centre in enumerate(centres):
        lo = np.asarray(centre, dtype=float) + rng.random((per_page, dim))
        quant[page] = (
            lo, lo + 0.01, np.arange(page * per_page, (page + 1) * per_page)
        )
    return make_table(dim, {}, quant)


class TestInPlaceBounding:
    @settings(max_examples=300, deadline=None)
    @given(sc=scenarios(), data=st.data())
    def test_layouts_bound_alike(self, sc, data):
        """Planted tables (zero-row pages, lost pages, d = 1 to past two
        stages, k past the candidate count): every kernel gives the same
        floats over every layout."""
        table, metric = sc["table"], sc["metric"]
        k = data.draw(st.integers(1, sc["n_points"] + 2))
        radius = data.draw(st.integers(0, 8)) / 4.0
        joined = joined_table(table)
        for i, query in enumerate(sc["queries"]):
            pages = readable(sc["cand_mask"][i], sc["lost"])
            for kind, param in (("knn", k), ("range", radius)):
                got, *want = plans_by_layout(
                    query, param, pages, table, metric, kind
                )
                for other in want:
                    assert_same_bounds(got, other)
            quant = table.quant
            slots = quant.slots(pages)
            lower = kernels._page_lower(query, quant, slots, metric)
            n_quant = (quant.offsets[slots + 1] - quant.offsets[slots]).sum()
            if n_quant >= k:  # as plan_knn_query calls it
                seeds = [
                    kernels._seed_bound(
                        query, k, slots, lower, layout.quant, np.empty(0),
                        metric,
                    ).tobytes()
                    for layout in (table, joined)
                ]
                assert seeds[0] == seeds[1]
            for key in quant.keys(np.arange(quant.offsets[-1])):
                assert kernels.interval_for(
                    query, key, table, metric
                ) == kernels.interval_for(query, key, joined, metric)

    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
    def test_survivors_in_none_one_and_non_adjacent_pages(self, metric):
        """Pages 1 and 3 lie at the same distance from the query, page 2
        between them in the stack is far: kNN keeps rows of two
        non-adjacent pages, a near query rows of one, a small radius
        rows of none."""
        far = 60.0
        table = clustered_pages(
            [[far] * 16, [-10.0] + [0.0] * 15, [0.0] + [far] * 15,
             [9.0] + [0.0] * 15, [-far] * 16]
        )
        query = np.full(16, 0.5)
        pages = np.arange(5)
        got, *want = plans_by_layout(query, 60, pages, table, metric, "knn")
        for other in want:
            assert_same_bounds(got, other)
        assert {p for p, _l in got["refine"]} == {1, 3}
        assert got["bounded"] < 80
        near = np.full(16, 0.5)
        near[0] = 9.5
        got, *want = plans_by_layout(near, 5, pages, table, metric, "knn")
        for other in want:
            assert_same_bounds(got, other)
        assert {p for p, _l in got["refine"]} == {3}
        got, *want = plans_by_layout(query, 1.0, pages, table, metric, "range")
        for other in want:
            assert_same_bounds(got, other)
        assert got["refine"] == [] and got["bounded"] == 0

    def test_one_query_batch_bounds_the_entry_block_in_place(self):
        """A warm one-query batch bounds its surviving page in the
        store entry's own block, and copies no block into its table."""
        from repro.core.tree import IQTree
        from repro.engine import QueryEngine
        from repro.engine.decode import PageDecodeCache

        data = np.random.default_rng(6).random((2500, 16))
        tree = IQTree.build(data, optimize=False, fixed_bits=5)
        tree.use_decoded_cache(1 << 30)
        engine = QueryEngine(tree)
        query = data[:1] + 0.001
        engine.knn_batch(query, k=4)  # warm: entries with boxes
        real_table = PageDecodeCache.page_table
        real_columns = PageStack.columns
        tables, reads = [], []

        def spy_table(self):
            tables.append(real_table(self))
            return tables[-1]

        def spy_columns(self, rows, dims=slice(None), out=None):
            reads.append(real_columns(self, rows, dims, out))
            return reads[-1]

        with mock.patch.object(PageDecodeCache, "page_table", spy_table), \
                mock.patch.object(PageStack, "columns", spy_columns):
            engine.knn_batch(query, k=4)
        (table,) = tables
        entries = [
            tree._cached_entry(int(p)).bounds[0] for p in table.quant.pages
        ]
        assert len(entries) > 1
        assert all(a is b for a, b in zip(table.quant.blocks, entries))
        assert any(
            np.shares_memory(read, block)
            for read in reads
            for block in entries
        )

    def test_several_query_batch_reads_one_joined_block(self):
        """A batch of several queries plans over one joined block (one
        copy per batch), and answers as its queries do one by one."""
        from repro.core.tree import IQTree
        from repro.engine import QueryEngine

        data = np.random.default_rng(6).random((2500, 16))
        tree = IQTree.build(data, optimize=False, fixed_bits=5)
        tree.use_decoded_cache(1 << 30)
        engine = QueryEngine(tree)
        queries = data[:3] + 0.001
        real_shard = kernels.plan_shard
        tables = []

        def spy_shard(task, indices, *args, **kwargs):
            tables.append(task.table)
            return real_shard(task, indices, *args, **kwargs)

        with mock.patch("repro.engine.engine.plan_shard", spy_shard):
            batch = engine.knn_batch(queries, k=4)
            alone = [engine.knn_batch(q[None], k=4) for q in queries]
        joined, *single = tables
        assert len(joined.quant.blocks) == 1
        assert all(len(t.quant.blocks) == t.quant.pages.size for t in single)
        for got, (one,) in zip(batch, alone):
            assert got.ids.tobytes() == one.ids.tobytes()
            assert got.distances.tobytes() == one.distances.tobytes()


# ----------------------------------------------------------------------
# Layouts and the metric decomposition
# ----------------------------------------------------------------------
class TestStackLayouts:
    def test_columns_and_boxes(self, rng):
        a_lo = rng.random((3, 4))
        b_lo = rng.random((2, 4))
        empty = np.empty((0, 4))
        table = make_table(
            4,
            {5: (rng.random((2, 4)), np.array([7, 8]))},
            {
                1: (a_lo, a_lo + 0.1, np.arange(3)),
                2: (empty, empty, np.empty(0, dtype=np.int64)),
                4: (b_lo, b_lo + 0.2, np.arange(3, 5)),
            },
        )
        quant = table.quant
        lo = np.concatenate([a_lo, empty, b_lo])
        up = np.concatenate([a_lo + 0.1, empty, b_lo + 0.2])
        # The stack holds each page's own block; joined, they are one
        # C-contiguous block of every row.
        assert len(quant.blocks) == 3
        assert [b.shape for b in quant.blocks] == [
            (4, 2, 3), (4, 2, 0), (4, 2, 2)
        ]
        joined = quant.joined().blocks
        assert len(joined) == 1 and joined[0].shape == (4, 2, 5)
        assert joined[0].flags.c_contiguous
        for columns in (joined[0], quant.columns(slice(0, 5))):
            np.testing.assert_array_equal(columns[:, 0], lo.T)
            np.testing.assert_array_equal(columns[:, 1], up.T)
        assert quant.boxes.shape == (3, 2, 4)
        np.testing.assert_array_equal(quant.boxes[0, 0], a_lo.min(axis=0))
        np.testing.assert_array_equal(
            quant.boxes[2, 1], (b_lo + 0.2).max(axis=0)
        )
        assert np.all(quant.boxes[1, 0] == np.inf)
        assert np.all(quant.boxes[1, 1] == -np.inf)
        assert table.exact.blocks is None and table.exact.boxes is None

    def test_columns_of_several_blocks(self, rng):
        """Rows spread over several pages' blocks -- a run of one, all
        of another, scattered rows of a third -- are gathered into
        ``out``, dimension range by dimension range, and equal the
        joined block's gather."""
        dim = 10
        quant = {}
        for page, n in enumerate((6, 0, 5, 7)):
            lo = rng.random((n, dim))
            quant[page] = (lo, lo + 0.1, np.arange(n) + 100 * page)
        stack = make_table(dim, {}, quant).quant
        joined = stack.joined().blocks[0]
        rows = np.array([2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 17])
        for dims in (slice(None), slice(0, 8), slice(8, 10)):
            want = joined[dims][:, :, rows]
            out = np.empty_like(want)
            got = stack.columns(rows, dims, out=out)
            assert got is out
            assert got.tobytes() == want.tobytes()
            assert stack.columns(rows, dims).tobytes() == want.tobytes()
        got = stack.columns(slice(3, 14))
        assert got.tobytes() == joined[:, :, 3:14].tobytes()

    def test_row_raises_for_a_page_not_held(self):
        lo = np.zeros((3, 2))
        table = make_table(
            2, {}, {2: (lo[:2], lo[:2], np.arange(2)), 5: (lo, lo, np.arange(3))}
        )
        quant = table.quant
        assert quant.row(2, 1) == 1
        assert quant.row(5, 0) == 2
        for page in (0, 3, 9):
            with pytest.raises(KeyError):
                quant.row(page, 0)
        with pytest.raises(KeyError):
            quant.row(2, 2)  # page 2 holds two points
        with pytest.raises(KeyError):
            make_table(2, {}, {}).quant.row(0, 0)


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.name)
def test_metric_decomposition(rng, metric):
    vectors = rng.normal(size=(50, 7))
    folded = metric.fold.reduce(metric.terms(vectors), axis=-1)
    np.testing.assert_allclose(
        folded, [metric.power(x) for x in metric.lengths(vectors)],
        rtol=1e-12,
    )
    # A fold over a prefix of the dimensions never exceeds the whole.
    prefix = metric.fold.reduce(metric.terms(vectors[:, :3]), axis=-1)
    assert np.all(prefix <= folded)
