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
        assert quant.columns.shape == (4, 2, 5)
        assert quant.columns.flags.c_contiguous
        np.testing.assert_array_equal(quant.columns[:, 0], lo.T)
        np.testing.assert_array_equal(quant.columns[:, 1], up.T)
        np.testing.assert_array_equal(quant.boxes[0, 0], a_lo.min(axis=0))
        np.testing.assert_array_equal(
            quant.boxes[1, 2], (b_lo + 0.2).max(axis=0)
        )
        assert np.all(quant.boxes[0, 1] == np.inf)
        assert np.all(quant.boxes[1, 1] == -np.inf)
        assert table.exact.columns is None and table.exact.boxes is None

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
