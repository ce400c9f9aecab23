"""The vectorized access-probability pass against the per-target loop.

``access_probabilities`` evaluates all of its targets in one pass, and
the window planner asks for a run of neighbours at a time.  Both must
reproduce, float for float, the straightforward evaluation: one target
at a time, each over its own higher-priority page set (eqs. 2-5).  The
reference below is that evaluation, kept here only as the oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import search as search_mod
from repro.core.diagnostics import explain_query
from repro.core.tree import IQTree
from repro.costmodel.access_probability import (
    PageView,
    _poisson_lower_tail,
    access_probabilities,
    effective_cube_radius,
)
from repro.datasets import gaussian_clusters
from repro.geometry.mbr import mindist_to_boxes
from repro.geometry.metrics import EUCLIDEAN, MAXIMUM, LpMetric
from repro.storage.disk import DiskModel, SimulatedDisk
from repro.storage.scheduler import cost_balance_window

MANHATTAN = LpMetric(1.0)
METRICS = [MAXIMUM, EUCLIDEAN, MANHATTAN]


# ----------------------------------------------------------------------
# Reference: one target at a time
# ----------------------------------------------------------------------
def reference_fractions(query, radius, lowers, uppers):
    sides = uppers - lowers
    overlap = np.minimum(uppers, query + radius) - np.maximum(
        lowers, query - radius
    )
    overlap = np.maximum(overlap, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(
            sides > 0.0,
            overlap / np.where(sides > 0.0, sides, 1.0),
            (
                (lowers >= query - radius) & (lowers <= query + radius)
            ).astype(np.float64),
        )
    return np.prod(np.clip(frac, 0.0, 1.0), axis=1)


def reference_tail(rate, k):
    if rate <= 0.0:
        return 1.0
    log_term = -rate
    total = np.exp(log_term)
    for i in range(1, k):
        log_term += np.log(rate) - np.log(i)
        total += np.exp(log_term)
    return float(min(total, 1.0))


def reference_probabilities(query, pages, targets, metric, k):
    query = np.asarray(query, dtype=np.float64)
    dim = pages.lowers.shape[1]
    results = np.empty(len(targets), dtype=np.float64)
    for out_idx, i in enumerate(targets):
        radius = pages.mindists[i]
        higher = pages.mindists < radius
        higher[i] = False
        if not np.any(higher):
            results[out_idx] = 1.0
            continue
        fraction = reference_fractions(
            query,
            effective_cube_radius(float(radius), dim, metric),
            pages.lowers[higher],
            pages.uppers[higher],
        )
        fraction = np.clip(fraction, 0.0, 1.0 - 1e-15)
        rate = -float(np.sum(pages.counts[higher] * np.log1p(-fraction)))
        results[out_idx] = reference_tail(rate, k)
    return np.clip(results, 0.0, 1.0)


def reference_window(tree, query, pivot, page_mindists, processed, bound,
                     k, forbidden=frozenset()):
    """The window planner with one single-target call per block."""
    pending = ~processed
    if np.isfinite(bound):
        pending &= page_mindists <= bound
    pending[pivot] = True
    pending_idx = np.flatnonzero(pending)
    snapshot_of = np.full(tree.n_pages, -1, dtype=np.int64)
    snapshot_of[pending_idx] = np.arange(pending_idx.size)
    view = PageView(
        lowers=tree._lowers[pending_idx],
        uppers=tree._uppers[pending_idx],
        counts=tree._counts[pending_idx].astype(np.float64),
        mindists=page_mindists[pending_idx],
    )
    examined = {}

    def probability(block):
        snap = snapshot_of[block]
        if snap < 0:
            return 0.0
        examined[block] = float(
            reference_probabilities(query, view, [snap], tree.metric, k)[0]
        )
        return examined[block]

    first, last = cost_balance_window(
        pivot, tree.n_pages, probability, tree.disk.model,
        forbidden=forbidden,
    )
    to_process = [
        j for j in range(first, last + 1) if not processed[j] and pending[j]
    ]
    return first, last, to_process, examined


# ----------------------------------------------------------------------
# One pass == the per-target loop
# ----------------------------------------------------------------------
@st.composite
def page_views(draw):
    dim = draw(st.integers(1, 5))
    n = draw(st.integers(1, 12))
    coord = st.floats(0.0, 1.0, allow_nan=False, width=32)
    lowers = np.array(
        draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                      min_size=n, max_size=n)),
        dtype=np.float64,
    )
    # Zero extents are drawn often: flat sides take their own branch.
    extent = st.one_of(st.just(0.0), st.floats(0.0, 0.5, width=32))
    extents = np.array(
        draw(st.lists(st.lists(extent, min_size=dim, max_size=dim),
                      min_size=n, max_size=n)),
        dtype=np.float64,
    )
    # A few distinct mindist values, so ties are common, and 0 gives
    # targets with no higher-priority page.
    levels = draw(st.lists(st.floats(0.0, 1.5, width=32), min_size=1,
                           max_size=4))
    mindists = np.array(
        draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)),
        dtype=np.float64,
    )
    counts = np.array(
        draw(st.lists(st.integers(1, 400), min_size=n, max_size=n)),
        dtype=np.float64,
    )
    view = PageView(lowers=lowers, uppers=lowers + extents, counts=counts,
                    mindists=mindists)
    query = np.array(
        draw(st.lists(st.floats(-0.25, 1.25, width=32), min_size=dim,
                      max_size=dim)),
        dtype=np.float64,
    )
    targets = draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=n))
    return query, view, targets


class TestOnePassEqualsLoop:
    @settings(max_examples=300, deadline=None)
    @given(
        case=page_views(),
        metric=st.sampled_from(METRICS),
        k=st.sampled_from([1, 2, 10]),
    )
    def test_same_floats(self, case, metric, k):
        query, view, targets = case
        got = access_probabilities(
            query, view, np.array(targets, dtype=np.int64), metric=metric,
            k=k,
        )
        want = reference_probabilities(query, view, targets, metric, k)
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("metric", METRICS, ids=lambda m: repr(m))
    @pytest.mark.parametrize("k", [1, 10])
    def test_large_view(self, metric, k):
        # Pairwise-summation blocks only show past 8 and 128 terms.
        rng = np.random.default_rng(3)
        n, dim = 400, 7
        lowers = rng.random((n, dim)) * 0.8
        uppers = lowers + rng.random((n, dim)) * 0.2
        flat = rng.random((n, dim)) < 0.05
        uppers[flat] = lowers[flat]
        query = rng.random(dim)
        view = PageView(
            lowers=lowers,
            uppers=uppers,
            counts=rng.integers(1, 300, n).astype(np.float64),
            mindists=np.round(rng.random(n), 2),
        )
        targets = rng.permutation(n)[:40]
        got = access_probabilities(query, view, targets, metric=metric, k=k)
        want = reference_probabilities(query, view, targets, metric, k)
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 25])
    def test_poisson_tail_over_many_rates(self, k):
        rng = np.random.default_rng(k)
        rates = np.concatenate(
            [
                [0.0, -0.0, -1.0, 1e-300, 5e-324, 1e-12, 700.0, 1e4],
                rng.random(10_000) * 40.0,
                np.exp(rng.uniform(-30.0, 6.0, 10_000)),
            ]
        )
        got = _poisson_lower_tail(rates, k)
        want = [reference_tail(float(rate), k) for rate in rates]
        assert got.tolist() == want

    def test_one_dimension(self):
        view = PageView(
            lowers=np.array([[0.0], [0.2], [0.5], [0.5]]),
            uppers=np.array([[0.1], [0.2], [0.9], [0.9]]),
            counts=np.array([5.0, 9.0, 2.0, 7.0]),
            mindists=np.array([0.0, 0.1, 0.1, 0.4]),
        )
        for k in (1, 10):
            got = access_probabilities(
                np.array([0.05]), view, np.arange(4), k=k
            )
            want = reference_probabilities(
                np.array([0.05]), view, range(4), MAXIMUM, k
            )
            assert got.tolist() == want.tolist()


# ----------------------------------------------------------------------
# Window identity on small trees
# ----------------------------------------------------------------------
def _build(name):
    disk = SimulatedDisk(
        DiskModel(t_seek=0.010, t_xfer=0.001, block_size=512)
    )
    uniform = np.random.default_rng(7).random((1500, 6))
    if name == "uniform":
        return IQTree.build(uniform, disk=disk)
    if name == "clustered-pq":
        clustered = gaussian_clusters(1500, 8, n_clusters=12, spread=0.02,
                                      seed=4)
        return IQTree.build(clustered, disk=disk, codec="pq")
    return IQTree.build(uniform[:800], metric=EUCLIDEAN)


@pytest.fixture(
    scope="module",
    params=["uniform", "clustered-pq", "euclidean-default-disk"],
)
def small_tree(request):
    return _build(request.param)


def _planned_calls(tree, monkeypatch, k, n_queries=6):
    """Run kNN queries, recording the arguments and result of every
    window the search plans."""
    calls = []
    original = search_mod._plan_window

    def recording(t, query, pivot, page_mindists, processed, bound, k_,
                  forbidden=frozenset()):
        result = original(t, query, pivot, page_mindists, processed, bound,
                          k_, forbidden=forbidden)
        calls.append(
            ((query.copy(), pivot, page_mindists.copy(), processed.copy(),
              bound, k_), result)
        )
        return result

    monkeypatch.setattr(search_mod, "_plan_window", recording)
    rng = np.random.default_rng(11)
    lo, hi = tree.points.min(axis=0), tree.points.max(axis=0)
    for _ in range(n_queries):
        tree.nearest(lo + rng.random(tree.dim) * (hi - lo), k=k)
    monkeypatch.undo()
    assert calls, "no window was planned"
    return calls


class TestWindowIdentity:
    @pytest.mark.parametrize("k", [1, 10])
    def test_windows_and_probabilities_match(self, small_tree, monkeypatch,
                                             k):
        for args, result in _planned_calls(small_tree, monkeypatch, k):
            assert result == reference_window(small_tree, *args)

    def test_windows_match_with_forbidden_blocks(self, small_tree,
                                                 monkeypatch):
        rng = np.random.default_rng(5)
        for args, _ in _planned_calls(small_tree, monkeypatch, 3):
            pivot = args[1]
            near = [pivot + off for off in (-6, -2, 1, 3, 9)]
            forbidden = frozenset(
                int(b) for b in near
                if 0 <= b < small_tree.n_pages and rng.random() < 0.5
            )
            got = search_mod._plan_window(small_tree, *args,
                                          forbidden=forbidden)
            want = reference_window(small_tree, *args, forbidden=forbidden)
            assert got == want

    @pytest.mark.parametrize("end", ["first", "last"])
    @pytest.mark.parametrize("k", [1, 10])
    def test_pivot_at_either_end(self, small_tree, end, k):
        # One side of the scan is empty: the first pass holds one run.
        pivot = 0 if end == "first" else small_tree.n_pages - 1
        for bound in (np.inf, 0.5):
            args = _window_args(small_tree, pivot, bound, k)
            got = search_mod._plan_window(small_tree, *args)
            assert got == reference_window(small_tree, *args)

    @pytest.mark.parametrize("k", [1, 10])
    def test_fewer_pages_than_one_run(self, k):
        tree = _build("euclidean-default-disk")
        assert tree.n_pages < math.ceil(tree.disk.model.overread_window)
        for pivot in range(tree.n_pages):
            args = _window_args(tree, pivot, np.inf, k)
            got = search_mod._plan_window(tree, *args)
            assert got == reference_window(tree, *args)
            assert sorted(got[3]) == [
                j for j in range(tree.n_pages) if j != pivot
            ]

    @pytest.mark.parametrize("side", [-1, 1])
    def test_forbidden_block_next_to_the_pivot(self, small_tree, side):
        # The scan on that side stops at once: the first pass computed
        # its run, but none of it was examined.
        pivots = [
            p for p in range(small_tree.n_pages)
            if 0 <= p + side < small_tree.n_pages
        ]
        for pivot in pivots[:: max(1, len(pivots) // 6)]:
            forbidden = frozenset({pivot + side})
            args = _window_args(small_tree, pivot, np.inf, 3)
            got = search_mod._plan_window(small_tree, *args,
                                          forbidden=forbidden)
            want = reference_window(small_tree, *args, forbidden=forbidden)
            assert got == want
            assert not [j for j in got[3] if (j - pivot) * side > 0]

    @pytest.mark.parametrize("k", [1, 10])
    def test_explanation_holds_only_examined_blocks(self, small_tree,
                                                    monkeypatch, k):
        rng = np.random.default_rng(2)
        lo, hi = small_tree.points.min(axis=0), small_tree.points.max(axis=0)
        for _ in range(4):
            query = lo + rng.random(small_tree.dim) * (hi - lo)
            windows = []
            original = search_mod._plan_window

            def recording(*args, **kwargs):
                windows.append(original(*args, **kwargs))
                return windows[-1]

            monkeypatch.setattr(search_mod, "_plan_window", recording)
            explanation = explain_query(small_tree, query, k=k)
            monkeypatch.undo()
            examined = {}
            for window in windows:
                examined.update(window[3])
            for decision in explanation.decisions:
                if decision.outcome == "pivot":
                    assert decision.access_probability is None
                else:
                    assert decision.access_probability == examined.get(
                        decision.page
                    )


def _window_args(tree, pivot, bound, k):
    """Planner arguments for a query at the centre of ``pivot``'s MBR,
    with no page processed yet."""
    query = (tree._lowers[pivot] + tree._uppers[pivot]) / 2
    page_mindists = mindist_to_boxes(
        query, tree._lowers, tree._uppers, tree.metric
    )
    processed = np.zeros(tree.n_pages, dtype=bool)
    return query, pivot, page_mindists, processed, bound, k
