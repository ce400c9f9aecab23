"""One check per query argument, shared by every search entry point.

``checked_k`` and ``checked_radii`` validate the neighbor count and the
range radii for the single-query searches, the batch engine and the
shard router alike, so a bad argument raises ``SearchError`` wherever
it enters -- never a numpy error from deep inside a kernel, and never a
silently wrong answer.
"""

import warnings

import numpy as np
import pytest

from repro.core.search import (
    checked_k,
    checked_radii,
    nearest_neighbors,
    range_search,
)
from repro.core.tree import IQTree
from repro.engine import QueryEngine, ShardRouter
from repro.exceptions import SearchError
from tests.scenarios import assert_matches_scan


@pytest.fixture(scope="module")
def tree():
    points = np.random.default_rng(18).random((2000, 8))
    return IQTree.build(points)


@pytest.fixture(scope="module")
def router(tree):
    with ShardRouter(tree, shards=2) as router:
        yield router


@pytest.fixture
def queries():
    return np.random.default_rng(7).random((3, 8))


class TestCheckedK:
    @pytest.mark.parametrize("k", [1, 5, 10, np.int64(3), np.int32(10)])
    def test_integers_in_range_pass(self, k):
        assert checked_k(k, 10) == int(k)
        assert type(checked_k(k, 10)) is int

    @pytest.mark.parametrize("k", [0, -1, 11])
    def test_out_of_range_raises(self, k):
        with pytest.raises(SearchError):
            checked_k(k, 10)

    @pytest.mark.parametrize("k", [2.5, 2.0, "3", None, np.float64(2.0)])
    def test_non_integers_raise(self, k):
        with pytest.raises(SearchError, match="integer"):
            checked_k(k, 10)


class TestCheckedRadii:
    def test_scalar_is_shared_by_every_query(self):
        radii = checked_radii(0.25, 3)
        assert radii.shape == (3,) and radii.dtype == np.float64
        assert radii.flags.c_contiguous
        assert radii.tolist() == [0.25, 0.25, 0.25]

    def test_per_query_array_passes_through(self):
        radii = checked_radii([0.1, 0.2, 0.0], 3)
        assert radii.tolist() == [0.1, 0.2, 0.0]

    @pytest.mark.parametrize(
        "radius", [np.nan, np.inf, -np.inf, -0.1, [0.1, np.nan, 0.2]]
    )
    def test_non_finite_or_negative_raises(self, radius):
        with pytest.raises(SearchError, match="non-negative and finite"):
            checked_radii(radius, 3)

    @pytest.mark.parametrize(
        "radius", [[0.1, 0.2], [[0.1, 0.2, 0.3]], [0.1], np.zeros((3, 1))]
    )
    def test_wrong_shape_raises(self, radius):
        with pytest.raises(SearchError, match="shape"):
            checked_radii(radius, 3)

    def test_non_numeric_raises(self):
        with pytest.raises(SearchError, match="numeric"):
            checked_radii("wide", 3)


class TestSingleQueryRadius:
    """A NaN or infinite radius is refused by the single-query range
    search, as by the batch paths -- not answered with no points or
    with every point."""

    @pytest.mark.parametrize("radius", [np.nan, np.inf])
    def test_range_query_rejects_non_finite(self, tree, queries, radius):
        with pytest.raises(SearchError):
            tree.range_query(queries[0], radius)
        with pytest.raises(SearchError):
            range_search(tree, queries[0], radius)

    def test_finite_radius_still_answers(self, tree, queries):
        got = tree.range_query(queries[0], 0.3)
        dists = tree.metric.distances(queries[0], tree.points)
        want = np.flatnonzero(dists <= 0.3).tolist()
        assert sorted(got.ids.tolist()) == want


class TestNonFiniteQueries:
    """A NaN or infinite query coordinate is refused before any page
    is read."""

    def test_nan_query_rejected(self, tree):
        q = np.full(8, np.nan)
        with pytest.raises(SearchError):
            tree.nearest(q)
        with pytest.raises(SearchError):
            tree.range_query(q, 1.0)

    def test_inf_query_rejected(self, tree):
        q = np.full(8, np.inf)
        with pytest.raises(SearchError):
            tree.nearest(q)

    def test_partial_nan_rejected(self, tree):
        q = np.zeros(8)
        q[3] = np.nan
        with pytest.raises(SearchError):
            tree.nearest(q)


class TestBatchRadiusShape:
    """A wrong-shaped radius array raises SearchError, not numpy's
    ValueError from ``broadcast_to``."""

    @pytest.mark.parametrize("radius", [[0.1, 0.2], [[0.1, 0.2, 0.3]]])
    def test_engine(self, tree, queries, radius):
        with QueryEngine(tree) as engine:
            with pytest.raises(SearchError):
                engine.range_batch(queries, np.array(radius))

    @pytest.mark.parametrize("radius", [[0.1, 0.2], [[0.1, 0.2, 0.3]]])
    def test_router(self, router, queries, radius):
        with pytest.raises(SearchError):
            router.range_batch(queries, np.array(radius))

    @pytest.mark.parametrize("radius", [np.nan, np.inf])
    def test_non_finite_rejected_everywhere(
        self, tree, router, queries, radius
    ):
        with QueryEngine(tree) as engine:
            with pytest.raises(SearchError):
                engine.range_batch(queries, radius)
        with pytest.raises(SearchError):
            router.range_batch(queries, radius)


class TestNonIntegralK:
    """``k=2.5`` raises SearchError on every path, not numpy's
    ``TypeError: Partition index must be integer`` from a kernel."""

    def test_single_query(self, tree, queries):
        with pytest.raises(SearchError):
            nearest_neighbors(tree, queries[0], k=2.5)
        with pytest.raises(SearchError):
            tree.nearest(queries[0], k=2.5)

    def test_engine(self, tree, queries):
        with QueryEngine(tree) as engine:
            with pytest.raises(SearchError):
                engine.knn_batch(queries, k=2.5)

    def test_router(self, router, queries):
        with pytest.raises(SearchError):
            router.knn_batch(queries, k=2.5)

    def test_numpy_integer_k_matches_int_k(self, tree, queries):
        with QueryEngine(tree) as engine:
            want = engine.knn_batch(queries, k=4)
            got = engine.knn_batch(queries, k=np.int64(4))
        for w, g in zip(want, got):
            assert np.array_equal(w.ids, g.ids)
            assert np.array_equal(w.distances, g.distances)


class TestKAfterDeletions:
    """Deleted rows stay in the point array until ``reoptimize``; k is
    checked against the points still indexed, so a k between the two
    counts raises instead of returning fewer than k ids."""

    @pytest.fixture(scope="class")
    def thinned(self):
        tree = IQTree.build(np.random.default_rng(3).random((500, 4)))
        for pid in range(0, 500, 5):
            tree.delete(pid)
        assert (tree.n_points, tree.n_live_points) == (500, 400)
        return tree

    @pytest.mark.parametrize("k", [401, 500, 501])
    def test_k_above_live_points_raises(self, thinned, queries, k):
        with pytest.raises(SearchError, match="400 indexed points"):
            thinned.nearest(queries[0, :4], k=k)
        with QueryEngine(thinned) as engine:
            with pytest.raises(SearchError, match="400 indexed points"):
                engine.knn_batch(queries[:, :4], k=k)
        with ShardRouter(thinned, shards=2) as router:
            with pytest.raises(SearchError, match="400 indexed points"):
                router.knn_batch(queries[:, :4], k=k)

    def test_k_equal_to_live_points_answers_all(self, thinned, queries):
        queries = queries[:, :4]
        res = thinned.nearest(queries[0], k=400)
        assert_matches_scan(thinned, queries[0], res, k=400)
        for server in (ShardRouter(thinned, shards=3), QueryEngine(thinned)):
            with server:
                for q, got in zip(queries, server.knn_batch(queries, k=400)):
                    assert_matches_scan(thinned, q, got, k=400)


class TestRadiusCap:
    """A NaN or negative cap is refused: no page's mindist compares
    below it, so it would empty every answer without an error."""

    @pytest.mark.parametrize("cap", [np.nan, -1.0])
    def test_invalid_cap_raises(self, tree, queries, cap):
        with QueryEngine(tree) as engine:
            with pytest.raises(SearchError, match="radius_cap"):
                engine.knn_batch(queries, k=5, radius_cap=np.full(3, cap))

    def test_infinite_cap_is_no_cap(self, tree, queries):
        with QueryEngine(tree) as engine:
            want = engine.knn_batch(queries, k=5)
            got = engine.knn_batch(
                queries, k=5, radius_cap=np.full(3, np.inf)
            )
        for w, g in zip(want, got):
            assert np.array_equal(w.ids, g.ids)
            assert np.array_equal(w.distances, g.distances)


class TestEmptyBatch:
    """A zero-query batch answers nothing, silently, on every batch
    entry point (no numpy warning from a mean over zero queries)."""

    @pytest.mark.parametrize("kind", ["knn", "range"])
    def test_router_and_engine(self, tree, router, kind):
        empty = np.empty((0, tree.dim))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for server in (router, QueryEngine(tree)):
                if kind == "knn":
                    result = server.knn_batch(empty, k=3)
                else:
                    result = server.range_batch(empty, 0.1)
                assert len(result) == 0
                assert result.stats.n_queries == 0
        assert router.knn_batch(empty, k=3).routing.visit_order == []
