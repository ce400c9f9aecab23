"""Edge-case trees and queries, each answered exactly as the scan
answers (:func:`tests.scenarios.assert_matches_scan`)."""

import numpy as np
import pytest

from repro.core.tree import IQTree, canonicalize
from tests.scenarios import assert_matches_scan, small_disk


def build(data) -> IQTree:
    return IQTree.build(canonicalize(data), disk=small_disk(512))


def check_knn(tree, q, k) -> None:
    assert_matches_scan(tree, q, tree.nearest(q, k=k), k=k)


class TestDuplicateHeavyData:
    @pytest.fixture
    def tree(self):
        # 60% duplicates of a single point, the rest random.
        rest = np.random.default_rng(3).random((400, 4))
        return build(np.vstack([np.tile([0.5] * 4, (600, 1)), rest]))

    def test_knn_on_duplicate_point(self, tree):
        check_knn(tree, np.array([0.5] * 4), 10)

    def test_knn_past_duplicate_block(self, tree):
        check_knn(tree, np.array([0.5] * 4), 650)

    def test_range_on_duplicates(self, tree):
        q = np.array([0.5] * 4)
        res = tree.range_query(q, 0.0)
        assert_matches_scan(tree, q, res, radius=0.0)


class TestExtremeK:
    @pytest.fixture
    def tree(self, uniform_points):
        return build(uniform_points[:300])

    def test_k_equals_n(self, tree, rng):
        check_knn(tree, rng.random(8), 300)

    def test_k_equals_n_minus_one(self, tree, rng):
        check_knn(tree, rng.random(8), 299)


class TestDegenerateDimensions:
    def test_constant_dimension(self):
        data = np.random.default_rng(5).random((500, 5))
        data[:, 2] = 0.25  # zero extent in dimension 2
        q = canonicalize(np.array([0.3, 0.7, 0.25, 0.1, 0.9]))
        check_knn(build(data), q, 4)

    def test_one_dimensional_data(self):
        data = np.random.default_rng(6).random((400, 1))
        check_knn(build(data), np.array([0.5]), 3)

    def test_high_dimension_small_n(self):
        rng = np.random.default_rng(7)
        tree = build(rng.random((60, 40)))
        check_knn(tree, canonicalize(rng.random(40)), 2)


class TestTies:
    # Four points at exactly the same distance from the center.
    SQUARE = [[0.4, 0.5], [0.6, 0.5], [0.5, 0.4], [0.5, 0.6]]

    def test_equidistant_neighbors(self):
        tree = build(np.array(self.SQUARE + [[0.9, 0.9]]))
        check_knn(tree, np.array([0.5, 0.5]), 4)

    def test_k_smaller_than_tie_set(self):
        check_knn(build(np.array(self.SQUARE)), np.array([0.5, 0.5]), 2)


class TestTinyTrees:
    def test_two_points(self):
        tree = build(np.array([[0.1, 0.1], [0.9, 0.9]]))
        check_knn(tree, np.array([0.2, 0.2]), 1)

    def test_query_far_away_in_every_direction(self, uniform_points):
        tree = build(uniform_points[:100])
        for sign in (-1.0, 1.0):
            check_knn(tree, np.full(8, sign * 100.0), 1)
