"""Correctness oracle: every answer is compared with a brute-force scan.

Ground truth is :class:`repro.baselines.scan.SequentialScan`, the
paper's reference technique.  kNN answers must match it exactly in ids
and distances, in ``(distance, id)`` order; range answers must hold the
same ids with the same distances (the order of equal distances is not
part of the range contract).  Checking always runs outside the timed
region.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.scan import SequentialScan


def same_knn(got_ids, got_dists, want_ids, want_dists) -> bool:
    return np.array_equal(got_ids, want_ids) and np.array_equal(
        got_dists, want_dists
    )


def same_range(got_ids, got_dists, want_ids, want_dists) -> bool:
    got = np.argsort(got_ids, kind="stable")
    want = np.argsort(want_ids, kind="stable")
    return np.array_equal(
        np.asarray(got_ids)[got], np.asarray(want_ids)[want]
    ) and np.array_equal(
        np.asarray(got_dists)[got], np.asarray(want_dists)[want]
    )


class Oracle:
    """Cached scan answers over one point set.

    ``ids`` maps scan row numbers to the index's point ids when the
    scan covers a subset of the index's rows (the live rows of a tree
    that has seen deletes).  Rows must be passed in ascending id order,
    so the scan's stable sort breaks distance ties by id.
    """

    def __init__(self, points: np.ndarray, ids: np.ndarray | None = None):
        self._scan = SequentialScan(points)
        self._ids = ids
        self._cache: dict = {}

    def _mapped(self, answer):
        ids = answer.ids if self._ids is None else self._ids[answer.ids]
        return ids, answer.distances

    def knn(self, key, query: np.ndarray, k: int):
        if ("knn", key, k) not in self._cache:
            self._cache[("knn", key, k)] = self._mapped(
                self._scan.nearest(query, k=k)
            )
        return self._cache[("knn", key, k)]

    def range(self, key, query: np.ndarray, radius: float):
        if ("range", key) not in self._cache:
            self._cache[("range", key)] = self._mapped(
                self._scan.range_query(query, radius)
            )
        return self._cache[("range", key)]
