"""The exactness contract and the adversarial datasets that test it.

:func:`assert_matches_scan` states the contract every search entry
point keeps: a kNN answer equals a brute-force scan over the live rows
in ascending-id order -- ids and distance bytes, in order, so a tie at
the k-th distance goes to the smaller id -- and a range answer holds
the scan's ids at the scan's distances.  :func:`scenarios` draws a
small IQ-tree, a query and a neighbor count built to stress tie
handling and the edges of the bound computations; :func:`census` names
what one drawn scenario exercises, so a test can assert that its
examples covered every case.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import assume, strategies as st

from repro.baselines.scan import SequentialScan
from repro.core.tree import IQTree
from repro.geometry.metrics import get_metric
from repro.storage.disk import DiskModel, SimulatedDisk

#: every label :func:`census` can give a scenario
CASES = frozenset(
    {
        "grid1", "grid4", "exact", "pq", "ef-directory", "maximum",
        "d=1", "d=16", "zero-extent", "duplicates", "kth-tie", "k=n_live",
        "emptied-page", "far-query",
    }
)


def small_disk(block_size: int) -> SimulatedDisk:
    return SimulatedDisk(
        DiskModel(t_seek=0.010, t_xfer=0.001, block_size=block_size)
    )


def live_ids(tree) -> np.ndarray:
    """The ids the tree still indexes, ascending."""
    return np.sort(
        np.concatenate([opt.partition.indices for opt in tree._partitions])
    )


class Answer:
    """An answer without a degraded mode: ``ids`` and ``distances``."""

    degraded = False

    def __init__(self, ids, distances):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.distances = np.asarray(distances, dtype=np.float64)


def scan(tree, query, k=None, radius=None) -> Answer:
    """The scan's kNN (or, given ``radius``, range) answer over the
    tree's live rows, in the tree's ids."""
    live = live_ids(tree)
    baseline = SequentialScan(tree.points[live], metric=tree.metric)
    if radius is None:
        got = baseline.nearest(query, k=k)
    else:
        got = baseline.range_query(query, radius)
    return Answer(live[got.ids], got.distances)


def browsed(tree, query, k) -> Answer:
    """The first ``k`` results of :meth:`IQTree.browse`."""
    return Answer(*zip(*itertools.islice(tree.browse(query), k)))


def assert_same(got, want, where: str = "", by_id: bool = False) -> None:
    """Equal ids and distance bytes; range answers compare by id."""
    assert not got.degraded, where
    got_order = np.argsort(got.ids) if by_id else slice(None)
    want_order = np.argsort(want.ids) if by_id else slice(None)
    assert got.ids[got_order].tolist() == want.ids[want_order].tolist(), where
    assert (
        got.distances[got_order].tobytes()
        == want.distances[want_order].tobytes()
    ), where


def assert_matches_scan(tree, query, got, k=None, radius=None) -> None:
    """``got`` is the scan's k nearest or, given ``radius``, the scan's
    range answer."""
    assert (k is None) != (radius is None)
    assert_same(got, scan(tree, query, k, radius), by_id=radius is not None)


@st.composite
def scenarios(draw):
    """A small tree plus a query and k, built to stress tie handling.

    Coordinates sit on a 1/8 grid (exact in float32, so distances tie
    constantly); rows are duplicated; a dimension may have zero extent;
    the query may lie far outside the data; the k-th nearest point gets
    planted twins; pages may be emptied by deletes; pages are 1-bit
    grid, 4-bit grid, exact (32-bit) or PQ; the metric is euclidean or
    maximum; a grid tree's directory is dense or Elias-Fano coded.
    """
    dim = draw(st.sampled_from([1, 2, 3, 4, 5, 16]))
    block = 128 if dim < 16 else 1024
    n = draw(st.integers(2, 400))
    seed = draw(st.integers(0, 2**16))
    metric = get_metric(draw(st.sampled_from(["euclidean", "maximum"])))
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 9, size=(n, dim)).astype(np.float64) / 8.0
    if draw(st.booleans()):
        dups = rng.integers(0, n, size=draw(st.integers(1, 20)))
        data = np.vstack([data, data[dups]])
    if dim > 1 and draw(st.booleans()):
        data[:, draw(st.integers(0, dim - 1))] = 0.375
    query = rng.integers(0, 9, size=dim).astype(np.float64) / 8.0
    query += draw(st.sampled_from([0.0, 100.0, -100.0]))
    k = draw(st.integers(1, data.shape[0]))
    if draw(st.booleans()):
        # Twins of the k-th nearest point: an exact k-th-distance tie.
        dists = metric.distances(query, data)
        kth = np.argsort(dists, kind="stable")[k - 1]
        data = np.vstack([data, np.repeat(data[kth : kth + 1], 2, axis=0)])
    layout = draw(st.sampled_from(["grid1", "grid4", "exact", "pq"]))
    if layout == "pq":
        # A PQ codebook needs a larger block than a tiny grid page.
        tree = IQTree.build(
            data, disk=small_disk(2 * block), metric=metric,
            fractal_dim=None, optimize=False, fixed_bits=3, codec="pq",
        )
        assume(any(opt.codec for opt in tree._partitions))
    else:
        bits = {"grid1": 1, "grid4": 4, "exact": 32}[layout]
        directory = draw(st.sampled_from(["grid", "ef"]))
        tree = IQTree.build(
            data, disk=small_disk(block), metric=metric, fractal_dim=None,
            optimize=False, fixed_bits=bits, codec=directory,
        )
    if tree.n_pages > 1 and draw(st.booleans()):
        victim = draw(st.integers(0, tree.n_pages - 1))
        for pid in tree._part_ids[victim].tolist():
            tree.delete(int(pid))
    n_live = tree.n_live_points
    k = n_live if draw(st.booleans()) else min(k, n_live)
    return tree, query, k


def census(tree, query, k) -> set[str]:
    """The :data:`CASES` one scenario exercises."""
    live = live_ids(tree)
    points = tree.points[live]
    bits = tree.page_bits
    cases = {
        name
        for name, hit in (
            ("grid1", np.any(bits == 1)),
            ("grid4", np.any(bits == 4)),
            ("exact", np.any(bits == 32)),
            ("pq", any(opt.codec for opt in tree._partitions)),
            ("ef-directory", tree.directory_codec == "ef"),
            ("maximum", tree.metric.name == "maximum"),
            ("d=1", tree.dim == 1),
            ("d=16", tree.dim == 16),
            ("zero-extent", np.any(np.ptp(points, axis=0) == 0)),
            ("k=n_live", k == live.size),
            ("emptied-page", tree.n_points > live.size),
            ("far-query", np.all(np.abs(query) >= 100)),
        )
        if hit
    }
    if np.unique(points, axis=0).shape[0] < live.size:
        cases.add("duplicates")
    dists = np.sort(tree.metric.distances(query, points))
    if k < dists.size and dists[k - 1] == dists[k]:
        cases.add("kth-tie")
    return cases
