"""``KBest.offer_stretch`` against the loop it replaces.

The best-first k-NN search offers a drained stretch of decoded records
in one call.  The call must be observably the loop that offers them one
at a time and stops at the first lower bound above the running pruning
bound: the same number offered (the search counts that many
refinements and resumes the run there) and the same kept
``(distance, id)`` pairs afterwards.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.search import KBest


def sequential(best: KBest, lowers, dists, ids) -> int:
    """The oracle: one ``offer`` per candidate while its lower bound is
    within the bound."""
    for i in range(len(lowers)):
        if lowers[i] > best.bound():
            return i
        best.offer(float(dists[i]), int(ids[i]))
    return len(lowers)


def kept(best: KBest) -> tuple:
    ids, dists = best.sorted_results()
    return ids.tolist(), dists.tobytes(), best.bound()


def assert_same(k, before, lowers, dists, ids) -> int:
    """Run both on equal heaps; returns the shared count."""
    lowers = np.asarray(lowers, dtype=np.float64)
    dists = np.asarray(dists, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.int64)
    got, want = KBest(k), KBest(k)
    for dist, pid in before:
        got.offer(dist, pid)
        want.offer(dist, pid)
    taken = got.offer_stretch(lowers, dists, ids)
    assert taken == sequential(want, lowers, dists, ids)
    assert kept(got) == kept(want)
    return taken


# A few distance levels, so ties at the k-th distance are common.
LEVELS = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5]


@st.composite
def stretches(draw):
    k = draw(st.integers(1, 6))
    n_before = draw(st.integers(0, 2 * k))
    n = draw(st.integers(1, 40))
    # Unique ids, in an order unrelated to the distances.
    ids = draw(st.permutations(range(n_before + n)))
    level = st.sampled_from(LEVELS)
    before = [(draw(level), ids[i]) for i in range(n_before)]
    lowers = sorted(draw(st.lists(level, min_size=n, max_size=n)))
    # An exact distance is at or above its lower bound, or an ulp
    # below it (a bound can round above its own record's distance).
    gap = st.one_of(
        st.just(0.0), st.sampled_from([0.25, 0.5]), st.just(-1e-16),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    dists = [lower + draw(gap) for lower in lowers]
    return k, before, lowers, dists, ids[n_before:]


class TestStretchEqualsSequentialOffers:
    @settings(max_examples=500, deadline=None)
    @given(case=stretches())
    def test_property(self, case):
        assert_same(*case)

    def test_fewer_than_k_kept(self):
        # The bound is infinite until k are kept: the first offers pass
        # whatever their lower bounds.
        taken = assert_same(
            4, [(0.1, 50)], [0.0, 5.0, 6.0, 7.0, 8.0],
            [9.0, 5.5, 6.5, 7.5, 8.5], [1, 2, 3, 4, 5],
        )
        assert taken == 4

    @pytest.mark.parametrize("pid", [1, 99])
    def test_tie_at_the_kth_distance(self, pid):
        # A candidate at the k-th distance enters only with a smaller
        # id than the worst kept one; either way its lower bound equals
        # the bound, so the loop goes on past it.
        before = [(0.1, 10), (0.5, 50)]
        taken = assert_same(
            2, before, [0.5, 0.5, 0.6], [0.5, 0.7, 0.6], [pid, 7, 8]
        )
        assert taken == 2

    def test_all_equal_distances(self):
        n = 12
        assert_same(
            3, [(1.0, 100), (1.0, 40)], [1.0] * n, [1.0] * n,
            np.arange(n)[::-1],
        )

    def test_k_one(self):
        taken = assert_same(
            1, [(0.4, 9)], [0.1, 0.2, 0.3, 0.35, 0.5],
            [0.3, 0.25, 0.31, 0.4, 0.5], [1, 2, 3, 4, 5],
        )
        assert taken == 2  # the bound falls to 0.25 below the third

    def test_distance_below_its_lower_bound(self):
        # A record whose distance rounds below its own bound still
        # lowers the bound before the next candidate is tested.
        assert_same(
            1, [(1.0, 9)], [0.5, 0.5 + 1e-16, 0.6],
            [0.5 - 1e-16, 0.9, 0.6], [1, 2, 3],
        )
