"""Group-segmented Resnick sums vs the component's own, bit for bit.

``GroupedRatings.partial_prediction(plan, g, mean)`` must equal
``CFComponent.partial_prediction(..., user_ids=members)`` — same items,
same floats — for any rating matrix, grouping and request the plan
accepts; requests it does not accept (duplicate active items, fewer than
``MIN_OVERLAP``) must be exactly the ones the vectorised Pearson defers.
With fractional ratings, ranked multi-group chunks row by row and the
stage-1 ``SynopsisRatings.weights`` are pinned to the scalar oracles
too, which fixes the order every sum accumulates in.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.recommender.cf import (CFComponent, CFPrediction, GroupedRatings,
                                  SynopsisRatings)
from repro.recommender.matrix import RatingMatrix
from repro.recommender.similarity import MIN_OVERLAP, pearson_weights_scalar

N_ITEMS = 7

# 0 = unrated; a user may have rated nothing at all.
rows_st = st.lists(
    st.lists(st.integers(0, 5), min_size=N_ITEMS, max_size=N_ITEMS),
    min_size=1, max_size=10)
# Item ids may repeat (deferred) and may lie outside the matrix.
active_st = st.lists(
    st.tuples(st.integers(0, N_ITEMS + 1), st.integers(1, 5)), max_size=8)
targets_st = st.lists(st.integers(0, N_ITEMS + 1), max_size=5)


def build_component(rows) -> CFComponent:
    dense = np.asarray(rows, dtype=float)
    users, items = np.nonzero(dense)
    return CFComponent(RatingMatrix(users, items, dense[users, items],
                                    n_users=dense.shape[0], n_items=N_ITEMS))


def draw_groups(data, n_users: int, n_groups: int) -> list[np.ndarray]:
    owner = data.draw(st.lists(st.integers(0, n_groups - 1),
                               min_size=n_users, max_size=n_users))
    return [np.array([u for u in range(n_users) if owner[u] == g],
                     dtype=np.int64) for g in range(n_groups)]


def split_active(active):
    items = np.array([i for i, _ in active], dtype=np.int64)
    vals = np.array([v for _, v in active], dtype=float)
    order = np.argsort(items, kind="stable")
    return items[order], vals[order]


def assert_same_prediction(got, expect):
    assert got.active_mean == expect.active_mean
    assert got.numer == expect.numer
    assert got.denom == expect.denom


class TestGroupedRatings:
    @settings(max_examples=200, deadline=None)
    @given(rows=rows_st, active=active_st, targets=targets_st,
           n_groups=st.integers(1, 4), data=st.data())
    def test_matches_component_partial_prediction(self, rows, active,
                                                  targets, n_groups, data):
        comp = build_component(rows)
        groups = draw_groups(data, comp.n_users, n_groups)
        layout = GroupedRatings(comp, groups)
        items, vals = split_active(active)
        plan = layout.plan(items, vals, targets)
        deferred = (np.unique(items).size != items.size
                    or items.size < MIN_OVERLAP)
        assert (plan is None) == deferred
        if plan is None:
            return
        mean = float(vals.mean())
        for g, members in enumerate(groups):
            assert_same_prediction(
                layout.partial_prediction(plan, g, mean),
                comp.partial_prediction(items, vals, targets, mean,
                                        user_ids=members))
            assert_same_prediction(
                layout.partial_prediction(plan, g, mean),
                comp.partial_prediction_scalar(items, vals, targets, mean,
                                               user_ids=members))

    def test_named_edge_cases(self):
        # user 2 rated nothing; group 1 is empty; group 2 holds only the
        # user without ratings; one target is rated by nobody, one lies
        # outside the matrix.
        comp = build_component([[5, 3, 0, 1, 0, 4, 2],
                                [4, 0, 0, 1, 2, 5, 0],
                                [0, 0, 0, 0, 0, 0, 0],
                                [1, 5, 3, 0, 4, 0, 2]])
        groups = [np.array([0, 1, 3]), np.array([], dtype=np.int64),
                  np.array([2])]
        layout = GroupedRatings(comp, groups)
        items = np.array([0, 1, 3, 5])
        vals = np.array([5.0, 2.0, 1.0, 4.0])
        targets = [4, 6, 2, N_ITEMS + 1, 4]
        plan = layout.plan(items, vals, targets)
        for g, members in enumerate(groups):
            assert_same_prediction(
                layout.partial_prediction(plan, g, 3.0),
                comp.partial_prediction(items, vals, targets, 3.0,
                                        user_ids=members))
        assert layout.partial_prediction(plan, 0, 3.0).numer
        assert not layout.partial_prediction(plan, 1, 3.0).numer
        assert not layout.partial_prediction(plan, 2, 3.0).numer

    def test_plan_defers_what_the_vectorised_pearson_defers(self):
        comp = build_component([[5, 3, 0, 1, 0, 4, 2]])
        layout = GroupedRatings(comp, [np.array([0])])
        assert layout.plan([3, 3, 5], [1.0, 2.0, 3.0], [0]) is None
        assert layout.plan([3], [1.0], [0]) is None
        assert layout.plan([], [], [0]) is None
        assert layout.plan([3, 5], [1.0, 2.0], [0]) is not None

    def test_unsorted_active_items_are_sorted_by_the_plan(self):
        comp = build_component([[5, 3, 0, 1, 0, 4, 2],
                                [4, 1, 0, 2, 2, 5, 0]])
        members = np.array([0, 1])
        layout = GroupedRatings(comp, [members])
        items, vals = [5, 0, 3], [4.0, 5.0, 1.0]
        plan = layout.plan(items, vals, [1, 4])
        assert_same_prediction(
            layout.partial_prediction(plan, 0, 2.5),
            comp.partial_prediction(items, vals, [1, 4], 2.5,
                                    user_ids=members))


# Tenth stars: unlike integer (or quarter) stars, sums of tenths are not
# exact in binary floating point, so a change in the order entries reach
# a sum changes its bits and the comparisons below catch it.
tenth_rows_st = st.lists(
    st.lists(st.integers(0, 50), min_size=N_ITEMS, max_size=N_ITEMS),
    min_size=1, max_size=10)
tenth_active_st = st.lists(
    st.tuples(st.integers(-1, N_ITEMS + 1), st.integers(1, 50)),
    max_size=8)


def tenths(rows) -> CFComponent:
    dense = np.asarray(rows, dtype=float) / 10.0
    users, items = np.nonzero(dense)
    return CFComponent(RatingMatrix(users, items, dense[users, items],
                                    n_users=dense.shape[0], n_items=N_ITEMS))


def tenth_active(active):
    items, vals = split_active([(i, v / 10.0) for i, v in active])
    return items, vals


class TestAccumulationOrder:
    """Fractional ratings: bit-equality here pins the order every sum
    is accumulated in, not just the set of terms it adds."""

    @settings(max_examples=200, deadline=None)
    @given(rows=tenth_rows_st, active=tenth_active_st, targets=targets_st,
           n_groups=st.integers(1, 4), data=st.data())
    def test_ranked_chunk_rows_match_component(self, rows, active, targets,
                                               n_groups, data):
        comp = tenths(rows)
        groups = draw_groups(data, comp.n_users, n_groups)
        layout = GroupedRatings(comp, groups)
        items, vals = tenth_active(active)
        plan = layout.plan(items, vals, targets)
        if plan is None:
            return
        mean = float(vals.mean())
        ranked = data.draw(st.permutations(range(n_groups)))
        numer, denom, touched = layout.partial_sums(plan, ranked)
        for k, g in enumerate(ranked):
            want = comp.partial_prediction_scalar(
                items, vals, targets, mean, user_ids=groups[g])
            assert_same_prediction(layout.partial_prediction(plan, g, mean),
                                   want)
            got = CFPrediction.from_sums(mean, plan[3], numer[k], denom[k],
                                         touched[k])
            assert_same_prediction(got, want)

    def test_named_ranked_chunk(self):
        comp = tenths([[43, 17, 0, 29, 11, 38, 2],
                       [7, 0, 33, 41, 19, 0, 26],
                       [31, 23, 13, 0, 47, 9, 0],
                       [0, 37, 21, 3, 0, 44, 17],
                       [12, 49, 0, 27, 34, 6, 41],
                       [0, 0, 0, 0, 0, 0, 0],
                       [26, 8, 39, 16, 22, 31, 0]])
        groups = [np.array([0, 4]), np.array([1, 6]), np.array([5]),
                  np.array([2, 3])]
        layout = GroupedRatings(comp, groups)
        items, vals = tenth_active([(0, 31), (1, 7), (3, 43), (4, 13),
                                    (5, 29), (6, 11), (N_ITEMS + 1, 20)])
        targets = [2, 6, N_ITEMS, 2, 0]
        plan = layout.plan(items, vals, targets)
        mean = float(vals.mean())
        ranked = [3, 0, 2]
        numer, denom, touched = layout.partial_sums(plan, ranked)
        assert numer.shape == (3, 4)
        for k, g in enumerate(ranked):
            want = comp.partial_prediction_scalar(
                items, vals, targets, mean, user_ids=groups[g])
            assert_same_prediction(layout.partial_prediction(plan, g, mean),
                                   want)
            assert_same_prediction(
                CFPrediction.from_sums(mean, plan[3], numer[k], denom[k],
                                       touched[k]), want)
        assert not touched[2].any()   # group 2 is the user without ratings

    @settings(max_examples=200, deadline=None)
    @given(rows=tenth_rows_st,
           actives=st.lists(tenth_active_st, min_size=1, max_size=4))
    def test_stage1_weights_match_scalar(self, rows, actives):
        """Out-of-range, duplicate and too few active items included."""
        comp = tenths(rows)
        batch = [tenth_active(a) for a in actives]
        got = SynopsisRatings(comp).weights(batch)
        assert got.shape == (len(batch), comp.n_users)
        for k, (items, vals) in enumerate(batch):
            assert np.array_equal(
                got[k], pearson_weights_scalar(comp.matrix, items, vals))

    def test_named_stage1_cases(self):
        comp = tenths([[43, 17, 0, 29, 11, 38, 2],
                       [7, 0, 33, 41, 19, 0, 26],
                       [0, 0, 0, 0, 0, 0, 0],
                       [12, 49, 0, 27, 34, 6, 41]])
        batch = [
            tenth_active([(0, 31), (1, 7), (3, 43), (4, 13), (5, 29),
                          (6, 11)]),
            tenth_active([(3, 12), (3, 40), (5, 21), (6, 9)]),   # duplicate
            tenth_active([(4, 30)]),                            # too few
            tenth_active([(-1, 30), (N_ITEMS, 12), (N_ITEMS + 1, 5)]),
            tenth_active([(6, 11), (0, 31), (9, 5), (4, 13), (-1, 2)]),
        ]
        got = SynopsisRatings(comp).weights(batch)
        for k, (items, vals) in enumerate(batch):
            assert np.array_equal(
                got[k], pearson_weights_scalar(comp.matrix, items, vals))
        assert got[0].any() and not got[2].any() and not got[3].any()
