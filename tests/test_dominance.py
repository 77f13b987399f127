import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mobench import dominance
from mobench.dominance import (
    crowded_order,
    non_dominated,
    non_dominated_sort,
    rank_and_crowd,
)
from mobench.errors import InvalidInputError

from oracles import (
    crowded_selection_oracle,
    crowding_oracle,
    dominates_scalar,
    distinct_non_dominated_python,
    non_dominated_mask_python,
    partition_python,
    partition_recount,
    rank_and_crowd_oracle,
    rank_array,
    selection_oracle,
)
from strategies import objective_rows


def select(points, k):
    """Environmental selection as the engine does it: the first ``k`` rows
    in crowded order."""
    return dominance.select(points, k)[0]


def two_row_ranks(a, b):
    """Ranks of the rows ``a`` and ``b`` as given (two objectives: the
    sweep) and with an equal third column appended (the matrix sort)."""
    return [non_dominated_sort([[*a, *pad], [*b, *pad]]).tolist() for pad in ([], [0.0])]


class TestDominates:
    def test_strictly_better_everywhere(self):
        assert dominates_scalar((1, 2), (2, 3))
        assert two_row_ranks((1, 2), (2, 3)) == [[0, 1]] * 2
        assert two_row_ranks((2, 3), (1, 2)) == [[1, 0]] * 2

    def test_incomparable_pair(self):
        assert not dominates_scalar((1, 2), (2, 1))
        assert not dominates_scalar((2, 1), (1, 2))
        assert two_row_ranks((1, 2), (2, 1)) == [[0, 0]] * 2
        assert two_row_ranks((2, 1), (1, 2)) == [[0, 0]] * 2

    def test_equal_vectors_never_dominate(self):
        assert not dominates_scalar((1, 2), (1, 2))
        assert two_row_ranks((1, 2), (1, 2)) == [[0, 0]] * 2
        assert two_row_ranks((1, -0.0), (1, 0.0)) == [[0, 0]] * 2

    def test_antisymmetry_on_random_pairs(self):
        # at most one row of a pair is dominated, and swapping the rows
        # swaps their ranks; m = 2 is the sweep, m = 3 the matrix sort
        rng = np.random.default_rng(0)
        for m in (2, 3):
            for _ in range(2000):
                a = rng.normal(size=m)
                b = rng.normal(size=m)
                rank = non_dominated_sort(np.stack([a, b])).tolist()
                assert 0 in rank
                assert non_dominated_sort(np.stack([b, a])).tolist() == rank[::-1]

    def test_transitivity_on_random_chains(self):
        # a dominates b and b dominates c, so a dominates c: the three rows
        # fall in three fronts in any row order
        rng = np.random.default_rng(1)
        for m in (2, 3):
            found = 0
            for _ in range(5000):
                a = rng.random(m)
                b = a + rng.random(m)  # a dominates b
                c = b + rng.random(m)  # b dominates c
                if dominates_scalar(a, b) and dominates_scalar(b, c):
                    found += 1
                    assert non_dominated_sort(np.stack([c, a, b])).tolist() == [2, 0, 1]
                    assert non_dominated_sort(np.stack([b, c, a])).tolist() == [1, 2, 0]
            assert found > 4000  # the construction almost always forms a chain

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        for m in (2, 3):
            for _ in range(2000):
                a = rng.integers(0, 4, size=m).astype(float)
                b = rng.integers(0, 4, size=m).astype(float)
                # of two rows, the second ranks 1 exactly when the first dominates it
                rank = non_dominated_sort(np.stack([a, b]))
                assert (rank.tolist() == [0, 1]) == dominates_scalar(a, b)


class TestNonDominatedSort:
    def test_singleton(self):
        assert non_dominated_sort([(1.0, 1.0)]).tolist() == [0]

    def test_hand_derived_three_points(self):
        assert non_dominated_sort([(1, 2), (2, 1), (3, 3)]).tolist() == [0, 0, 1]

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidInputError):
            non_dominated_sort([])
        for m in (2, 3):
            with pytest.raises(InvalidInputError):
                rank_and_crowd(np.empty((0, m)))

    def test_non_matrix_input_rejected(self):
        for points in ([1.0, 2.0, 3.0], 1.0, np.zeros((2, 2, 2)), np.zeros((3, 0))):
            with pytest.raises(InvalidInputError):
                non_dominated(points)

    @pytest.mark.parametrize("m", [2, 3])
    def test_no_rows_keep_nothing(self, m):
        assert non_dominated(np.empty((0, m))).tolist() == []

    @pytest.mark.parametrize("m", [2, 4])
    def test_nan_rejected(self, m):
        # NaN compares neither way, so it has no front on either sort path
        F = np.zeros((3, m))
        F[1, -1] = np.nan
        with pytest.raises(InvalidInputError, match="NaN"):
            non_dominated_sort(F)
        with pytest.raises(InvalidInputError, match="NaN"):
            non_dominated(F)
        with pytest.raises(InvalidInputError, match="NaN"):
            rank_and_crowd(F)

    def test_partition_invariants_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 80))
            m = int(rng.integers(2, 5))
            F = rng.random((n, m))
            rank = non_dominated_sort(F)
            assert rank.shape == (n,)
            assert set(rank.tolist()) == set(range(rank.max() + 1))  # no empty front
            for i in range(n):
                front = np.flatnonzero(rank == rank[i])
                assert not any(dominates_scalar(F[j], F[i]) for j in front)
                if rank[i] > 0:
                    previous = np.flatnonzero(rank == rank[i] - 1)
                    assert any(dominates_scalar(F[j], F[i]) for j in previous)

    def test_matches_recount_oracle_200_points_3_objectives(self):
        rng = np.random.default_rng(4)
        F = rng.random((200, 3))
        assert np.array_equal(non_dominated_sort(F), rank_array(partition_recount(F)))

    def test_matches_pure_python_oracle_small(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            F = rng.integers(0, 6, size=(n, 2)).astype(float)  # many duplicates
            want = rank_array(partition_python(F.tolist()))
            assert np.array_equal(non_dominated_sort(F), want)

    def test_front_zero_equals_brute_force_up_to_500(self):
        rng = np.random.default_rng(6)
        for n, m in [(100, 2), (250, 3), (500, 4)]:
            F = rng.random((n, m))
            mask = non_dominated_mask_python(F.tolist())
            assert (non_dominated_sort(F) == 0).tolist() == mask

    def test_duplicates_share_a_front(self):
        assert non_dominated_sort([(1, 1), (1, 1), (2, 2)]).tolist() == [0, 0, 1]


class TestCrowdingDistance:
    """Crowding within one front: each input is a single front, or its
    rescale keeps every row's front, so ``rank_and_crowd`` serves."""

    def test_hand_derived_middle_point(self):
        crowd = rank_and_crowd([(0, 1), (0.5, 0.5), (1, 0)])[1]
        assert crowd[0] == math.inf and crowd[2] == math.inf
        assert crowd[1] == pytest.approx(2.0, abs=1e-12)

    def test_pair_is_all_infinite(self):
        assert np.all(np.isinf(rank_and_crowd([(0, 1), (1, 0)])[1]))

    def test_identical_vectors_zero_interior(self):
        crowd = rank_and_crowd([(1, 1)] * 5)[1]
        assert math.isinf(crowd[0]) and math.isinf(crowd[-1])
        assert np.all(crowd[1:-1] == 0.0)

    @settings(max_examples=300, deadline=None)
    @given(objective_rows())
    def test_matches_literal_oracle(self, points):
        # the whole set as one front: the sum archive truncation starts from
        F = np.asarray(points, dtype=float)
        assert dominance._crowding(F, np.zeros(len(F), dtype=int)).tolist() == crowding_oracle(points)

    def test_affine_rescale_leaves_finite_entries_unchanged(self):
        rng = np.random.default_rng(8)
        F = rng.random((40, 3))
        base = rank_and_crowd(F)[1]
        scaled = F.copy()
        scaled[:, 1] = 7.5 * scaled[:, 1] + 3.0
        rescaled = rank_and_crowd(scaled)[1]
        finite = np.isfinite(base)
        assert np.array_equal(finite, np.isfinite(rescaled))
        assert np.allclose(base[finite], rescaled[finite], atol=1e-12)


class TestSelectionHelpers:
    def test_rank_and_crowd_sets_fields(self):
        F = [(1, 2), (2, 1), (3, 3)]
        rank, crowd = rank_and_crowd(F)
        assert rank.tolist() == [0, 0, 1]
        assert np.isinf(crowd).all()  # fronts of size <= 2 are all boundary

    def test_crowded_order_is_deterministic(self):
        rank, crowd = rank_and_crowd([(1, 1), (1, 1), (0, 0)])
        assert crowded_order(rank, crowd).tolist() == [2, 0, 1]
        # lower rank first, then larger crowding, then lower index
        order = crowded_order([1, 0, 0, 0], [math.inf, 0.5, 2.0, 0.5])
        assert order.tolist() == [2, 1, 3, 0]

    def test_environmental_selection_fills_by_crowding(self):
        F = np.array([(0, 1), (0.5, 0.5), (1, 0), (0.45, 0.55), (2, 2)])
        kept = select(F, 3)
        kept_f = {tuple(F[i]) for i in kept}
        # boundary points always survive; the clustered pair loses a member
        assert (0, 1) in kept_f and (1, 0) in kept_f
        assert (2, 2) not in kept_f
        assert len(kept) == 3

    def test_environmental_selection_keeps_whole_fitting_fronts(self):
        F = np.array([(1, 1), (0, 0), (2, 2)], dtype=float)
        kept = select(F, 2)
        kept_f = [tuple(F[i]) for i in kept]
        assert kept_f == [(0.0, 0.0), (1.0, 1.0)]


class TestRankProperties:
    @settings(max_examples=300, deadline=None)
    @given(objective_rows())
    def test_rank_matches_peeling_oracle(self, points):
        assert np.array_equal(non_dominated_sort(points), rank_array(partition_python(points)))

    @settings(max_examples=300, deadline=None)
    @given(objective_rows(), st.data())
    def test_environmental_selection_matches_oracle(self, points, data):
        k = data.draw(st.integers(1, len(points)))
        assert sorted(select(points, k).tolist()) == sorted(selection_oracle(points, k))

    @settings(max_examples=200, deadline=None)
    @given(objective_rows())
    def test_exactly_fitting_fronts_are_kept_whole(self, points):
        rank = non_dominated_sort(points)
        for r in range(rank.max() + 1):
            k = int(np.count_nonzero(rank <= r))
            assert sorted(select(points, k).tolist()) == np.flatnonzero(rank <= r).tolist()


@st.composite
def signed_zero_rows(draw):
    """Objective matrices of 1..4 columns whose cells include both signed
    zeros, which compare equal."""
    m = draw(st.integers(1, 4))
    cells = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0])
    return draw(st.lists(st.lists(cells, min_size=m, max_size=m), min_size=1, max_size=20))


@st.composite
def two_objective_rows(draw):
    """Two-column objective matrices of 1..250 rows on a coarse grid with
    both signed zeros and +-1e300, so repeated rows, ties in one objective
    and many fronts are common; 240 rows is the elitist merge's size."""
    n = draw(st.integers(1, 250))
    cells = st.sampled_from([-1e300, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0, 1e300])
    return draw(st.lists(st.tuples(cells, cells), min_size=n, max_size=n))


@st.composite
def distinct_two_objective_rows(draw):
    """1..250 two-column rows of which no two are equal, so
    ``rank_and_crowd`` crowds from its sort order. The cells come from a
    grid of drawn width plus +-1e300, and some zeros are ``-0.0``. Half the
    draws are chains of at most 60 rows (the oracle's cost grows with the
    cube of a chain's length): both columns rise together, in shuffled row
    order, so every row is its own front. The rows are picked by a seeded
    generator, as Hypothesis' unique lists of 250 rows are slow to draw."""
    chain = draw(st.booleans())
    n = draw(st.integers(1, 60 if chain else 250))
    width = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = np.array([-1e300, *range(-width, width + 1), 0.5, 1e300], dtype=float)
    if chain:
        n = min(n, len(cells))
        F = np.column_stack([np.sort(rng.choice(cells, n, replace=False)) for _ in "12"])
        F = F[rng.permutation(n)]
    else:
        picks = rng.choice(len(cells) ** 2, min(n, len(cells) ** 2), replace=False)
        F = cells[np.column_stack(np.divmod(picks, len(cells)))]
    zero = F == 0
    F[zero] *= rng.choice([-1.0, 1.0], np.count_nonzero(zero))
    return F.tolist()


def assert_rank_and_crowd_match_oracle(points):
    rank, crowd = rank_and_crowd(points)
    want_rank, want_crowd = rank_and_crowd_oracle(points)
    assert np.array_equal(rank, want_rank)
    assert crowd.tobytes() == want_crowd.tobytes()
    assert np.array_equal(crowded_order(rank, crowd), crowded_order(want_rank, want_crowd))


class TestTwoObjectiveSweep:
    @settings(max_examples=200, deadline=None)
    @given(two_objective_rows())
    def test_sort_matches_recount_oracle(self, points):
        assert np.array_equal(non_dominated_sort(points), rank_array(partition_recount(points)))

    @settings(max_examples=100, deadline=None)
    @given(two_objective_rows())
    def test_non_dominated_matches_scalar_oracle(self, points):
        assert non_dominated(points).tolist() == distinct_non_dominated_python(points)

    @settings(max_examples=100, deadline=None)
    @given(two_objective_rows())
    def test_rank_and_crowd_with_repeats_matches_oracle(self, points):
        assert_rank_and_crowd_match_oracle(points)

    @settings(max_examples=200, deadline=None)
    @given(distinct_two_objective_rows())
    def test_rank_and_crowd_of_distinct_rows_matches_oracle(self, points):
        assert_rank_and_crowd_match_oracle(points)


@st.composite
def front_heavy_rows(draw):
    """Two-column matrices of 1..60 rows most of which lie on one falling
    line, on a grid, so front 0 is large and sometimes holds repeats;
    the other rows lie behind it."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(0, 40, n).astype(float)
    y = 40.0 - x + np.where(rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5])), 3.0, 0.0)
    F = np.column_stack([x, y])
    if draw(st.booleans()):  # distinct rows only
        F = np.unique(F, axis=0)
        F = F[rng.permutation(len(F))]
    return F.tolist()


@st.composite
def simplex_rows(draw):
    """Matrices of 3 or 4 columns and 1..60 rows, most of them points of
    the grid simplex whose cells sum to 6, which no other such point
    dominates, so front 0 is large and often holds repeats; the other rows
    are such points shifted back by 1. Some zeros are ``-0.0``."""
    m = draw(st.integers(3, 4))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    F = rng.multinomial(6, np.full(m, 1 / m), n).astype(float)
    F += rng.random((n, 1)) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    F[F == 0] *= rng.choice([-1.0, 1.0], np.count_nonzero(F == 0))
    return F.tolist()


def select_branch(points, k) -> str:
    """Which case of ``dominance.select`` the rows fall in, from the oracle."""
    rank, _ = rank_and_crowd_oracle(points)
    front = [tuple(p) for p, r in zip(points, rank) if r == 0]
    if len(points[0]) != 2:
        return "m != 2: front 0 fills" if len(front) >= k else "m != 2: front 0 below k"
    if len(front) < k:
        return "front 0 below k: whole sort"
    if len(set(front)) < len(front):
        return "front 0 with repeats"
    return "front 0 chain"


class TestSelect:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 4).flatmap(lambda m: objective_rows(m=m, extremes=False))
        | front_heavy_rows()
        | simplex_rows(),
        st.data(),
    )
    def test_matches_the_crowded_oracle(self, points, data):
        # the first k rows in crowded order and the front-0 mask, whichever
        # case serves them; run with --hypothesis-show-statistics for the
        # share of each case
        k = data.draw(st.integers(1, len(points)))
        event(select_branch(points, k))
        keep, top = dominance.select(points, k)
        want_keep, want_top = crowded_selection_oracle(points, k)
        assert keep.tolist() == want_keep.tolist()
        assert top.tolist() == want_top.tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda m: objective_rows(m=m, extremes=False)) | front_heavy_rows())
    def test_crowded_first_is_the_oracle_selection_of_one(self, points):
        assert dominance.crowded_first(points) == crowded_selection_oracle(points, 1)[0][0]

    @pytest.mark.parametrize(
        "points, k, branch",
        [
            ([(0, 3), (1, 2), (2, 1), (3, 0), (3, 3)], 3, "front 0 chain"),
            ([(0, 3), (1, 2), (1, 2), (3, 0), (3, 3)], 4, "front 0 with repeats"),
            ([(0, 3), (1, 2), (3, 0), (3, 3), (4, 4)], 4, "front 0 below k: whole sort"),
            ([(0, 3, 1), (1, 2, 1), (1, 2, 1), (3, 0, 1), (3, 3, 1)], 3, "m != 2: front 0 fills"),
            ([(0, 3, 1), (1, 2, 1), (3, 0, 1), (3, 3, 1)], 4, "m != 2: front 0 below k"),
        ],
    )
    def test_each_case_matches_the_oracle(self, points, k, branch):
        assert select_branch(points, k) == branch
        keep, top = dominance.select(points, k)
        want_keep, want_top = crowded_selection_oracle(points, k)
        assert keep.tolist() == want_keep.tolist() and top.tolist() == want_top.tolist()


@st.composite
def many_objective_rows(draw):
    """Objective matrices of 3..5 columns and 1..40 rows whose cells include
    +-inf, the smallest subnormals +-5e-324, +-1e300 and both signed zeros,
    so the rank codes meet every kind of tie and extreme."""
    m = draw(st.integers(3, 5))
    n = draw(st.integers(1, 40))
    cells = st.sampled_from(
        [-math.inf, -1e300, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, 2.0, 1e300, math.inf]
    )
    return draw(st.lists(st.lists(cells, min_size=m, max_size=m), min_size=n, max_size=n))


@st.composite
def single_fronts(draw):
    """Rows to crowd as one front: many-objective rows with every kind of
    extreme, or two-column rows with repeats; sometimes one column holds
    -1e308 and 1e308, whose span overflows to inf."""
    F = np.array(draw(many_objective_rows() | two_objective_rows()), dtype=float)
    if len(F) > 1 and draw(st.booleans()):
        lo, hi = draw(st.permutations(range(len(F))))[:2]
        F[[lo, hi], draw(st.integers(0, F.shape[1] - 1))] = -1e308, 1e308
    return F


class TestFrontCrowding:
    @settings(max_examples=300, deadline=None)
    @given(single_fronts())
    def test_bytes_match_the_all_fronts_crowding(self, F):
        # the orders of the archive's set-up and of select's m != 2 case
        want = dominance._crowding(F, np.zeros(len(F), dtype=int)).tobytes()
        for order in (F.argsort(axis=0, kind="stable").T, dominance._codes(F).argsort(axis=1, kind="stable")):
            assert dominance._front_crowding(F, order).tobytes() == want


class TestManyObjectiveKernel:
    @settings(max_examples=300, deadline=None)
    @given(many_objective_rows())
    def test_sort_matches_peeling_oracle(self, points):
        assert np.array_equal(non_dominated_sort(points), rank_array(partition_python(points)))

    @settings(max_examples=300, deadline=None)
    @given(many_objective_rows())
    def test_non_dominated_matches_scalar_oracle(self, points):
        assert non_dominated(points).tolist() == distinct_non_dominated_python(points)


class TestKernelProperties:
    @settings(max_examples=300, deadline=None)
    @given(signed_zero_rows())
    def test_sort_matches_peeling_oracle_on_signed_zeros(self, points):
        assert np.array_equal(non_dominated_sort(points), rank_array(partition_python(points)))

    @settings(max_examples=300, deadline=None)
    @given(signed_zero_rows())
    def test_non_dominated_matches_scalar_oracle(self, points):
        # repeated rows are common on this grid: only the first one stays
        assert non_dominated(points).tolist() == distinct_non_dominated_python(points)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda m: objective_rows(m=m)))
    def test_one_pass_crowding_matches_per_front_oracle(self, points):
        rank, crowd = rank_and_crowd(points)
        want_rank, want_crowd = rank_and_crowd_oracle(points)
        assert np.array_equal(rank, want_rank)
        assert crowd.tobytes() == want_crowd.tobytes()


def count_smaller(F) -> list[list[int]]:
    """Per objective, how many rows have a smaller value than each row."""
    return [[sum(v < x for v in col) for x in col] for col in np.asarray(F, dtype=float).T.tolist()]


class TestRankCodeKernels:
    @settings(max_examples=300, deadline=None)
    @given(many_objective_rows() | signed_zero_rows())
    def test_codes_count_the_smaller_values(self, points):
        R = dominance._codes(np.array(points, dtype=float))
        assert R.dtype == np.int16
        assert R.tolist() == count_smaller(points)

    @pytest.mark.parametrize("n, dtype", [(32768, np.int16), (32769, np.int64)])
    @pytest.mark.parametrize("m", [1, 2])
    def test_codes_take_int64_past_32768_rows(self, n, dtype, m):
        # mostly distinct values, so the largest code is n - 1, with every
        # kind of extreme and tie mixed in; a searchsorted into the sorted
        # column counts the smaller values without a pairwise matrix
        rng = np.random.default_rng(n)
        F = rng.random((n, m))
        cells = [-math.inf, -1e300, -5e-324, -0.0, 0.0, 5e-324, 1e300, math.inf]
        mixed = rng.random((n, m)) < 0.1
        F[mixed] = rng.choice(cells, np.count_nonzero(mixed))
        R = dominance._codes(F)
        assert R.dtype == dtype
        for r, col in zip(R, F.T):
            assert np.array_equal(r, np.searchsorted(np.sort(col), col))

    @settings(max_examples=300, deadline=None)
    @given(many_objective_rows() | signed_zero_rows())
    def test_dominance_matches_the_scalar_oracle(self, points):
        D = dominance._dominance(dominance._codes(np.array(points, dtype=float)))
        assert D.tolist() == [[dominates_scalar(a, b) for b in points] for a in points]

    def test_dominance_past_the_int16_sum_bound(self):
        # 40 columns x 820 rows (m * n = 32,800) sum the codes in int64; rows
        # on rising levels with sparse bumps, some repeated, so dominance,
        # incomparable pairs and equal rows all occur
        rng = np.random.default_rng(28)
        level = rng.integers(0, 30, (820, 1)).astype(float)
        F = level + (rng.random((820, 40)) < 0.05) * rng.integers(1, 4, (820, 40))
        F[rng.integers(0, 820, 60)] = F[rng.integers(0, 820, 60)]
        D = dominance._dominance(dominance._codes(F))
        want = (F[:, None] <= F).all(axis=2) & (F[:, None] < F).any(axis=2)
        assert np.array_equal(D, want)
        assert want.any() and (~want & ~want.T).any() and (F[:, None] == F).all(axis=2).sum() > 820
