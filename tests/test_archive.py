import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mobench.archive import ParetoArchive, _thin
from mobench.dominance import _codes
from mobench.errors import InvalidInputError

from oracles import (
    archive_insert_oracle,
    dominates_scalar,
    non_dominated_mask_python,
    truncation_oracle,
)
from strategies import objective_rows


def sol(*f):
    return np.array(f, dtype=float)


def all_pairs_non_dominated(archive):
    F = archive.objectives()
    for i in range(len(F)):
        for j in range(len(F)):
            if i != j and dominates_scalar(F[i], F[j]):
                return False
    return True


class TestInsert:
    def test_empty_archive_accepts_anything(self):
        arc = ParetoArchive(capacity=10)
        assert arc.insert(sol(5, 5))
        assert len(arc) == 1

    def test_dominated_candidate_rejected(self):
        arc = ParetoArchive(capacity=10)
        arc.insert(sol(1, 2))
        assert not arc.insert(sol(2, 3))
        assert len(arc) == 1

    def test_dominating_candidate_sweeps_members(self):
        arc = ParetoArchive(capacity=10)
        arc.insert(sol(1, 2))
        arc.insert(sol(2, 1))
        assert arc.insert(sol(0, 0))
        assert len(arc) == 1
        assert np.array_equal(arc.objectives()[0], [0, 0])

    def test_exact_duplicate_rejected(self):
        arc = ParetoArchive(capacity=10)
        arc.insert(sol(1, 2))
        before = arc.objectives()
        assert not arc.insert(sol(1, 2))
        assert np.array_equal(arc.objectives(), before)

    def test_empty_offer_changes_nothing(self):
        arc = ParetoArchive(capacity=10)
        assert arc.insert([]) == 0
        assert len(arc) == 0
        arc.insert(sol(1, 2))
        before = arc.objectives()
        for empty in ([], np.empty((0, 2))):
            assert arc.insert(empty) == 0
            assert np.array_equal(arc.objectives(), before)

    def test_signed_zero_duplicate_in_one_batch(self):
        # -0.0 <= 0.0 and 0.0 <= -0.0, so the second row matches the first
        arc = ParetoArchive(capacity=10)
        assert arc.insert([[0.0, 1.0], [-0.0, 1.0]]) == 1
        assert len(arc) == 1
        assert arc.insert([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [2.0, 2.0]]) == 2
        assert len(arc) == 3

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_row_refused(self, bad):
        # an infinite value has no finite span (inf - inf is NaN crowding)
        # and NaN no front; the members stay as they were
        for members in ([], [[1.0, 2.0]]):
            arc = ParetoArchive(capacity=10)
            arc.insert(members)
            before = arc.objectives()
            with pytest.raises(InvalidInputError, match="finite"):
                arc.insert([[0.5, 3.0], [2.0, bad]])
            assert arc.objectives().tobytes() == before.tobytes()

    def test_row_of_another_width_refused(self):
        arc = ParetoArchive(capacity=10)
        arc.insert(sol(1, 2))
        for row in (sol(0, 0, 0), sol(0)):
            with pytest.raises(InvalidInputError, match="2 objectives"):
                arc.insert(row)
        with pytest.raises(InvalidInputError, match="matrix"):
            arc.insert(np.zeros((2, 2, 2)))
        assert np.array_equal(arc.objectives(), [[1.0, 2.0]])

    def test_incomparable_candidates_accumulate(self):
        arc = ParetoArchive(capacity=10)
        for point in [(0, 3), (1, 2), (2, 1), (3, 0)]:
            assert arc.insert(sol(*point))
        assert len(arc) == 4


class TestTruncate:
    def test_capacity_two_drops_only_finite_crowding_member(self):
        arc = ParetoArchive(capacity=2)
        for point in [(0, 1), (0.5, 0.5), (1, 0)]:
            arc.insert(sol(*point))
        F = arc.objectives()
        assert len(arc) == 2
        assert [0.0, 1.0] in F.tolist() and [1.0, 0.0] in F.tolist()

    def test_five_evenly_spaced_points_keep_maximal_spread(self):
        # iterative removal keeps the boundary points and the middle point,
        # the maximally spread 3-subset
        arc = ParetoArchive(capacity=3)
        for point in [(0, 1), (0.25, 0.75), (0.5, 0.5), (0.75, 0.25), (1, 0)]:
            arc.insert(sol(*point))
        kept = sorted(map(tuple, arc.objectives().tolist()))
        assert kept == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]

    def test_boundary_points_survive_heavy_pressure(self):
        rng = np.random.default_rng(11)
        arc = ParetoArchive(capacity=8)
        arc.insert(sol(0.0, 1.0))
        arc.insert(sol(1.0, 0.0))
        for _ in range(500):
            f1 = rng.random()
            arc.insert(sol(f1, 1.0 - f1))
        F = arc.objectives()
        assert [0.0, 1.0] in F.tolist() and [1.0, 0.0] in F.tolist()
        assert len(arc) == 8


class TestInvariants:
    def test_torture_random_insertions(self):
        rng = np.random.default_rng(12)
        arc = ParetoArchive(capacity=50)
        for k in range(5000):
            arc.insert(sol(*rng.random(2)))
            assert len(arc) <= 50
            if k % 250 == 0:
                assert all_pairs_non_dominated(arc)
        assert all_pairs_non_dominated(arc)

    @settings(max_examples=300, deadline=None)
    @given(objective_rows())
    def test_members_match_non_dominated_oracle(self, points):
        arc = ParetoArchive(capacity=len(points))  # big enough that nothing truncates
        for p in points:
            arc.insert(p)
        # without truncation the archive holds exactly the distinct
        # non-dominated subset of everything offered
        mask = non_dominated_mask_python(points)
        expected = {tuple(p) for p, keep in zip(points, mask) if keep}
        members = [tuple(row) for row in arc.objectives().tolist()]
        assert len(members) == len(expected) and set(members) == expected
        # one batch offer keeps the same members in the same order
        batch = ParetoArchive(capacity=len(points))
        assert batch.insert(points) == len(members)
        assert np.array_equal(batch.objectives(), arc.objectives())

    @settings(max_examples=300, deadline=None)
    @given(objective_rows(), st.data())
    def test_truncated_archive_is_bounded_and_mutually_non_dominated(self, points, data):
        capacity = data.draw(st.integers(1, len(points)))
        arc = ParetoArchive(capacity)
        for p in points:
            arc.insert(p)
            assert len(arc) <= capacity
        batch = ParetoArchive(capacity)
        batch.insert(points)
        assert len(batch) <= capacity
        for members in (arc.objectives().tolist(), batch.objectives().tolist()):
            assert all(non_dominated_mask_python(members))
            assert len(set(map(tuple, members))) == len(members)

    def test_rejection_monotonicity_audit(self):
        rng = np.random.default_rng(14)
        arc = ParetoArchive(capacity=30)
        rejected = []
        for _ in range(800):
            candidate = sol(*rng.random(2))
            members_before = arc.objectives()
            if not arc.insert(candidate):
                dominators = [
                    row
                    for row in members_before
                    if dominates_scalar(row, candidate) or np.array_equal(row, candidate)
                ]
                assert dominators  # rejection always had a witness
                rejected.append((candidate, dominators[0]))
        assert rejected  # the walk produced real rejections
        final = arc.objectives()
        for cf, witness in rejected:
            still_beaten = any(
                dominates_scalar(row, cf) or np.array_equal(row, cf) for row in final
            )
            # either the final archive still rules it out, or the recorded
            # witness did at rejection time
            assert still_beaten or dominates_scalar(witness, cf) or np.array_equal(witness, cf)


@st.composite
def truncation_cases(draw):
    """An objective matrix of 1..4 columns on a coarse grid (ties and
    repeated values), sometimes with a zero-span column or with a column
    holding -1e308 and 1e308, whose span overflows, and a capacity that is
    often 1 or 2, where every crowding distance is infinite."""
    m = draw(st.integers(1, 4))
    F = np.array(draw(objective_rows(m=m)))
    if draw(st.booleans()):
        F[:, draw(st.integers(0, m - 1))] = 1.0
    if len(F) > 1 and draw(st.booleans()):
        rows = draw(st.permutations(range(len(F))))[:2]
        F[rows, draw(st.integers(0, m - 1))] = -1e308, 1e308
    capacity = draw(st.sampled_from([1, 2]) | st.integers(1, len(F)))
    return F, capacity


class TestIncrementalTruncation:
    @settings(max_examples=400, deadline=None)
    @given(truncation_cases())
    # equal crowding reached by sums in different orders: the incremental
    # update must add in objective order to round like the oracle
    @example((np.array([[3, 3, 1], [1, 2, 1], [1, 3, 2], [0, 1, 3], [3, 2, 0], [1, 3, 3]], float), 4))
    @example((np.array([[2, 3, 2], [0, 3, 3], [1, 0, 0], [2, 0, 1], [3, 0, 2], [0, 1, 0], [1, 0, 3]], float), 5))
    # once row 2 goes, row 3's gap spans the whole overflowing column: NaN
    # crowding, which is never the smallest finite one, so no finite row is
    # left and truncation drops the first row and starts over
    @example((np.array([[-1e308], [1e308], [0.0], [0.0]]), 1))
    def test_keeps_exactly_the_oracle_rows(self, case):
        F, capacity = case  # any matrix, dominated rows and duplicates included
        kept = _thin(F, capacity, _codes(F))
        assert F[kept].tobytes() == F[truncation_oracle(F.tolist(), capacity)].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(objective_rows(), st.data())
    def test_batch_insert_truncates_like_the_oracle(self, points, data):
        capacity = data.draw(st.integers(1, len(points)))
        full = ParetoArchive(len(points))
        full.insert(points)
        arc = ParetoArchive(capacity)
        arc.insert(points)
        F = full.objectives()
        assert arc.objectives().tobytes() == F[truncation_oracle(F.tolist(), capacity)].tobytes()


@st.composite
def two_column_offers(draw):
    """A capacity (often 1 or 2) and 1..8 offers of 0..30 two-column rows,
    on a coarse grid, on a falling grid line (where equal crowding makes
    the tie rule decide) or on a noisy falling curve, with signed zeros;
    sometimes one offer holds -1e308 and 1e308 in one column, so that a
    chain's span overflows."""
    capacity = draw(st.sampled_from([1, 2]) | st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offers = []
    for _ in range(draw(st.integers(1, 8))):
        n = int(rng.integers(0, 31))
        kind = rng.integers(3)
        if kind == 0:
            F = rng.integers(-1, 5, (n, 2)).astype(float)
        elif kind == 1:
            x = rng.integers(0, 30, n).astype(float)
            F = np.column_stack([x, 30.0 - x])
        else:
            x = rng.random(n)
            F = np.column_stack([x, 1.0 - np.sqrt(x) + 0.05 * (rng.random(n) < 0.3)])
        F[F == 0] *= rng.choice([-1.0, 1.0], np.count_nonzero(F == 0))
        offers.append(F)
    if draw(st.booleans()):
        F = offers[draw(st.integers(0, len(offers) - 1))]
        if len(F) > 1:
            F[rng.permutation(len(F))[:2], rng.integers(2)] = -1e308, 1e308
    return capacity, offers


class TestTwoColumnInsert:
    @settings(max_examples=200, deadline=None)
    @given(two_column_offers())
    # a chain whose spans and middle gap overflow: the gap's crowding is NaN
    @example((3, [np.array([[-1e308, 1e308], [-9e307, 9e307], [0.0, -0.0], [9e307, -9e307]])]))
    def test_insert_sequence_matches_the_oracle_archive(self, case):
        # the chain filter and chain truncation leave the members and
        # counts of the brute-force keep rule and from-scratch truncation
        capacity, offers = case
        arc, members = ParetoArchive(capacity), np.empty((0, 2))
        for F in offers:
            accepted = arc.insert(F)
            if len(F):
                members, want = archive_insert_oracle(members, F, capacity)
                assert accepted == want
            assert arc.objectives().tobytes() == members.tobytes()


@st.composite
def many_column_offers(draw):
    """A capacity (often 1 or 2) and 1..8 offers of 0..30 rows of 3 or 4
    columns, on a coarse grid or near the grid simplex whose cells sum to
    6 (where front 0 is large and equal crowding makes the tie rule
    decide), with repeats and signed zeros; sometimes one column is 1.0
    in every offer (a zero span), or one offer holds -1e308 and 1e308 in
    one column, whose span overflows."""
    capacity = draw(st.sampled_from([1, 2]) | st.integers(3, 40))
    m = draw(st.integers(3, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flat = draw(st.none() | st.integers(0, m - 1))
    offers = []
    for _ in range(draw(st.integers(1, 8))):
        n = int(rng.integers(0, 31))
        if rng.integers(2):
            F = rng.integers(-1, 4, (n, m)).astype(float)
        else:
            F = (rng.multinomial(6, np.full(m, 1 / m), n) + (rng.random((n, 1)) < 0.2)).astype(float)
        if n and rng.integers(2):  # rows drawn with repeats
            F = F[rng.integers(0, n, n)]
        if flat is not None:
            F[:, flat] = 1.0
        F[F == 0] *= rng.choice([-1.0, 1.0], np.count_nonzero(F == 0))
        offers.append(F)
    if draw(st.booleans()):
        F = offers[draw(st.integers(0, len(offers) - 1))]
        if len(F) > 1:
            F[rng.permutation(len(F))[:2], rng.integers(m)] = -1e308, 1e308
    return capacity, offers


class TestManyColumnInsert:
    @settings(max_examples=200, deadline=None)
    @given(many_column_offers())
    def test_insert_sequence_matches_the_oracle_archive(self, case):
        # the code filter and the truncation ordered by its codes leave the
        # members and counts of the brute-force keep rule and from-scratch
        # truncation
        capacity, offers = case
        m = offers[0].shape[1]
        arc, members = ParetoArchive(capacity), np.empty((0, m))
        for F in offers:
            accepted = arc.insert(F)
            if len(F):
                members, want = archive_insert_oracle(members, F, capacity)
                assert accepted == want
            assert arc.objectives().tobytes() == members.tobytes()
