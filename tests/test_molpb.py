import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobench import molpb
from mobench.dominance import rank_and_crowd
from mobench.errors import InvalidInputError, InvalidStateError
from mobench.metrics import gd
from mobench.molpb import (
    DP,
    MolpbConfig,
    MolpbEngine,
    best_of_bad,
    filter_main,
    route_main,
    split_good_bad,
)
from mobench.operators import DISTRIBUTION_INDEX, MUTATION_PROB
from mobench.suite import analytic_reference_front, get_problem

from oracles import dominates_scalar, molpb_mating_oracle, non_dominated_mask_python


def rows(points):
    return np.array(points, dtype=float).reshape(-1, 2)


def f_set(F, indices):
    return {tuple(F[i]) for i in indices}


def run(config, problem):
    return MolpbEngine(config, problem).run()


class TestConfig:
    def test_table_defaults(self):
        cfg = MolpbConfig()
        assert cfg.n_pop == 100
        assert cfg.offspring_count == 140
        assert cfg.archive_capacity == 100
        assert cfg.max_generations == 350
        assert (DP, MUTATION_PROB, DISTRIBUTION_INDEX) == (0.6, 0.02, 20.0)

    def test_offspring_follows_population(self):
        assert MolpbConfig(n_pop=50).offspring_count == 70


class TestSplitGoodBad:
    def test_two_incomparable_split_by_index(self):
        F = rows([(1, 2), (2, 1)])
        good, bad = split_good_bad(F)
        assert f_set(F, good) == {(1, 2)}
        assert f_set(F, bad) == {(2, 1)}

    def test_dominating_point_lands_in_good(self):
        F = rows([(5, 5), (0, 0), (3, 4)])
        good, bad = split_good_bad(F)
        assert (0, 0) in f_set(F, good)

    def test_five_members_split_two_three(self):
        good, bad = split_good_bad(rows([(0, 5), (1, 4), (2, 3), (3, 2), (5, 0)]))
        assert len(good) == 2 and len(bad) == 3

    def test_too_small_rejected(self):
        with pytest.raises(InvalidInputError):
            split_good_bad(rows([(1, 1)]))


class TestBestOfBad:
    def test_single_member(self):
        assert best_of_bad(rows([(7, 7)])) == 0

    def test_tie_broken_by_lowest_index(self):
        assert best_of_bad(rows([(3, 3), (1, 2), (2, 1)])) == 1

    def test_dominator_wins(self):
        assert best_of_bad(rows([(5, 5), (1, 1), (4, 4)])) == 1

    def test_empty_rejected(self):
        with pytest.raises(InvalidStateError):
            best_of_bad(rows([]))


class TestFilterMain:
    def test_nothing_dominated_keeps_all(self):
        out = filter_main(rows([(1, 5), (5, 1)]), np.array([9.0, 9.0]))
        assert out.tolist() == [0, 1]

    def test_everything_dominated_empties(self):
        out = filter_main(rows([(1, 5), (5, 1), (6, 6)]), np.array([0.0, 0.0]))
        assert out.tolist() == []

    def test_hand_derived_example(self):
        main = rows([(1, 5), (5, 1), (6, 6)])
        out = filter_main(main, np.array([5.0, 5.0]))
        assert [tuple(main[i]) for i in out] == [(1, 5), (5, 1)]


class TestRouteMain:
    def test_dominator_of_good_goes_perfect(self):
        main = rows([(1, 1)])
        perfect, good_ext = route_main(main, rows([(2, 2)]), rows([(3, 3)]))
        assert f_set(main, perfect) == {(1, 1)}
        assert good_ext.size == 0

    def test_member_dominated_by_best_bad_goes_bad(self):
        main = rows([(2, 2)])
        perfect, good_ext = route_main(main, rows([(0, 0)]), rows([(1, 1)]))
        assert perfect.size == 0 and good_ext.size == 0  # routed to the bad bucket

    def test_incomparable_middle_goes_good(self):
        # all rank 0 jointly; the bad pivot has finite crowding while the
        # member sits on a boundary, so neither strict condition fires
        main = rows([(10, 0.5), (0.6, 9)])
        perfect, good_ext = route_main(main, rows([(0.5, 10)]), rows([(5, 5)]))
        assert f_set(main, good_ext) == {(10, 0.5)}
        assert perfect.size == 0  # (0.6, 9) went to the bad bucket

    def test_partition_property(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            main = rng.random((int(rng.integers(0, 25)), 2))
            good = rng.random((int(rng.integers(1, 6)), 2))
            bad = rng.random((int(rng.integers(1, 6)), 2))
            perfect, good_ext = route_main(main, good, bad)
            routed = np.concatenate([perfect, good_ext])
            assert len(set(routed.tolist())) == len(routed)  # disjoint buckets
            assert set(routed.tolist()) <= set(range(len(main)))

    def test_empty_pivot_groups_rejected(self):
        with pytest.raises(InvalidStateError):
            route_main(rows([(1, 1)]), rows([]), rows([(2, 2)]))


@st.composite
def populations(draw):
    """Populations of 4-40 rows with 2-4 objectives, mostly on a coarse grid
    (so repeated rows, equal values and ``-0.0`` next to ``0.0`` are common),
    sometimes anywhere in [0, 10]."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(4, 40))
    cells = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0, 4.0]) | st.floats(0.0, 10.0)
    return draw(st.lists(st.lists(cells, min_size=m, max_size=m), min_size=n, max_size=n))


@st.composite
def one_fronts(draw):
    """Populations of 4-40 rows with 2-4 objectives in which no row
    dominates another: compositions of a total of 1-40 into m parts, that is
    simplex rows on a grid, so rows repeat and values tie often; each 0.0 is
    drawn as 0.0 or -0.0. Sometimes one column is stretched over
    [-1e308, 1e308], or pushed to near -1e308 and 1e308; either map rises
    with the part, so it adds no dominance. Its span overflows, and so do
    its widest neighbour gaps, which makes some crowding distances NaN."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(4, 40))
    total = draw(st.integers(1, 40))
    row = st.lists(st.integers(0, total), min_size=m - 1, max_size=m - 1)
    cuts = np.sort(draw(st.lists(row, min_size=n, max_size=n)), axis=1)
    parts = np.diff(np.column_stack([np.zeros(n), cuts, np.full(n, total)]), axis=1)
    F = parts * draw(st.sampled_from([1.0, 0.1, 2.5]))
    stretch = draw(st.sampled_from([None, None, "over", "apart"]))
    if stretch:
        k = draw(st.integers(0, m - 1))
        p = parts[:, k]
        if stretch == "over":
            F[:, k] = (2 * p / total - 1) * 1e308
        else:
            F[:, k] = np.where(2 * p < total, -1e308, 1e308) + p * 1e300
    negative = draw(st.lists(st.booleans(), min_size=F.size, max_size=F.size))
    return np.where((F == 0) & np.reshape(negative, F.shape), -0.0, F)


def four_helpers(F, separated, main):
    """The good and bad halves and the (perfect, good extension) rows that
    :func:`split_good_bad`, :func:`best_of_bad`, :func:`filter_main` and
    :func:`route_main` give for a split of the population ``F``."""
    good_rows, bad_rows = split_good_bad(F[separated])
    good, bad = separated[good_rows], separated[bad_rows]
    kept = main[filter_main(F[main], F[bad[best_of_bad(F[bad])]])]
    perfect, extension = route_main(F[kept], F[good], F[bad])
    return good, bad, kept[perfect], kept[extension]


def no_row_dominates_another(F):
    rows = F.tolist()
    return not any(dominates_scalar(a, b) for a in rows for b in rows)


class TestFrontRoute:
    @settings(max_examples=300, deadline=None)
    @given(one_fronts(), st.data())
    def test_route_matches_the_four_helpers(self, F, data):
        # for any split of a one-front population, the route gives what the
        # general helpers give, or declines exactly when a joint crowding
        # is NaN, which only they order
        assert no_row_dominates_another(F)
        order = np.array(data.draw(st.permutations(range(len(F)))))
        split = data.draw(st.integers(2, len(F) - 1))
        separated, main = order[:split], order[split:]
        with np.errstate(over="ignore", invalid="ignore"):
            routed = molpb._front_route(F, separated, main)
            want = four_helpers(F, separated, main)
            joint = rank_and_crowd(F[np.concatenate([main, *want[:2]])])[1]
        assert (routed is None) == bool(np.isnan(joint).any())
        if routed is not None:
            assert all(np.array_equal(got, w) for got, w in zip(routed, want))


def mating(F, seed, one_front):
    """The engine's parent pairs for the population ``F``, and the state its
    generator is left in."""
    engine = MolpbEngine(MolpbConfig(n_pop=len(F), seed=seed), get_problem("zdt1"))
    engine.F, engine.one_front = F, one_front
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = engine.mating()
    return a.tolist(), b.tolist(), engine.rng.bit_generator.state


def oracle_mating(F, seed):
    """:func:`mating` by the row-by-row oracle: the same pairs from the same
    draws leave the generator in the same state."""
    rng = np.random.default_rng(seed)
    a, b = molpb_mating_oracle(F, rng)
    return a.tolist(), b.tolist(), rng.bit_generator.state


class TestMatingOracle:
    @settings(max_examples=200, deadline=None)
    @given(populations(), st.integers(0, 2**32 - 1))
    def test_mating_matches_the_row_by_row_oracle(self, F, seed):
        F = np.array(F)
        assert mating(F, seed, no_row_dominates_another(F)) == oracle_mating(F, seed)

    def test_front_route_matches_the_row_by_row_oracle(self, monkeypatch):
        # a one-front population takes the route, or is declined when its
        # joint crowding is NaN, and gives the general path's pairs from
        # the same draws either way; with finite spans no crowding is NaN,
        # and the pairs are the oracle's too (its sorts cannot place NaN);
        # both branches are taken
        taken = {True: 0, False: 0}
        front_route = molpb._front_route

        def counted(F, separated, main):
            routed = front_route(F, separated, main)
            taken[routed is not None] += 1
            return routed

        monkeypatch.setattr(molpb, "_front_route", counted)

        @settings(max_examples=200, deadline=None)
        @given(one_fronts(), st.integers(0, 2**32 - 1))
        def check(F, seed):
            pairs = mating(F, seed, True)
            assert pairs == mating(F, seed, False)
            with np.errstate(over="ignore"):
                finite = np.isfinite(F.max(axis=0) - F.min(axis=0)).all()
            if finite:
                assert pairs == oracle_mating(F, seed)

        check()
        assert taken[True] > 0 and taken[False] > 0

    def test_a_chain_whose_spans_overflow_takes_the_general_path(self, monkeypatch):
        # the neighbour gap of the row at f1 = 0 overflows, as do both
        # spans, so its joint crowding is NaN, which only the general path
        # orders (last); so that population gives the general path's pairs
        f1 = np.array([-1.6e308, -1.2e308, -1e308, 0.0, 1e308, 1.2e308, 1.6e308, 1.7e308])
        F = np.column_stack([f1, -f1])[[5, 2, 7, 0, 3, 6, 1, 4]]
        fast = [mating(F, seed, True) for seed in range(40)]
        monkeypatch.setattr(molpb, "_front_route", lambda F, separated, main: None)
        assert fast == [mating(F, seed, True) for seed in range(40)]


class TestEngine:
    def test_initialize_is_seed_deterministic(self):
        problem = get_problem("zdt1")
        e1 = MolpbEngine(MolpbConfig(n_pop=20, seed=5, max_generations=0), problem)
        e2 = MolpbEngine(MolpbConfig(n_pop=20, seed=5, max_generations=0), problem)
        e1.initialize()
        e2.initialize()
        assert np.array_equal(e1.X, e2.X) and np.array_equal(e1.F, e2.F)

    def test_different_seeds_differ(self):
        problem = get_problem("zdt1")
        e1 = MolpbEngine(MolpbConfig(n_pop=20, seed=5), problem)
        e2 = MolpbEngine(MolpbConfig(n_pop=20, seed=6), problem)
        e1.initialize()
        e2.initialize()
        assert not np.array_equal(e1.X, e2.X)

    def test_initial_population_within_bounds(self):
        problem = get_problem("zdt4")
        engine = MolpbEngine(MolpbConfig(n_pop=30, seed=1), problem)
        engine.initialize()
        assert np.all(engine.X >= problem.lower) and np.all(engine.X <= problem.upper)

    def test_population_size_invariant(self):
        engine = MolpbEngine(MolpbConfig(n_pop=24, seed=2), get_problem("zdt1"))
        engine.initialize()
        for _ in range(5):
            engine.step()
            assert engine.X.shape == (24, 30) and engine.F.shape == (24, 2)

    def test_evaluations_per_generation_equal_offspring_count(self):
        cfg = MolpbConfig(n_pop=24, seed=3)
        engine = MolpbEngine(cfg, get_problem("zdt1"))
        engine.initialize()
        before = engine.evaluations
        engine.step()
        assert engine.evaluations - before == cfg.offspring_count

    def test_archive_mutually_non_dominated_each_generation(self):
        engine = MolpbEngine(MolpbConfig(n_pop=20, seed=4), get_problem("zdt2"))
        engine.initialize()
        for _ in range(5):
            engine.step()
            F = engine.archive.objectives()
            for i in range(len(F)):
                for j in range(len(F)):
                    assert i == j or not dominates_scalar(F[i], F[j])

    def test_all_evaluated_solutions_respect_bounds_and_kinds(self):
        base = get_problem("coil_spring")
        seen = []

        def recording(X):
            seen.extend(np.array(X))
            return base.objectives(X)

        problem = dataclasses.replace(base, objectives=recording)
        engine = MolpbEngine(MolpbConfig(n_pop=16, seed=5), problem)
        engine.initialize()
        for _ in range(4):
            engine.step()
        assert len(seen) == engine.evaluations
        from mobench.suite import SPRING_WIRE_DIAMETERS

        for x in seen:
            assert np.all(x >= base.lower) and np.all(x <= base.upper)
            assert x[0] == int(x[0])
            assert x[2] in SPRING_WIRE_DIAMETERS

    def test_zero_generations_archive_is_initial_front(self):
        problem = get_problem("zdt3")
        result = run(MolpbConfig(n_pop=30, seed=6, max_generations=0), problem)
        engine = MolpbEngine(MolpbConfig(n_pop=30, seed=6), problem)
        engine.initialize()
        F = engine.F
        mask = non_dominated_mask_python(F.tolist())
        expected = {tuple(row) for row, keep in zip(F.tolist(), mask) if keep}
        assert {tuple(row) for row in result.front.tolist()} == expected

    def test_run_is_bitwise_reproducible(self):
        cfg = MolpbConfig(n_pop=20, seed=7, max_generations=8)
        e1, e2 = MolpbEngine(cfg, get_problem("zdt1")), MolpbEngine(cfg, get_problem("zdt1"))
        r1, r2 = e1.run(), e2.run()
        assert np.array_equal(r1.front, r2.front)
        assert np.array_equal(e1.X, e2.X) and np.array_equal(e1.F, e2.F)
        assert r1.evaluations == r2.evaluations

    def test_tiny_population_edge_case(self, monkeypatch):
        # n_pop=7 separates 4 (good half 2, bad half 2) and leaves a main
        # part of 3; when the best of the bad half dominates all of it, the
        # good half's second part mates with bad-half partners instead
        monkeypatch.setattr(molpb, "filter_main", lambda F, best: np.array([], dtype=int))
        cfg = MolpbConfig(n_pop=7, offspring_count=4, seed=9, max_generations=3)
        engine = MolpbEngine(cfg, get_problem("zdt1"))
        engine.initialize()
        separated = copy.deepcopy(engine.rng).permutation(7)[:4]
        a, b = engine.mating()
        assert len(a) == len(b) == 2
        assert set(a) < set(separated)  # the two good members
        assert b[1] in set(separated) - set(a)  # a bad-half partner
        for _ in range(3):
            engine.step()
        assert engine.evaluations == 7 + 3 * 4

    def test_archive_gd_mostly_non_increasing(self):
        # over a full-length seeded run the elitist archive only loses
        # ground through crowding truncation, so GD almost always improves
        reference = analytic_reference_front("zdt1", 500).points
        engine = MolpbEngine(MolpbConfig(seed=3), get_problem("zdt1"))
        engine.initialize()
        values = [gd(engine.archive.objectives(), reference)]
        for _ in range(350):
            engine.step()
            values.append(gd(engine.archive.objectives(), reference))
        improving = sum(1 for a, b in zip(values, values[1:]) if b <= a + 1e-15)
        assert improving >= 0.8 * (len(values) - 1)
