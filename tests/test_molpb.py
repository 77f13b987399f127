import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobench import molpb
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


class TestMatingOracle:
    @settings(max_examples=200, deadline=None)
    @given(populations(), st.integers(0, 2**32 - 1))
    def test_mating_matches_the_row_by_row_oracle(self, F, seed):
        # the same pairs from the same draws: both calls leave the
        # generator in the same state
        F = np.array(F)
        engine = MolpbEngine(MolpbConfig(n_pop=len(F), seed=seed), get_problem("zdt1"))
        engine.F = F
        rng = np.random.default_rng(seed)
        a, b = engine.mating()
        want_a, want_b = molpb_mating_oracle(F, rng)
        assert a.tolist() == want_a.tolist() and b.tolist() == want_b.tolist()
        assert engine.rng.bit_generator.state == rng.bit_generator.state


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
