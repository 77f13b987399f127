import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobench import molpb, operators
from mobench.engine import EngineConfig
from mobench.errors import InvalidConfigError
from mobench.operators import polynomial_mutation, sbx_crossover
from mobench.suite import get_problem

from oracles import polynomial_mutation_dense, sbx_crossover_two_powers


class TestVariationConfig:
    """The operator settings of the engine config."""

    def test_accepts_table_defaults(self):
        EngineConfig(offspring_count=140)

    def test_rejects_odd_or_tiny_offspring(self):
        with pytest.raises(InvalidConfigError):
            EngineConfig(offspring_count=3)
        with pytest.raises(InvalidConfigError):
            EngineConfig(offspring_count=0)

    def test_default_offspring_count(self):
        assert EngineConfig(n_pop=100).offspring_count == 140


def separated_size(n_pop: int) -> int:
    """Size of the group that one MOLPB mating separates, read by a spy on
    ``split_good_bad``, which receives exactly that group's objectives."""
    sizes = []
    original = molpb.split_good_bad

    def spy(F):
        sizes.append(len(F))
        return original(F)

    engine = molpb.MolpbEngine(molpb.MolpbConfig(n_pop=n_pop, seed=n_pop), get_problem("zdt1"))
    engine.initialize()
    molpb.split_good_bad = spy
    try:
        engine.mating()
    finally:
        molpb.split_good_bad = original
    (size,) = sizes
    return size


class TestDpSplitSize:
    def test_table_default(self):
        assert separated_size(100) == 60

    def test_half_up_rounding(self):
        assert separated_size(7) == 4  # round(4.2)

    @settings(deadline=None)
    @given(st.integers(4, 400))
    def test_half_up_share_leaves_both_groups_usable(self, n_pop):
        size = separated_size(n_pop)
        assert size == math.floor(0.6 * n_pop + 0.5)
        assert 2 <= size <= n_pop - 1

    def test_population_floor(self):
        with pytest.raises(InvalidConfigError, match="population size must be >= 4, got 3"):
            molpb.MolpbConfig(n_pop=3)
        assert molpb.MolpbConfig(n_pop=4).n_pop == 4


class _MidpointRng:
    """Stub driving SBX into its beta=1 branch (u = 0.5 everywhere)."""

    def random(self, n):
        return np.full(n, 0.5)


class TestSbxCrossover:
    lower = np.zeros(5)
    upper = np.ones(5)

    def test_identical_parents_reproduce(self):
        rng = np.random.default_rng(0)
        p = np.array([0.2, 0.4, 0.6, 0.8, 0.5])
        c1, c2 = sbx_crossover(p, p, self.lower, self.upper, rng)
        assert np.allclose(c1, p, atol=1e-15)
        assert np.allclose(c2, p, atol=1e-15)

    def test_children_stay_in_bounds(self):
        rng = np.random.default_rng(1)
        p1 = rng.random((20_000, 5))
        p2 = rng.random((20_000, 5))
        c1, c2 = sbx_crossover(p1, p2, self.lower, self.upper, rng)
        assert c1.shape == c2.shape == (20_000, 5)
        assert np.all(c1 >= 0) and np.all(c1 <= 1)
        assert np.all(c2 >= 0) and np.all(c2 <= 1)

    def test_mean_preservation_preclamp(self):
        # with wide bounds nothing clamps, so the mean identity is exact
        rng = np.random.default_rng(2)
        wide_lo, wide_hi = np.full(5, -1e9), np.full(5, 1e9)
        p1 = rng.normal(size=(500, 5))
        p2 = rng.normal(size=(500, 5))
        c1, c2 = sbx_crossover(p1, p2, wide_lo, wide_hi, rng)
        assert np.allclose((c1 + c2) / 2, (p1 + p2) / 2, atol=1e-12)

    def test_midpoint_branch_brackets_parent_midpoint(self):
        p1 = np.array([0.1, 0.3, 0.9, 0.2, 0.6])
        p2 = np.array([0.8, 0.1, 0.4, 0.7, 0.6])
        c1, c2 = sbx_crossover(p1, p2, self.lower, self.upper, _MidpointRng())
        mid = (p1 + p2) / 2
        assert np.all(np.minimum(c1, c2) <= mid + 1e-15)
        assert np.all(np.maximum(c1, c2) >= mid - 1e-15)

    def test_matrix_rows_draw_the_stream_in_row_order(self):
        # a matrix call consumes the uniforms exactly as successive row calls
        rng = np.random.default_rng(3)
        p1, p2 = rng.random((4, 5)), rng.random((4, 5))
        c1, c2 = sbx_crossover(p1, p2, self.lower, self.upper, np.random.default_rng(8))
        row_rng = np.random.default_rng(8)
        for i in range(4):
            r1, r2 = sbx_crossover(p1[i], p2[i], self.lower, self.upper, row_rng)
            assert np.array_equal(r1, c1[i]) and np.array_equal(r2, c2[i])

    def test_deterministic_under_seed(self):
        p1 = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        p2 = np.array([0.9, 0.8, 0.7, 0.6, 0.5])
        out1 = sbx_crossover(p1, p2, self.lower, self.upper, np.random.default_rng(42))
        out2 = sbx_crossover(p1, p2, self.lower, self.upper, np.random.default_rng(42))
        assert np.array_equal(out1[0], out2[0]) and np.array_equal(out1[1], out2[1])


class TestPolynomialMutation:
    def test_zero_probability_is_identity(self, monkeypatch):
        monkeypatch.setattr(operators, "MUTATION_PROB", 0.0)
        rng = np.random.default_rng(3)
        x = rng.random(30)
        out = polynomial_mutation(x, np.zeros(30), np.ones(30), rng)
        assert np.array_equal(out, x)

    def test_forced_mutation_changes_interior_coordinates(self, monkeypatch):
        monkeypatch.setattr(operators, "MUTATION_PROB", 1.0)
        rng = np.random.default_rng(4)
        x = np.full(30, 0.5)
        out = polynomial_mutation(x, np.zeros(30), np.ones(30), rng)
        assert np.all(out >= 0) and np.all(out <= 1)
        assert np.count_nonzero(out != x) >= 28  # essentially all coordinates move

    def test_empirical_rate_matches_probability(self):
        rng = np.random.default_rng(5)
        n = 100_000
        x = np.full(n, 0.5)
        out = polynomial_mutation(x, np.zeros(n), np.ones(n), rng)  # at MUTATION_PROB = 0.02
        rate = np.count_nonzero(out != x) / n
        assert 0.017 <= rate <= 0.023

    def test_closure_under_random_inputs(self, monkeypatch):
        monkeypatch.setattr(operators, "MUTATION_PROB", 0.5)
        rng = np.random.default_rng(6)
        lower = np.full(10, -2.0)
        upper = np.full(10, 3.0)
        x = rng.uniform(-2, 3, size=(2000, 10))
        out = polynomial_mutation(x, lower, upper, rng)
        assert out.shape == (2000, 10)
        assert np.all(out >= lower) and np.all(out <= upper)

    def test_deterministic_under_seed(self, monkeypatch):
        monkeypatch.setattr(operators, "MUTATION_PROB", 0.3)
        x = np.linspace(0, 1, 20)
        a = polynomial_mutation(x, np.zeros(20), np.ones(20), np.random.default_rng(9))
        b = polynomial_mutation(x, np.zeros(20), np.ones(20), np.random.default_rng(9))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("prob", [0.0, 0.02, 0.5, 1.0])
    @pytest.mark.parametrize("shape", [(30,), (140, 30), (9, 1)], ids=["1-D", "140x30", "9x1"])
    def test_matches_the_dense_formula_and_its_draws(self, prob, shape, monkeypatch):
        # only the mutated coordinates are computed, from the same draws:
        # the output bytes and the generator's state after the call match
        monkeypatch.setattr(operators, "MUTATION_PROB", prob)
        setup = np.random.default_rng(11)
        lower = setup.uniform(-5.0, 0.0, shape[-1])
        upper = lower + setup.uniform(0.0, 5.0, shape[-1])
        upper[0] = lower[0]  # a bound of zero width
        x = setup.uniform(lower, upper, size=shape)
        rng, dense_rng = np.random.default_rng(3), np.random.default_rng(3)
        got = polynomial_mutation(x, lower, upper, rng)
        want = polynomial_mutation_dense(x, lower, upper, dense_rng, prob, operators.DISTRIBUTION_INDEX)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == dense_rng.bit_generator.state


def contract_cases():
    """(name, x, lower, upper): a matrix inside the bounds, one with
    coordinates outside them, one of signed zeros at a 0.0 bound, and a
    single row of each. One variable has bounds of zero width at 0.0."""
    setup = np.random.default_rng(21)
    lower = np.array([0.0, -1.0, 0.0, 2.0, -3.0])
    upper = np.array([1.0, 1.0, 0.0, 5.0, 0.0])
    inside = setup.uniform(lower, upper, (60, 5))
    outside = inside.copy()
    outside[::3, 1], outside[1::3, 3], outside[2::3, 4] = 7.0, -4.0, 0.5
    zeros = np.tile([-0.0, 0.0, -0.0, 2.0, -0.0], (60, 1))
    zeros[::2] = [0.0, -0.0, 0.0, 2.0, 0.0]
    cases = [("inside", inside), ("outside", outside), ("signed-zeros", zeros)]
    return [
        pytest.param(x[rows], lower, upper, id=f"{name}-{shape}")
        for name, x in cases
        for rows, shape in ((slice(None), "60x5"), (7, "1-D"))
    ]


class TestVariationContract:
    """Both operators stay byte-identical to the formulas they replaced,
    with the same draws, on the inputs where clamping and signed zeros
    decide the bytes."""

    @pytest.mark.parametrize("prob", [0.02, 0.5, 1.0])
    @pytest.mark.parametrize("x, lower, upper", contract_cases())
    def test_polynomial_mutation_matches_the_dense_formula(self, x, lower, upper, prob, monkeypatch):
        monkeypatch.setattr(operators, "MUTATION_PROB", prob)
        rng, dense_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = polynomial_mutation(x, lower, upper, rng)
        want = polynomial_mutation_dense(x, lower, upper, dense_rng, prob, operators.DISTRIBUTION_INDEX)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == dense_rng.bit_generator.state

    @pytest.mark.parametrize("x, lower, upper", contract_cases())
    def test_sbx_matches_the_two_power_formula(self, x, lower, upper):
        other = x[::-1] if x.ndim == 2 else x[::-1].copy()
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        got = sbx_crossover(x, other, lower, upper, rng)
        want = sbx_crossover_two_powers(x, other, lower, upper, ref_rng, operators.DISTRIBUTION_INDEX)
        assert [c.tobytes() for c in got] == [c.tobytes() for c in want]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
