import numpy as np
import pytest

from mobench.engine import EngineConfig
from mobench.errors import InvalidConfigError
from mobench.operators import (
    default_offspring_count,
    dp_split_size,
    polynomial_mutation,
    sbx_crossover,
)


class TestVariationConfig:
    """The operator settings of the engine config."""

    def test_accepts_table_defaults(self):
        EngineConfig(offspring_count=140, mutation_prob=0.02)

    def test_rejects_odd_or_tiny_offspring(self):
        with pytest.raises(InvalidConfigError):
            EngineConfig(offspring_count=3, mutation_prob=0.02)
        with pytest.raises(InvalidConfigError):
            EngineConfig(offspring_count=0, mutation_prob=0.02)

    def test_rejects_bad_probability(self):
        with pytest.raises(InvalidConfigError):
            EngineConfig(offspring_count=4, mutation_prob=1.5)

    def test_default_offspring_count(self):
        assert default_offspring_count(100) == 140


class TestDpSplitSize:
    def test_table_default(self):
        assert dp_split_size(100, 0.6) == 60

    def test_exact_product(self):
        assert dp_split_size(10, 0.5) == 5

    def test_half_up_rounding(self):
        assert dp_split_size(7, 0.6) == 4  # round(4.2)
        assert dp_split_size(5, 0.5) == 3  # round(2.5) half-up

    def test_floor_of_two(self):
        assert dp_split_size(4, 0.1) == 2

    def test_dp_out_of_range_rejected(self):
        for dp in (0.05, 0.91, -1.0, 2.0):
            with pytest.raises(InvalidConfigError):
                dp_split_size(100, dp)


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
        c1, c2 = sbx_crossover(p, p, self.lower, self.upper, 20.0, rng)
        assert np.allclose(c1, p, atol=1e-15)
        assert np.allclose(c2, p, atol=1e-15)

    def test_children_stay_in_bounds(self):
        rng = np.random.default_rng(1)
        p1 = rng.random((20_000, 5))
        p2 = rng.random((20_000, 5))
        c1, c2 = sbx_crossover(p1, p2, self.lower, self.upper, 20.0, rng)
        assert c1.shape == c2.shape == (20_000, 5)
        assert np.all(c1 >= 0) and np.all(c1 <= 1)
        assert np.all(c2 >= 0) and np.all(c2 <= 1)

    def test_mean_preservation_preclamp(self):
        # with wide bounds nothing clamps, so the mean identity is exact
        rng = np.random.default_rng(2)
        wide_lo, wide_hi = np.full(5, -1e9), np.full(5, 1e9)
        p1 = rng.normal(size=(500, 5))
        p2 = rng.normal(size=(500, 5))
        c1, c2 = sbx_crossover(p1, p2, wide_lo, wide_hi, 20.0, rng)
        assert np.allclose((c1 + c2) / 2, (p1 + p2) / 2, atol=1e-12)

    def test_midpoint_branch_brackets_parent_midpoint(self):
        p1 = np.array([0.1, 0.3, 0.9, 0.2, 0.6])
        p2 = np.array([0.8, 0.1, 0.4, 0.7, 0.6])
        c1, c2 = sbx_crossover(p1, p2, self.lower, self.upper, 20.0, _MidpointRng())
        mid = (p1 + p2) / 2
        assert np.all(np.minimum(c1, c2) <= mid + 1e-15)
        assert np.all(np.maximum(c1, c2) >= mid - 1e-15)

    def test_matrix_rows_draw_the_stream_in_row_order(self):
        # a matrix call consumes the uniforms exactly as successive row calls
        rng = np.random.default_rng(3)
        p1, p2 = rng.random((4, 5)), rng.random((4, 5))
        c1, c2 = sbx_crossover(p1, p2, self.lower, self.upper, 20.0, np.random.default_rng(8))
        row_rng = np.random.default_rng(8)
        for i in range(4):
            r1, r2 = sbx_crossover(p1[i], p2[i], self.lower, self.upper, 20.0, row_rng)
            assert np.array_equal(r1, c1[i]) and np.array_equal(r2, c2[i])

    def test_deterministic_under_seed(self):
        p1 = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        p2 = np.array([0.9, 0.8, 0.7, 0.6, 0.5])
        out1 = sbx_crossover(p1, p2, self.lower, self.upper, 20.0, np.random.default_rng(42))
        out2 = sbx_crossover(p1, p2, self.lower, self.upper, 20.0, np.random.default_rng(42))
        assert np.array_equal(out1[0], out2[0]) and np.array_equal(out1[1], out2[1])


class TestPolynomialMutation:
    def test_zero_probability_is_identity(self):
        rng = np.random.default_rng(3)
        x = rng.random(30)
        out = polynomial_mutation(x, np.zeros(30), np.ones(30), 0.0, 20.0, rng)
        assert np.array_equal(out, x)

    def test_forced_mutation_changes_interior_coordinates(self):
        rng = np.random.default_rng(4)
        x = np.full(30, 0.5)
        out = polynomial_mutation(x, np.zeros(30), np.ones(30), 1.0, 20.0, rng)
        assert np.all(out >= 0) and np.all(out <= 1)
        assert np.count_nonzero(out != x) >= 28  # essentially all coordinates move

    def test_empirical_rate_matches_probability(self):
        rng = np.random.default_rng(5)
        n = 100_000
        x = np.full(n, 0.5)
        out = polynomial_mutation(x, np.zeros(n), np.ones(n), 0.02, 20.0, rng)
        rate = np.count_nonzero(out != x) / n
        assert 0.017 <= rate <= 0.023

    def test_closure_under_random_inputs(self):
        rng = np.random.default_rng(6)
        lower = np.full(10, -2.0)
        upper = np.full(10, 3.0)
        x = rng.uniform(-2, 3, size=(2000, 10))
        out = polynomial_mutation(x, lower, upper, 0.5, 20.0, rng)
        assert out.shape == (2000, 10)
        assert np.all(out >= lower) and np.all(out <= upper)

    def test_deterministic_under_seed(self):
        x = np.linspace(0, 1, 20)
        a = polynomial_mutation(x, np.zeros(20), np.ones(20), 0.3, 20.0, np.random.default_rng(9))
        b = polynomial_mutation(x, np.zeros(20), np.ones(20), 0.3, 20.0, np.random.default_rng(9))
        assert np.array_equal(a, b)
