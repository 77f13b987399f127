import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobench.errors import EvaluationError, InvalidConfigError, InvalidInputError
from mobench.problems import (
    Continuous,
    Discrete,
    Integer,
    ProblemSpec,
    decode,
    evaluate,
)
from mobench.suite import SPRING_WIRE_DIAMETERS, get_problem, problem_names


def make_mixed_spec():
    return ProblemSpec(
        name="mixed",
        n_objectives=2,
        lower=np.array([0.0, -4.0, 0.009]),
        upper=np.array([3.0, 4.0, 0.5]),
        kinds=(Continuous(), Integer(), Discrete(SPRING_WIRE_DIAMETERS)),
        objectives=lambda x: np.array([x[0], x[1] + x[2]]),
    )


class TestVariableKinds:
    def test_integer_needs_ordered_range(self):
        with pytest.raises(InvalidConfigError, match="variable 1: lower bound must be <"):
            ProblemSpec(
                name="bad-int",
                n_objectives=2,
                lower=np.array([0.0, 5.0]),
                upper=np.array([1.0, 4.0]),
                kinds=(Continuous(), Integer()),
                objectives=lambda x: x,
            )

    def test_integer_bounds_must_be_whole_numbers(self):
        # decode rounds an integer coordinate, so a fractional bound would
        # let it leave the box: 2.5 in [0.5, 2.5] rounds to 3.0
        for lo, hi in [(0.5, 2.5), (0.5, 3.0), (1.0, 2.5)]:
            with pytest.raises(InvalidConfigError, match=r"variable 1: integer bounds .* whole"):
                ProblemSpec(
                    name="bad-int",
                    n_objectives=2,
                    lower=np.array([0.0, lo]),
                    upper=np.array([1.0, hi]),
                    kinds=(Continuous(), Integer()),
                    objectives=lambda x: x,
                )

    def test_spec_needs_one_bound_pair_per_kind(self):
        for lower, upper in [([0.0], [1.0]), ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])]:
            with pytest.raises(InvalidConfigError, match=r"one \[lower, upper\] pair"):
                ProblemSpec(
                    name="short-bounds",
                    n_objectives=2,
                    lower=np.array(lower),
                    upper=np.array(upper),
                    kinds=(Continuous(), Continuous()),
                    objectives=lambda x: x,
                )

    def test_discrete_needs_ascending_values(self):
        with pytest.raises(InvalidConfigError):
            Discrete(())
        with pytest.raises(InvalidConfigError):
            Discrete((0.1, 0.1, 0.2))
        with pytest.raises(InvalidConfigError):
            Discrete((0.2, 0.1))

    def test_discrete_values_must_be_finite(self):
        with pytest.raises(InvalidConfigError, match="must be finite"):
            Discrete((0.0, float("nan"), 1.0))

    @pytest.mark.parametrize("kind", [Continuous(), Integer()])
    def test_spec_bounds_must_be_finite(self, kind):
        match = r"variable 1: bounds \[-inf, 1\.0\] must be finite"
        with pytest.raises(InvalidConfigError, match=match):
            ProblemSpec(
                name="unbounded",
                n_objectives=2,
                lower=np.array([0.0, -np.inf]),
                upper=np.array([1.0, 1.0]),
                kinds=(Continuous(), kind),
                objectives=lambda x: x,
            )

    def test_spec_rejects_inverted_bounds(self):
        with pytest.raises(InvalidConfigError):
            ProblemSpec(
                name="bad",
                n_objectives=2,
                lower=np.array([1.0]),
                upper=np.array([1.0]),
                kinds=(Continuous(),),
                objectives=lambda x: np.array([x[0], -x[0]]),
            )


class TestDecode:
    def test_continuous_in_range_is_identity(self):
        spec = make_mixed_spec()
        assert decode(np.array([1.7, 0.0, 0.009]), spec)[0] == 1.7

    def test_continuous_clamps_to_upper(self):
        spec = make_mixed_spec()
        assert decode(np.array([4.2, 0.0, 0.009]), spec)[0] == 3.0

    def test_discrete_snaps_to_nearest_table_value(self):
        # |0.05 - 0.047| = 0.003 beats |0.05 - 0.054| = 0.004
        spec = get_problem("coil_spring")
        out = decode(np.array([10.0, 1.0, 0.05]), spec)
        assert out[2] == 0.047

    def test_discrete_tie_prefers_smaller_value(self):
        # an exactly representable midpoint: 2.0 sits equidistant from 1 and 3
        spec = ProblemSpec(
            name="tie",
            n_objectives=2,
            lower=np.array([1.0]),
            upper=np.array([3.0]),
            kinds=(Discrete((1.0, 3.0)),),
            objectives=lambda x: np.array([x[0], -x[0]]),
        )
        assert decode(np.array([2.0]), spec)[0] == 1.0

    def test_integer_rounds_ties_away_from_zero(self):
        spec = make_mixed_spec()
        assert decode(np.array([0.0, 2.5, 0.009]), spec)[1] == 3.0
        assert decode(np.array([0.0, -2.5, 0.009]), spec)[1] == -3.0
        assert decode(np.array([0.0, 1.2, 0.009]), spec)[1] == 1.0

    def test_length_mismatch_rejected(self):
        spec = make_mixed_spec()
        with pytest.raises(InvalidInputError):
            decode(np.array([1.0, 2.0]), spec)

    def test_idempotent_on_random_inputs(self):
        rng = np.random.default_rng(7)
        spec = make_mixed_spec()
        wide = rng.uniform(-10, 10, size=(500, 3))
        for row in wide:
            once = decode(row, spec)
            twice = decode(once, spec)
            assert np.array_equal(once, twice)

    def test_decoded_members_are_legal(self):
        rng = np.random.default_rng(8)
        spec = make_mixed_spec()
        for row in rng.uniform(-10, 10, size=(200, 3)):
            x = decode(row, spec)
            assert np.all(x >= spec.lower) and np.all(x <= spec.upper)
            assert x[1] == int(x[1])
            assert x[2] in SPRING_WIRE_DIAMETERS


class TestEvaluate:
    def test_zdt1_all_zeros(self):
        spec = get_problem("ZDT1")
        f = evaluate(spec, np.zeros(30))
        assert f.shape == (2,)
        assert np.allclose(f, [0.0, 1.0], atol=1e-12)

    def test_zdt1_unit_first_variable(self):
        spec = get_problem("ZDT1")
        f = evaluate(spec, np.array([1.0] + [0.0] * 29))
        assert np.allclose(f, [1.0, 0.0], atol=1e-12)

    def test_zdt1_hand_derived_point(self):
        spec = get_problem("ZDT1")
        x = np.array([0.25] + [0.5] * 29)
        g = 1 + 9 * 14.5 / 29
        expected = np.array([0.25, g * (1 - math.sqrt(0.25 / g))])
        assert np.allclose(evaluate(spec, x), expected, rtol=1e-12)

    def test_deterministic_bitwise(self):
        spec = get_problem("ZDT3")
        x = np.linspace(0.1, 0.9, 30)
        f1 = evaluate(spec, x)
        f2 = evaluate(spec, x)
        assert np.array_equal(f1, f2)

    def test_non_finite_objective_raises(self):
        spec = ProblemSpec(
            name="nanny",
            n_objectives=2,
            lower=np.array([0.0]),
            upper=np.array([1.0]),
            kinds=(Continuous(),),
            objectives=lambda x: np.array([x[0], float("nan")]),
        )
        with pytest.raises(EvaluationError, match=r"objective 1 of row 0 .* x=array\(\[0\.5\]\)"):
            evaluate(spec, np.array([0.5]))

    def test_non_finite_objective_names_the_row(self):
        spec = ProblemSpec(
            name="log",
            n_objectives=2,
            lower=np.array([-1.0]),
            upper=np.array([1.0]),
            kinds=(Continuous(),),
            objectives=lambda x: np.stack([x[..., 0], np.log(x[..., 0] + 1.0)], axis=-1),
        )
        match = r"objective 1 of row 2 is non-finite at x=array\(\[-1\.\]\)"
        with np.errstate(divide="ignore"), pytest.raises(EvaluationError, match=match):
            evaluate(spec, np.array([[0.5], [0.0], [-1.0], [-1.0]]))

    def test_wrong_arity_raises(self):
        spec = ProblemSpec(
            name="short",
            n_objectives=2,
            lower=np.array([0.0]),
            upper=np.array([1.0]),
            kinds=(Continuous(),),
            objectives=lambda x: np.array([x[0], 1.0, 2.0]),
        )
        with pytest.raises(EvaluationError):
            evaluate(spec, np.array([0.5]))


def test_every_bundled_problem_is_finite_on_random_points():
    rng = np.random.default_rng(123)
    for name in problem_names():
        spec = get_problem(name)
        X = rng.uniform(spec.lower, spec.upper, size=(10_000, spec.n_vars))
        F = spec.objectives(decode(X, spec))
        assert F.shape == (10_000, spec.n_objectives)
        assert np.all(np.isfinite(F)), f"{name} produced a non-finite objective"


@pytest.mark.parametrize("name", problem_names())
def test_batch_calls_equal_row_calls(name):
    # a matrix call must give every row exactly what a one-row call gives
    spec = get_problem(name)
    rng = np.random.default_rng(11)
    span = spec.upper - spec.lower
    raw = rng.uniform(spec.lower - 0.5 * span, spec.upper + 0.5 * span, size=(64, spec.n_vars))
    X = decode(raw, spec)
    F = evaluate(spec, X)
    assert X.shape == (64, spec.n_vars) and F.shape == (64, spec.n_objectives)
    for i in range(64):
        assert np.array_equal(decode(raw[i : i + 1], spec), X[i : i + 1])
        assert np.array_equal(evaluate(spec, X[i : i + 1]), F[i : i + 1])


@pytest.mark.parametrize("name", problem_names())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_decode_is_legal_and_idempotent(name, data):
    # raw rows reach up to two box widths beyond either bound
    spec = get_problem(name)
    rows = st.lists(st.floats(-2.0, 3.0), min_size=spec.n_vars, max_size=spec.n_vars)
    t = np.array(data.draw(st.lists(rows, min_size=1, max_size=8)))
    X = decode(spec.lower + t * (spec.upper - spec.lower), spec)
    assert np.all((spec.lower <= X) & (X <= spec.upper))
    for j, kind in enumerate(spec.kinds):
        if isinstance(kind, Integer):
            assert np.array_equal(X[:, j], np.round(X[:, j]))
        elif isinstance(kind, Discrete):
            assert np.isin(X[:, j], kind.allowed).all()
    assert np.array_equal(decode(X, spec), X)
