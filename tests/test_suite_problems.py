import math

import numpy as np
import pytest

from mobench import suite
from mobench.errors import InvalidInputError
from mobench.problems import decode
from mobench.suite import (
    SPRING_WIRE_DIAMETERS,
    analytic_reference_front,
    constraint_violation,
    get_problem,
    is_zdt,
    load_reference_csv,
    merged_reference_front,
    problem_names,
)
from mobench.results import write_front_csv

from oracles import dominates_scalar


def mutual_non_domination(points):
    for i in range(len(points)):
        for j in range(len(points)):
            if i != j and dominates_scalar(points[i], points[j]):
                return False
    return True


class TestZdtDefinitions:
    def test_dimensions_and_bounds(self):
        for name, n, lo, hi in [
            ("zdt1", 30, 0.0, 1.0),
            ("zdt2", 30, 0.0, 1.0),
            ("zdt3", 30, 0.0, 1.0),
            ("zdt4", 10, -5.0, 5.0),
            ("zdt6", 10, 0.0, 1.0),
        ]:
            spec = get_problem(name)
            assert spec.n_vars == n
            assert spec.n_objectives == 2
            # x1 is in [0, 1] on every ZDT problem
            assert spec.lower.tolist() == [0.0] + [lo] * (n - 1)
            assert spec.upper.tolist() == [1.0] + [hi] * (n - 1)

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidInputError):
            get_problem("zdt5")

    def test_zdt2_hand_point(self):
        f = get_problem("zdt2").objectives(np.array([0.5] + [0.0] * 29))
        assert np.allclose(f, [0.5, 0.75], atol=1e-12)

    def test_zdt4_hand_point(self):
        f = get_problem("zdt4").objectives(np.array([0.5] + [0.0] * 9))
        assert f[0] == 0.5
        assert f[1] == pytest.approx(1 - math.sqrt(0.5), abs=1e-12)

    def test_zdt6_hand_point(self):
        f = get_problem("zdt6").objectives(np.zeros(10))
        assert np.allclose(f, [1.0, 0.0], atol=1e-12)

    def test_minimal_tail_lands_on_analytic_front(self):
        # first variable free, rest at their g-minimizing zeros
        rng = np.random.default_rng(3)
        for name in ["zdt1", "zdt2", "zdt3", "zdt4", "zdt6"]:
            spec = get_problem(name)
            for x1 in rng.random(20):
                x = np.zeros(spec.n_vars)
                x[0] = x1
                f1, f2 = spec.objectives(x)
                if name in ("zdt1", "zdt4"):
                    expected = 1 - math.sqrt(f1)
                elif name == "zdt2":
                    expected = 1 - f1**2
                elif name == "zdt3":
                    expected = 1 - math.sqrt(f1) - f1 * math.sin(10 * math.pi * f1)
                else:
                    expected = 1 - f1**2
                assert f2 == pytest.approx(expected, abs=1e-12), name


class TestConstraintViolation:
    def test_feasible_scores_zero(self):
        assert constraint_violation([0.5, 2.0, 0.0]) == 0.0

    def test_sums_infeasibility_magnitudes(self):
        assert constraint_violation([-1.5, 2.0, -0.5]) == 2.0


class TestFourBarTruss:
    def test_bounds(self):
        spec = get_problem("four_bar_truss")
        assert np.allclose(spec.lower, [1.0, math.sqrt(2), math.sqrt(2), 1.0])
        assert np.all(spec.upper == 3.0)

    def test_lower_corner_fixture(self):
        spec = get_problem("four_bar_truss")
        x = np.array([1.0, math.sqrt(2), math.sqrt(2), 1.0])
        f = spec.objectives(x)
        # exact re-derivation
        f1 = 200 * (2 + 2 + 2**0.25 + 1)
        assert f[0] == pytest.approx(f1, rel=1e-9)
        assert f[0] == pytest.approx(1237.84, rel=1e-3)
        assert f[1] == pytest.approx(0.04, rel=1e-9)

    def test_upper_corner_fixture(self):
        spec = get_problem("four_bar_truss")
        f = spec.objectives(np.array([3.0, 3.0, 3.0, 3.0]))
        expected = 200 * (6 + 3 * math.sqrt(2) + math.sqrt(3) + 3)
        assert f[0] == pytest.approx(expected, rel=1e-9)
        assert f[0] == pytest.approx(2994.94, rel=1e-3)


class TestPressureVessel:
    def test_variable_kinds(self):
        spec = get_problem("pressure_vessel")
        x = decode(np.array([2.4, 7.7, 55.5, 120.9]), spec)
        assert x[0] == 2.0 and x[1] == 8.0
        assert x[2] == 55.5 and x[3] == 120.9

    def test_cost_fixture(self):
        spec = get_problem("pressure_vessel")
        f = spec.objectives(np.array([1.0, 1.0, 10.0, 10.0]))
        expected = 0.6224 * 100 + 1.7781 * 100 + 3.1661 * 10 + 19.84 * 10
        assert f[0] == pytest.approx(expected, rel=1e-9)
        assert f[0] == pytest.approx(470.111, rel=1e-3)

    def test_violation_fixture(self):
        spec = get_problem("pressure_vessel")
        x = np.array([1.0, 1.0, 10.0, 10.0])
        g = suite._vessel_g(x)
        assert g[0] == pytest.approx(0.807, rel=1e-3)
        assert g[1] == pytest.approx(0.9046, rel=1e-3)
        expected_g3 = math.pi * 1000 + (4.0 / 3.0) * math.pi * 1000 - 1296000
        assert g[2] == pytest.approx(expected_g3, rel=1e-9)
        assert spec.objectives(x)[1] == pytest.approx(-expected_g3, rel=1e-9)
        assert spec.objectives(x)[1] == pytest.approx(1288669.62, rel=1e-3)

    def test_feasible_point_scores_zero(self):
        spec = get_problem("pressure_vessel")
        # large radius/volume satisfies g3; thick walls satisfy g1, g2
        x = np.array([50.0, 50.0, 200.0, 240.0])
        assert np.all(suite._vessel_g(x) >= 0)
        assert spec.objectives(x)[1] == 0.0


class TestCoilSpring:
    def test_variable_kinds(self):
        spec = get_problem("coil_spring")
        x = decode(np.array([10.4, 1.0, 0.05]), spec)
        assert x[0] == 10.0
        assert x[2] == 0.047
        assert x[2] in SPRING_WIRE_DIAMETERS

    def test_volume_fixture(self):
        spec = get_problem("coil_spring")
        f = spec.objectives(np.array([10.0, 1.0, 0.1]))
        assert f[0] == pytest.approx(math.pi**2 * 0.01 * 12 / 4, rel=1e-9)
        assert f[0] == pytest.approx(0.2961, rel=1e-3)

    def test_helper_quantities_fixture(self):
        # C_f = 39/36 + 0.0615 and K = 1150/80 at (10, 1, 0.1)
        x1, x2, x3 = 10.0, 1.0, 0.1
        ratio = x2 / x3
        c_f = (4 * ratio - 1) / (4 * ratio - 4) + 0.615 * x3 / x2
        k = 11.5e6 * x3**4 / (8 * x1 * x2**3)
        assert c_f == pytest.approx(1.14483, rel=1e-3)
        assert k == pytest.approx(14.375, rel=1e-9)
        # shear-stress constraint reconstructed from the helpers
        g = suite._spring_g(np.array([x1, x2, x3]))
        assert g[0] == pytest.approx(-8 * c_f * 1000 * x2 / (math.pi * x3**3) + 189000, rel=1e-9)

    def test_feasible_point_scores_zero(self):
        spec = get_problem("coil_spring")
        x = decode(np.array([20.0, 1.0, 0.283]), spec)
        assert np.all(suite._spring_g(x) >= 0)
        assert spec.objectives(x)[1] == 0.0


class TestSpeedReducer:
    def test_variable_kinds_and_bounds(self):
        spec = get_problem("speed_reducer")
        assert spec.n_objectives == 3
        x = decode(np.array([3.0, 0.75, 20.6, 8.0, 8.0, 3.0, 5.2]), spec)
        assert x[2] == 21.0

    def test_shaft_stress_fixture(self):
        spec = get_problem("speed_reducer")
        x = np.array([3.0, 0.7, 17.0, 7.3, 7.9, 3.35, 5.2])
        f = spec.objectives(x)
        expected = math.sqrt((745 * 7.3 / (0.7 * 17)) ** 2 + 1.69e7) / (0.1 * 3.35**3)
        assert f[1] == pytest.approx(expected, rel=1e-9)
        assert f[1] == pytest.approx(1100.2, rel=1e-3)

    def test_gear_constraint_fixtures(self):
        x = np.array([3.5, 0.7, 17.0, 8.0, 8.0, 3.4, 5.2])
        g = suite._reducer_g(x)
        assert g[4] == pytest.approx(40 - 0.7 * 17, rel=1e-9)  # 28.1
        assert g[6] == pytest.approx(0.0, abs=1e-12)  # x1/x2 = 5 exactly on boundary

    def test_boundary_feasible_contributes_nothing(self):
        assert constraint_violation([0.0, 5.0]) == 0.0


class TestCarSideImpact:
    def test_shape(self):
        spec = get_problem("car_side_impact")
        assert spec.n_vars == 7 and spec.n_objectives == 4

    def test_pubic_force_fixture(self):
        spec = get_problem("car_side_impact")
        f = spec.objectives(np.ones(7))
        assert f[1] == pytest.approx(4.72 - 0.5 - 0.19, rel=1e-9)
        assert f[1] == pytest.approx(4.03, rel=1e-3)

    def test_pillar_velocity_fixture(self):
        spec = get_problem("car_side_impact")
        x = np.ones(7)
        v_mbp = 10.58 - 0.674 - 0.67275
        assert v_mbp == pytest.approx(9.23325, rel=1e-9)
        # f3 folds both velocity terms
        v_fd = 16.45 - 0.489 - 0.843
        assert spec.objectives(x)[2] == pytest.approx(0.5 * (v_mbp + v_fd), rel=1e-9)
        # the velocity constraint mirrors the same expression
        assert suite._car_g(x)[8] == pytest.approx(9.9 - v_mbp, rel=1e-9)

    def test_ten_constraints(self):
        assert suite._car_g(np.ones(7)).shape == (10,)

    def test_feasible_point_scores_zero(self):
        spec = get_problem("car_side_impact")
        x = np.array([1.5, 1.35, 0.5, 1.5, 2.625, 1.2, 1.2])
        assert np.all(suite._car_g(x) >= 0)
        assert spec.objectives(x)[3] == 0.0


class TestAnalyticReferenceFronts:
    def test_zdt1_endpoints_present(self):
        front = analytic_reference_front("zdt1", 101).points
        assert [0.0, 1.0] in front.tolist()
        assert [1.0, 0.0] in front.tolist()

    def test_zdt2_midpoint(self):
        front = analytic_reference_front("zdt2", 3).points
        assert [0.5, 0.75] in front.tolist()

    def test_all_fronts_mutually_non_dominated(self):
        for name in ["zdt1", "zdt2", "zdt3", "zdt4", "zdt6"]:
            front = analytic_reference_front(name, 200).points
            assert mutual_non_domination(front.tolist()), name

    def test_zdt3_front_points_lie_on_curve_and_cover_segments(self):
        front = analytic_reference_front("zdt3", 300).points
        for f1, f2 in front:
            expected = 1 - math.sqrt(f1) - f1 * math.sin(10 * math.pi * f1)
            assert f2 == pytest.approx(expected, abs=1e-12)
        # the discontinuous front spans several separated bands of f1
        gaps = np.diff(np.sort(front[:, 0]))
        assert np.count_nonzero(gaps > 0.05) >= 4

    def test_zdt6_attainable_range(self):
        front = analytic_reference_front("zdt6", 50).points
        spec = get_problem("zdt6")
        # the smallest front f1 must actually be attainable by some x1
        xs = np.linspace(0, 1, 20001)
        best = min(1 - math.exp(-4 * x) * math.sin(6 * math.pi * x) ** 6 for x in xs)
        assert front[:, 0].min() == pytest.approx(best, abs=1e-5)
        assert front[:, 0].max() == 1.0
        f = spec.objectives(np.zeros(10))
        assert f[0] == 1.0

    def test_non_zdt_is_unsupported(self):
        with pytest.raises(InvalidInputError, match="no analytic front"):
            analytic_reference_front("pressure_vessel", 10)


class TestMergedReferenceFront:
    def test_union_with_itself_is_identity(self):
        front = np.array([[0.0, 1.0], [1.0, 0.0]])
        merged = merged_reference_front([front, front])
        assert sorted(map(tuple, merged.points.tolist())) == [(0.0, 1.0), (1.0, 0.0)]

    def test_dominated_member_removed(self):
        merged = merged_reference_front([np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]])])
        assert merged.points.tolist() == [[0.0, 0.0]]

    def test_incomparable_points_all_retained(self):
        merged = merged_reference_front(
            [np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([[1.5, 1.5]])]
        )
        assert len(merged.points) == 3

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            merged_reference_front([np.zeros((2, 2)), np.zeros((2, 3))])

    @pytest.mark.parametrize("first", [np.array([1.0, 2.0]), np.array(1.0)])
    def test_non_matrix_front_rejected(self, first):
        with pytest.raises(InvalidInputError):
            merged_reference_front([first])
        with pytest.raises(InvalidInputError):
            merged_reference_front([np.zeros((2, 2)), first])


class TestReferenceCsvLoader:
    def test_round_trip_clean_front(self, tmp_path):
        path = tmp_path / "ref.csv"
        front = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
        write_front_csv(path, front)
        loaded = load_reference_csv(path)
        assert np.array_equal(loaded.points, front)
        assert loaded.source == "file"

    def test_dominated_rows_warned_and_dropped(self, tmp_path):
        path = tmp_path / "ref.csv"
        write_front_csv(path, np.array([[0.0, 1.0], [2.0, 2.0], [1.0, 0.0], [3.0, 3.0]]))
        with pytest.warns(UserWarning, match=r"lines \[3, 5\]"):
            loaded = load_reference_csv(path)
        assert loaded.points.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_repeated_row_warned_and_dropped(self, tmp_path):
        path = tmp_path / "ref.csv"
        write_front_csv(path, np.array([[0.0, 1.0], [1.0, 0.0], [-0.0, 1.0], [0.5, 0.5]]))
        with pytest.warns(UserWarning, match=r"dominated or repeated .* lines \[4\]"):
            loaded = load_reference_csv(path)
        assert loaded.points.tolist() == [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]

    def test_warning_names_the_file_line_after_a_blank_line(self, tmp_path):
        path = tmp_path / "ref.csv"
        path.write_text("f1,f2\n\n0,1\n1,1\n")
        with pytest.warns(UserWarning, match=r"lines \[4\]"):
            loaded = load_reference_csv(path)
        assert loaded.points.tolist() == [[0.0, 1.0]]


def test_registry_contents():
    names = problem_names()
    assert names == sorted(
        [
            "zdt1",
            "zdt2",
            "zdt3",
            "zdt4",
            "zdt6",
            "four_bar_truss",
            "pressure_vessel",
            "coil_spring",
            "speed_reducer",
            "car_side_impact",
        ]
    )
    assert get_problem("ZDT1").name == "zdt1"
    assert is_zdt("ZDT4") and not is_zdt("pressure_vessel")
    with pytest.raises(InvalidInputError):
        get_problem("nope")


@pytest.mark.parametrize("name", problem_names())
def test_get_problem_returns_independent_bounds(name):
    first = get_problem(name)
    lower, upper = first.lower.copy(), first.upper.copy()
    first.lower[:] = -1.0e9
    first.upper[:] = 1.0e9
    second = get_problem(name)
    assert second.lower is not first.lower and second.upper is not first.upper
    assert np.array_equal(second.lower, lower) and np.array_equal(second.upper, upper)
