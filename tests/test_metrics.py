import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobench.errors import InvalidInputError
from mobench.metrics import gd, max_spread, rgd, score_front, spacing

from oracles import gd_oracle, max_spread_oracle, rgd_oracle, spacing_oracle
from strategies import objective_rows


class TestGd:
    def test_front_equal_reference_is_zero(self):
        F = [(0, 1), (0.5, 0.5), (1, 0)]
        assert gd(F, F) == 0.0

    def test_single_point_distance(self):
        assert gd([(0, 1)], [(0, 0)]) == pytest.approx(1.0, abs=1e-15)

    def test_two_points_quadratic_form(self):
        assert gd([(0, 1), (1, 0)], [(0, 0)]) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_p1_is_plain_average(self):
        assert gd([(0, 1), (1, 0)], [(0, 0)], p=1) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            gd([(0, 1)], [(0, 0, 0)])

    @pytest.mark.parametrize("p", [0, 3, -1, 2.5])
    def test_exponents_other_than_1_or_2_rejected(self, p):
        with pytest.raises(InvalidInputError, match="exponent"):
            gd([(0, 1)], [(0, 0)], p=p)
        with pytest.raises(InvalidInputError, match="exponent"):
            rgd([(0, 1)], [(0, 0)], p=p)

    def test_adding_a_reference_point_never_hurts(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            front = rng.random((12, 2))
            ref = rng.random((20, 2))
            base = gd(front, ref)
            extended = gd(np.vstack([front, ref[:1]]), ref)
            assert extended <= base + 1e-12


class TestRgd:
    def test_front_equal_reference_is_zero(self):
        F = [(0, 1), (1, 0)]
        assert rgd(F, F) == 0.0

    def test_swapped_roles(self):
        assert rgd([(0, 0)], [(0, 1), (1, 0)]) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_missing_cluster_scores_worse(self):
        reference = [(0, 1), (1, 0)]
        partial = rgd([(0, 1)], reference)
        full = rgd([(0, 1), (1, 0)], reference)
        assert full == 0.0
        assert partial == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


class TestSpacing:
    def test_evenly_spaced_points_score_zero(self):
        assert spacing([(0, 1), (0.5, 0.5), (1, 0)]) == pytest.approx(0.0, abs=1e-15)

    def test_two_points_score_zero(self):
        assert spacing([(0, 1), (1, 0)]) == 0.0

    def test_uneven_front_scores_oracle_value(self):
        front = [(0, 1), (0.1, 0.9), (1, 0)]
        assert spacing(front) == pytest.approx(spacing_oracle(front), abs=1e-12)
        assert spacing(front) > 0

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        front = rng.random((25, 3))
        shifted = front + np.array([3.0, -7.0, 11.0])
        assert spacing(shifted) == pytest.approx(spacing(front), abs=1e-12)


class TestMaxSpread:
    def test_singleton_is_zero(self):
        assert max_spread([(3, 4)]) == 0.0

    def test_unit_simplex_corners(self):
        assert max_spread([(0, 1), (1, 0)]) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_axis_scaling_scales_contribution(self):
        front = np.array([(0.0, 1.0), (1.0, 0.0), (0.5, 0.5)])
        scaled = front.copy()
        scaled[:, 0] *= 2
        assert max_spread(scaled) == pytest.approx(math.sqrt(4 + 1), abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(objective_rows(extremes=False), st.data())
def test_all_metrics_match_oracles_on_random_fronts(front, data):
    ref = data.draw(objective_rows(m=len(front[0]), extremes=False))
    close = dict(rel=1e-12, abs=1e-12)
    for p in (1, 2):
        assert gd(front, ref, p=p) == pytest.approx(gd_oracle(front, ref, p=p), **close)
        assert rgd(front, ref, p=p) == pytest.approx(rgd_oracle(front, ref, p=p), **close)
    assert spacing(front) == pytest.approx(spacing_oracle(front), **close)
    assert max_spread(front) == pytest.approx(max_spread_oracle(front), **close)


def test_score_front_bundles_all_four():
    front = [(0, 1), (0.5, 0.5), (1, 0)]
    report = score_front(front, front)
    assert report.gd == 0.0 and report.rgd == 0.0
    assert report.spacing == pytest.approx(0.0, abs=1e-15)
    assert report.max_spread == pytest.approx(math.sqrt(2), abs=1e-12)
