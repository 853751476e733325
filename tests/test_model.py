import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from distyle.asymptotics import row1_coefficients
from distyle.grid import solve_grid
from distyle.model import ModelParams, extinction_bounds


class State(NamedTuple):
    """A population composition (i pins, j thrums)."""

    i: int
    j: int

    @property
    def absorbed(self) -> bool:
        return self.i == 0 or self.j == 0


def step_distribution(params, state):
    """(right, up, left, down) move probabilities of the embedded chain at a
    transient ``state``, split as the Monte-Carlo kernel splits them."""
    if state.absorbed:
        raise ValueError(f"state ({state.i}, {state.j}) is absorbing")
    loss = params.death_step
    total = state.i + state.j
    return params.birth_step, params.birth_step, loss * state.i / total, loss * state.j / total


def params_strategy():
    return st.tuples(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=1.0001, max_value=5.0),
    ).map(lambda t: ModelParams(r=t[0] * t[1], d=t[0]))


class TestModelParams:
    def test_rejects_subcritical(self):
        with pytest.raises(ValueError):
            ModelParams(r=2.0, d=3.0)
        with pytest.raises(ValueError):
            ModelParams(r=2.0, d=2.0)

    @pytest.mark.parametrize("r,d", [(0.0, 0.0), (-1.0, -2.0), (3.0, 0.0)])
    def test_rejects_nonpositive_rates(self, r, d):
        with pytest.raises(ValueError):
            ModelParams(r=r, d=d)

    @pytest.mark.parametrize(
        "r,d", [(math.inf, 1.0), (math.inf, math.inf), (math.nan, 1.0), (3.0, math.nan)]
    )
    def test_rejects_non_finite_rates(self, r, d):
        # an infinite birth rate used to give birth_step = nan and ratio = 0
        with pytest.raises(ValueError):
            ModelParams(r=r, d=d)

    @pytest.mark.parametrize(
        "r,d,message",
        [
            (2.0, 2.0, "need the supercritical regime r > d, got r=2.0 <= d=2.0"),
            (3.0, 0.0, "rates must be positive, got r=3.0, d=0.0"),
            (math.inf, 2.0, "rates must be finite, got r=inf, d=2.0"),
            (2.0**501, 2.0, "rates must lie in [2^-500, 2^500], got r=6.546781215792284e+150, "
             "d=2.0; p depends on d/r alone, so scale both by one factor"),
            (3.0, 2.0**-501, "rates must lie in [2^-500, 2^500], got r=3.0, "
             "d=1.5274681817498023e-151; p depends on d/r alone, so scale both by one factor"),
            (True, 0.5, "rates must be real numbers, got r=True, d=0.5"),
            (3.0, np.True_, "rates must be real numbers, got r=3.0, d=True"),
        ],
        ids=["supercritical", "positive", "finite", "scale-above", "scale-below", "bool",
             "numpy-bool"],
    )
    def test_refusal_names_the_parameters(self, r, d, message):
        with pytest.raises(ValueError) as info:
            ModelParams(r, d)
        assert str(info.value) == message

    @settings(max_examples=50, deadline=None)
    @given(
        st.tuples(st.floats(-500.0, 500.0), st.floats(-20.0, 20.0))
        .map(lambda t: (2.0 ** t[0] * (1.0 + 2.0 ** t[1]), 2.0 ** t[0]))
        .filter(lambda rates: rates[0] <= 2.0**500)
    )
    @example((2.0**500, 2.0**500 / (1.0 + 2.0**-20)))
    @example((2.0**-500 * (1.0 + 2.0**20), 2.0**-500))
    def test_admitted_rates_keep_their_arithmetic(self, rates):
        # log-uniform rates over the scale, r/d from 1 + 2^-20 to 1 + 2^20:
        # p depends on d/r alone, and every step of a solve stays finite
        r, d = rates
        params = ModelParams(r, d)
        assert math.isfinite(params.birth_step) and math.isfinite(params.death_step)
        assert all(math.isfinite(c) for c in row1_coefficients(params))
        field = solve_grid(params, 20).values
        unit = solve_grid(ModelParams(r / d, 1.0), 20).values
        assert float(np.max(np.abs(field - unit))) <= 1e-12

    def test_derived_steps(self, params3):
        assert params3.ratio == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert params3.birth_step == pytest.approx(0.3, rel=1e-15)
        assert params3.death_step == pytest.approx(0.4, rel=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(2.0**-500, 2.0**500), st.floats(0.0, 1.0, exclude_max=True))
    @example(2.002, 2.0 / 2.002)
    @example(1.0 + 2.0**-52, 1.0 / (1.0 + 2.0**-52))
    @example(2.0**500, 2.0**-1000)
    def test_gap_is_one_minus_the_ratio(self, r, fraction):
        # (r - d) / r against 1 - d/r in exact rationals: r - d is exact
        # wherever d >= r/2, so there the quotient is correctly rounded, and
        # two roundings leave it within 1.5 ulp elsewhere
        d = r * fraction
        assume(2.0**-500 <= d < r)
        params = ModelParams(r, d)
        want = 1 - Fraction(d) / Fraction(r)
        assert abs(Fraction(params.gap) - want) <= Fraction(3, 2) * Fraction(math.ulp(float(want)))
        if d >= r / 2:
            assert params.gap == float(want)


class TestStepDistribution:
    def test_origin_cell(self, params3):
        assert step_distribution(params3, State(1, 1)) == pytest.approx((0.3, 0.3, 0.2, 0.2))

    def test_asymmetric_cell(self, params3):
        _, _, left, down = step_distribution(params3, State(2, 3))
        # left/down split the constant loss mass 2/5 in ratio i : j
        assert left == pytest.approx(0.16, rel=1e-15)
        assert down == pytest.approx(0.24, rel=1e-15)

    def test_absorbed_state_rejected(self, params3):
        assert State(0, 4).absorbed
        assert State(4, 0).absorbed
        with pytest.raises(ValueError):
            step_distribution(params3, State(0, 4))

    @settings(max_examples=50, deadline=None)
    @given(params_strategy(), st.integers(1, 500), st.integers(1, 500))
    def test_sums_to_one(self, params, i, j):
        dist = step_distribution(params, State(i, j))
        assert math.isclose(sum(dist), 1.0, rel_tol=0, abs_tol=1e-12)
        assert min(dist) > 0.0

    @settings(max_examples=50, deadline=None)
    @given(params_strategy(), st.integers(1, 500), st.integers(1, 500))
    def test_mirror_swaps_left_and_down(self, params, i, j):
        right, up, left, down = step_distribution(params, State(i, j))
        m_right, m_up, m_left, m_down = step_distribution(params, State(j, i))
        assert left == m_down
        assert down == m_left
        assert right == m_up == up == m_right


class TestBounds:
    def test_known_cell(self, params3):
        lo, hi = extinction_bounds(params3, 1, 1)
        assert lo == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert hi == pytest.approx(8.0 / 9.0, rel=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(params_strategy(), st.integers(1, 200), st.integers(1, 200))
    def test_ordering(self, params, i, j):
        lo, hi = extinction_bounds(params, i, j)
        assert 0.0 < lo <= hi <= 1.0
