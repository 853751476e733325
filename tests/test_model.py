import math
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_derived_steps(self, params3):
        assert params3.ratio == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert params3.birth_step == pytest.approx(0.3, rel=1e-15)
        assert params3.death_step == pytest.approx(0.4, rel=1e-15)


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
        assert lo == pytest.approx(4.0 / 9.0, rel=1e-15)
        assert hi == pytest.approx(8.0 / 9.0, rel=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(params_strategy(), st.integers(1, 200), st.integers(1, 200))
    def test_ordering(self, params, i, j):
        lo, hi = extinction_bounds(params, i, j)
        assert 0.0 < lo <= hi <= 1.0
