import math

import pytest

from distyle.asymptotics import closure_value, row1_coefficients
from distyle.model import ModelParams, extinction_bounds


class TestRow1Coefficients:
    def test_reference_rates(self, params3):
        # c2 = 4d (2d - r) / r^2 = 2 c1 (c1 - 1), the recurrence balanced at
        # row 1 to order 1/j
        c1, c2 = row1_coefficients(params3)
        assert c1 == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert c2 == pytest.approx(8.0 / 9.0, rel=1e-15)

    def test_leading_term_scale_free(self):
        # c1 = 2d/r depends only on the rate ratio
        a = row1_coefficients(ModelParams(r=3.0, d=2.0))[0]
        b = row1_coefficients(ModelParams(r=6.0, d=4.0))[0]
        assert a == pytest.approx(b, rel=1e-15)


class TestRow1Expansion:
    def test_two_term_value(self, params3):
        got = closure_value(params3, 1, 50)
        assert got == pytest.approx(4.0 / 150.0 + 8.0 / 22500.0, rel=1e-14)

    def test_leading_value(self, params3):
        c1, _ = row1_coefficients(params3)
        assert c1 / 50 == pytest.approx(4.0 / 3.0 / 50.0, rel=1e-15)

    def test_clamped_at_small_j(self, params3):
        # the two-term value at j=1 is 20/9 > 1 (expansion breaks down); the
        # envelope clamp gives the upper envelope 8/9, not 1
        assert closure_value(params3, 1, 1) == extinction_bounds(params3, 1, 1)[1]
        assert closure_value(params3, 1, 1) == pytest.approx(8.0 / 9.0, rel=1e-15)


class TestGeneralRow:
    def test_known_value(self, params3):
        # (2d/r)^i i! / j^i at i=2, j=3
        assert closure_value(params3, 2, 3) == pytest.approx(32.0 / 81.0, rel=1e-13)

    def test_row_one_consistency(self, params3):
        # c2 = e2 - 2 c1, where e2 = lim j^2 p_{2,j} is the leading order of
        # row 2
        c1, c2 = row1_coefficients(params3)
        e2 = closure_value(params3, 2, 40) * 40 * 40
        assert c2 == pytest.approx(e2 - 2.0 * c1, rel=1e-12)

    def test_large_index_stays_finite(self, params3):
        # log-space evaluation; naive factorial would overflow
        val = closure_value(params3, 400, 500)
        assert 0.0 <= val <= 1.0

    def test_within_envelope(self, params3):
        for i, j in [(2, 5), (3, 30), (10, 50), (1, 7)]:
            lo, hi = extinction_bounds(params3, i, j)
            assert lo <= closure_value(params3, i, j) <= hi


class TestClosureValue:
    def test_row_one_uses_two_term(self, params3):
        c1, c2 = row1_coefficients(params3)
        assert closure_value(params3, 1, 50) == pytest.approx(c1 / 50 + c2 / 2500, rel=1e-14)

    def test_deep_rows_use_general_form(self, params3):
        leading = (4.0 / 3.0) ** 4 * math.factorial(4) / 50**4
        assert closure_value(params3, 4, 50) == pytest.approx(leading, rel=1e-13)

    def test_envelope_clamp_near_critical(self, paramsc):
        # at r close to d the raw expansion collapses far below the rigorous
        # lower bound; the closure must return the bound instead
        lo, hi = extinction_bounds(paramsc, 1, 101)
        got = closure_value(paramsc, 1, 101)
        assert got == pytest.approx(lo, rel=1e-14)
        assert lo > 0.9

    def test_negative_two_term_value_gives_the_lower_envelope(self):
        # at r=9, d=2: c1 + c2 = 4/9 - 40/81 < 0 at j=1, below every
        # probability; the one clamp returns the lower envelope (2/9)^2
        params = ModelParams(r=9.0, d=2.0)
        c1, c2 = row1_coefficients(params)
        assert c1 + c2 < 0.0
        assert closure_value(params, 1, 1) == extinction_bounds(params, 1, 1)[0]
