import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from distyle.characteristics import (
    _pieces,
    critical_times,
    eval_path,
    integrating_factor,
    make_path,
    weighted_coords,
)
from distyle.model import ModelParams


def transport_velocity(params: ModelParams, x, y):
    """Q(x, y), the x-component of the characteristic velocity field.

    The y-component is Q(y, x).  Vanishes at the stationary points (1, 1)
    and (r/d, r/d).
    """
    r, d = params.r, params.d
    return (r + d) * x - r / 2.0 - (r / 2.0) * (x / y) - d * x * x


def reaction_coeff(params: ModelParams, x, y):
    """R(x, y), the zeroth-order coefficient; equals d log IF / du on a curve."""
    r, d = params.r, params.d
    return r / (2.0 * x) + r / (2.0 * y) - d * (x + y)


def params_strategy():
    return st.tuples(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=1.0001, max_value=5.0),
    ).map(lambda t: ModelParams(r=t[0] * t[1], d=t[0]))


def classical_constants(params, x0, y0):
    """The classical integration constants (lam, mu) of the characteristic
    through (x0, y0), undefined (None) on the diagonal."""
    if x0 == y0:
        return None, None
    r, d = params.r, params.d
    lam = (2.0 * d * x0 * y0 - d * (x0 + y0)) / ((y0 - x0) * (r - d))
    mu = (r * (x0 + y0) - 2.0 * d * x0 * y0) / ((y0 - x0) * (r - d))
    return lam, mu


def plain_s0(params: ModelParams, x0: float, y0: float) -> tuple[float, float, bool]:
    """kappa and s0 by the plain formula, x0 y0 formed first and 1 - rho
    formed as make_path forms it, and whether each of its intermediates,
    x0 y0, -2 (1 - rho) x0 y0 and kappa - 1, is a normal double."""
    rho = params.ratio
    xy = x0 * y0
    scaled = -2.0 * params.gap * xy
    kappa_m1 = scaled / (x0 + y0 - 2.0 * rho * xy)
    normal = min(xy, -scaled, -kappa_m1) >= np.finfo(float).tiny
    return 1.0 + kappa_m1, math.log1p(kappa_m1) / (params.d - params.r), normal


def exact_s0(params: ModelParams, x0: float, y0: float) -> float:
    """s0 = log1p(kappa - 1) / (d - r) in exact rationals, rounded once, for
    a start point with |kappa - 1| < 1e-100: log1p(k) is cut after k - k^2/2,
    a relative error below 1e-200."""
    x, y, r, d = map(Fraction, (x0, y0, params.r, params.d))
    rho = d / r
    k = -2 * (1 - rho) * x * y / (x + y - 2 * rho * x * y)
    assert abs(k) < Fraction(1, 10**100)
    return float((k - k * k / 2) / (d - r))


class TestPathConstants:
    def test_diagonal_midpoint(self, params3):
        path = make_path(params3, 0.5, 0.5)
        assert path.kappa == pytest.approx(0.75, rel=1e-15)
        assert path.s0 == pytest.approx(0.28768207245178107, rel=1e-14)
        assert path.b == 0.0
        assert classical_constants(params3, 0.5, 0.5) == (None, None)

    def test_off_diagonal_constants(self, params3):
        lam, mu = classical_constants(params3, 0.3, 0.6)
        assert lam == pytest.approx(-3.6, rel=1e-12)
        assert mu == pytest.approx(6.6, rel=1e-12)
        # the normalized constants: b = 1/mu and kappa = -lam / (rho mu)
        path = make_path(params3, 0.3, 0.6)
        assert path.b == pytest.approx(1.0 / mu, rel=1e-12)
        assert path.kappa == pytest.approx(-lam / (params3.ratio * mu), rel=1e-12)

    def test_rejects_points_outside_open_square(self, params3):
        for bad in [(0.0, 0.5), (0.5, 1.0), (-0.1, 0.5), (0.5, 1.7)]:
            with pytest.raises(ValueError):
                make_path(params3, *bad)

    @pytest.mark.parametrize(
        "x0, y0", [(1e-160, 1e-160), (1e-200, 1e-200), (1e-250, 1e-250), (1e-300, 0.5)]
    )
    def test_arrival_time_next_to_the_axes_is_exact(self, params3, x0, y0):
        # x0 y0 is subnormal or 0 at the first three points; s0 used to
        # read 3.3324727812e-161 and then 0 there.  mpmath at 120 digits
        # gives the same values as the exact rationals
        want = exact_s0(params3, x0, y0)
        for a, b in ((x0, y0), (y0, x0)):
            assert abs(make_path(params3, a, b).s0 - want) <= 4 * math.ulp(want)

    def test_arrival_time_near_criticality_is_exact(self):
        # 1 - rho used to be formed as 1.0 - d/r, which cancels here: s0 came
        # out 4.99500499500482e-201, 241 ulp off.  400-bit mpmath gives
        # 4.9950049950049955e-201, the same double as the exact rationals
        params = ModelParams(2.002, 2.0)
        want = exact_s0(params, 1e-200, 1e-200)
        assert want == 4.9950049950049955e-201
        assert abs(make_path(params, 1e-200, 1e-200).s0 - want) <= 4 * math.ulp(want)

    @settings(max_examples=300, deadline=None)
    @given(
        params_strategy(),
        st.floats(-200.0, 0.0).map(lambda e: 10.0**e).filter(lambda x: x < 1.0),
        st.floats(-200.0, 0.0).map(lambda e: 10.0**e).filter(lambda x: x < 1.0),
    )
    @example(ModelParams(3.0, 2.0), 0.5, 0.3)
    @example(ModelParams(2.002, 2.0), 1e-150, 2e-155)
    def test_arrival_time_is_the_plain_formula_where_it_is_normal(self, params, x0, y0):
        # the scaled product moves no bit wherever the plain formula keeps
        # every intermediate normal
        kappa, s0, normal = plain_s0(params, x0, y0)
        assume(normal)
        for a, b in ((x0, y0), (y0, x0)):
            path = make_path(params, a, b)
            assert path.s0 == s0 and path.kappa == kappa

    @settings(max_examples=50, deadline=None)
    @given(params_strategy(), st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    def test_kappa_in_unit_interval(self, params, x0, y0):
        path = make_path(params, x0, y0)
        assert 0.0 < path.kappa < 1.0
        assert path.s0 > 0.0

    @settings(max_examples=50, deadline=None)
    @given(params_strategy(), st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    def test_constant_sum_identity(self, params, x0, y0):
        assume(abs(x0 - y0) > 1e-3)
        lam, mu = classical_constants(params, x0, y0)
        assert lam + mu == pytest.approx((x0 + y0) / (y0 - x0), rel=1e-9)
        path = make_path(params, x0, y0)
        assert path.b * mu == pytest.approx(1.0, rel=1e-9)


class TestTrajectory:
    def test_starts_at_the_given_point(self, params3):
        path = make_path(params3, 0.3, 0.6)
        x, y = eval_path(path, 0.0)
        assert x == pytest.approx(0.3, abs=1e-14)
        assert y == pytest.approx(0.6, abs=1e-14)

    def test_reaches_origin_at_s0(self, params3):
        path = make_path(params3, 0.3, 0.6)
        x, y = eval_path(path, path.s0)
        assert abs(x) < 1e-12 and abs(y) < 1e-12

    def test_velocity_matches_finite_differences(self, params3):
        path = make_path(params3, 0.25, 0.55)
        h = 1e-6
        for s in (0.2 * path.s0, 0.5 * path.s0, 0.8 * path.s0):
            xm, ym = eval_path(path, s - h)
            xp, yp = eval_path(path, s + h)
            x, y = eval_path(path, s)
            assert (xp - xm) / (2 * h) == pytest.approx(
                transport_velocity(params3, x, y), rel=1e-6
            )
            assert (yp - ym) / (2 * h) == pytest.approx(
                transport_velocity(params3, y, x), rel=1e-6
            )

    def test_blow_up_times_bracket_order(self, params3):
        path_lo = make_path(params3, 0.6, 0.3)  # y0 < x0: x blows up first
        s_plus, s_minus = critical_times(path_lo)
        assert path_lo.s0 < s_plus < s_minus

        path_hi = make_path(params3, 0.3, 0.6)
        s_plus, s_minus = critical_times(path_hi)
        assert path_hi.s0 < s_minus < s_plus

    @settings(max_examples=50, deadline=None)
    @given(
        params_strategy(),
        st.floats(0.01, 0.99),
        st.floats(-30.0, math.log10(0.99)).map(lambda e: 10.0**e),
    )
    def test_blow_up_times_are_denominator_roots(self, params, x0, y0):
        # the rescaled Dx and Dy are sums of terms of size 1 + |b|, so a root
        # found to rounding leaves them within a few ulps of that; next to an
        # axis critical_times may refuse instead, but never return a non-root
        path = make_path(params, x0, y0)
        try:
            s_plus, s_minus = critical_times(path)
        except ArithmeticError:
            return
        for s, denom in ((s_plus, _pieces(path, s_plus)[1]), (s_minus, _pieces(path, s_minus)[2])):
            assert path.s0 < s
            assert abs(denom) <= 8 * np.finfo(float).eps * (1.0 + abs(path.b))

    def test_blow_up_times_next_to_an_axis(self):
        # 80-digit mpmath roots of e^{-ds} Dx and e^{-ds} Dy
        cases = [
            (3.0, 0.3, 1e-15, (4.7140450893918011e-8, 0.51739442118139004)),
            (3.0, 0.9, 1e-15, (2.7216552746973597e-8, None)),
            (3.0, 0.3, 1e-12, (1.4907107998154678e-6, None)),
            (2.002, 0.3, 1e-12, (1.8248284493942571e-6, 0.63891286075716277)),
        ]
        for r, x0, y0, expected in cases:
            got = critical_times(make_path(ModelParams(r=r, d=2.0), x0, y0))
            for value, want in zip(got, expected):
                if want is not None:
                    assert value == pytest.approx(want, rel=1e-7)
        for r, x0, y0 in ((2.002, 0.3, 1e-15), (3.0, 0.3, 1e-30), (3.0, 0.9, 1e-30)):
            with pytest.raises(ArithmeticError):
                critical_times(make_path(ModelParams(r=r, d=2.0), x0, y0))

    @pytest.mark.parametrize("r, d", [(1500.0, 1.0), (3000.0, 1.0), (2.0**500, 2.0**-500)])
    def test_blow_up_times_at_large_ratios(self, r, d):
        # the first offset 0.5/d used to overflow expm1 from r/d of about
        # 1,400 on; capped at log(4 r/d) / (r - d) the search stays finite
        # over the whole admitted scale
        path = make_path(ModelParams(r, d), 0.3, 0.6)
        s_plus, s_minus = critical_times(path)
        assert path.s0 < s_minus < s_plus <= path.s0 + math.log(4.0 * r / d) / (r - d)

    @settings(max_examples=200, deadline=None)
    @given(
        # d from 2^-500 to 2^500 and r - d from 2^-30 d to 2^1000 d, within the scale
        st.tuples(st.floats(-500.0, 500.0), st.floats(-30.0, 1000.0))
        .map(lambda t: (2.0 ** t[0] * (1.0 + 2.0 ** t[1]), 2.0 ** t[0]))
        .filter(lambda rates: rates[0] <= 2.0**500),
        st.floats(-300.0, 0.0).map(lambda e: 10.0**e).filter(lambda x: x < 1.0),
        st.floats(-300.0, 0.0).map(lambda e: 10.0**e).filter(lambda x: x < 1.0),
    )
    @example((1500.0, 1.0), 0.3, 0.6)
    @example((3000.0, 1.0), 0.3, 0.6)
    @example((2.0**500, 2.0**-500), 0.3, 0.6)
    @example((2.0**500, 2.0**-500), 1e-300, 1.0 - 2.0**-53)
    def test_denominators_are_at_most_minus_two_at_the_cap(self, rates, x0, y0):
        # critical_times bisects [s0, s0 + cap]; the bracket rests on this
        # bound, 1 + |b| - 4 with |b| < 1 - rho in exact arithmetic.  The
        # exponent log(4/rho) is formed to a few ulps, which moves the term 4
        # by a few eps log(4/rho) (at most 5.6 of them in 2e5 random draws)
        params = ModelParams(*rates)
        path = make_path(params, x0, y0)
        log_cap = math.log(4.0 / params.ratio)
        _, dx, dy = _pieces(path, path.s0 + log_cap / (params.r - params.d))
        assert max(dx, dy) <= -2.0 + 16 * np.finfo(float).eps * log_cap

    def test_blow_up_is_only_past_s0(self, params3):
        # next to an axis Dx(0) is far below 1e-14 and still not a root
        path = make_path(params3, 0.3, 1e-15)
        x, y = eval_path(path, np.array([0.0, path.s0]))
        assert x[0] == pytest.approx(0.3, rel=1e-12) and y[0] == pytest.approx(1e-15, rel=1e-12)
        s_plus, _ = critical_times(make_path(params3, 0.6, 0.3))
        with pytest.raises(ZeroDivisionError):
            eval_path(make_path(params3, 0.6, 0.3), s_plus)

    @pytest.mark.parametrize(
        "r, x0, y0, expected",
        [
            (3.0, 0.3, 0.6, (0.6468493580597311, 0.5549026095954662)),
            (3.0, 0.5, 0.5, (math.log(2.0), math.log(2.0))),
            (3.0, 0.9, 0.05, (0.1993908092511691, 0.5420178641899219)),
            (2.002, 0.3, 0.6, (0.8803177936412065, 0.7736130012061152)),
            (2.002, 0.5, 0.5, (0.9990013313364932, 0.9990013313364932)),
            (2.002, 0.01, 0.2, (0.6380290110242147, 0.20141131109911495)),
        ],
    )
    def test_blow_up_times_known_values(self, r, x0, y0, expected):
        # values of the former bisection and Newton polish; on the diagonal
        # at r=3 the root is s0 + log(r/d)/(r-d) = log 2
        got = critical_times(make_path(ModelParams(r=r, d=2.0), x0, y0))
        assert got == pytest.approx(expected, rel=1e-13)

    def test_velocity_fixed_points(self, params3):
        assert transport_velocity(params3, 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
        q = params3.r / params3.d
        assert transport_velocity(params3, q, q) == pytest.approx(0.0, abs=1e-12)


class TestIntegratingFactor:
    def test_unit_at_start(self, params3):
        path = make_path(params3, 0.4, 0.7)
        assert integrating_factor(path, 0.0) == 1.0

    def test_log_derivative_is_reaction_coeff(self, params3):
        path = make_path(params3, 0.35, 0.15)
        h = 1e-7
        for frac in (0.25, 0.5, 0.75):
            u = frac * path.s0
            x, y = eval_path(path, u)
            dlog = (
                math.log(integrating_factor(path, u + h))
                - math.log(integrating_factor(path, u - h))
            ) / (2 * h)
            assert dlog == pytest.approx(reaction_coeff(params3, x, y), rel=1e-6)

    def test_reaction_coeff_at_absorbing_corner(self, params3):
        assert reaction_coeff(params3, 1.0, 1.0) == pytest.approx(
            params3.r - 2 * params3.d, rel=1e-15
        )

    def test_point_refusal_names_the_parameters(self, params3):
        with pytest.raises(ValueError) as info:
            make_path(params3, 1.5, 0.5)
        assert str(info.value) == "(x0, y0) must lie in the open unit square, got (1.5, 0.5)"

    def test_domain_validation(self, params3):
        path = make_path(params3, 0.4, 0.7)
        with pytest.raises(ValueError):
            integrating_factor(path, -0.1)
        with pytest.raises(ValueError):
            integrating_factor(path, path.s0 * 1.01)


class TestWeightedCoords:
    def test_matches_plain_product_inside(self, params3):
        path = make_path(params3, 0.3, 0.6)
        u = np.linspace(0.1, 0.9, 7) * path.s0
        x, y, wx, wy = weighted_coords(path, u)
        for k, uk in enumerate(u):
            xf, yf = eval_path(path, float(uk))
            factor = integrating_factor(path, float(uk))
            assert x[k] == pytest.approx(xf, rel=1e-12)
            assert wx[k] == pytest.approx(xf * factor, rel=1e-10)
            assert wy[k] == pytest.approx(yf * factor, rel=1e-10)

    def test_finite_at_arrival_time(self, params3):
        # the plain product is 0 * inf at s0; the fused form is finite
        path = make_path(params3, 0.3, 0.6)
        x, y, wx, wy = weighted_coords(path, np.array([path.s0]))
        assert np.isfinite(wx).all() and np.isfinite(wy).all()
        assert wx[0] > 0.0 and wy[0] > 0.0

    def test_rejects_outside_domain(self, params3):
        path = make_path(params3, 0.3, 0.6)
        with pytest.raises(ValueError):
            weighted_coords(path, np.array([-0.01]))
        with pytest.raises(ValueError):
            weighted_coords(path, np.array([1.5 * path.s0]))
