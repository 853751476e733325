import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distyle import asymptotics, characteristics, genfunc
from distyle.genfunc import (
    GenFuncQuery,
    QuadratureError,
    default_n_terms,
    eval_by_quadrature,
    eval_from_grid,
    query_from_grid,
)
from distyle.grid import solve_grid


class TestQuery:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenFuncQuery(x0=0.0, y0=0.5, row1=(0.7,))
        with pytest.raises(ValueError):
            GenFuncQuery(x0=0.5, y0=1.0, row1=(0.7,))
        with pytest.raises(ValueError):
            GenFuncQuery(x0=0.5, y0=0.5, row1=())
        assert GenFuncQuery(x0=0.5, y0=0.5, row1=(0.7, 0.4)).n_terms == 2

    @pytest.mark.parametrize("x0, y0", [(1e-300, 0.5), (1e-320, 0.5), (0.5, 1e-300)])
    def test_point_below_the_served_range_is_refused(self, grid50, x0, y0):
        # (1e-300, 0.5) used to give 0.0 against a series value of 6.67e-301,
        # inside the absolute budget but without a right digit, and
        # (1e-320, 0.5) raised QuadratureError on a subnormal s0
        lo, hi = sorted((x0, y0))
        text = re.escape(
            f"need 0 < min(x0, y0) <= max(x0, y0) < 1 and min(x0, y0) >= 1.4917e-154, "
            f"got {lo} and {hi}"
        )
        with pytest.raises(ValueError, match=f"^{text}$"):
            GenFuncQuery(x0=x0, y0=y0, row1=(0.7,))
        with pytest.raises(ValueError, match=f"^{text}$"):
            query_from_grid(grid50, x0, y0)

    def test_default_n_terms(self, params3, grid50):
        # max(x0,y0)^(n+1) < QUAD_TOL = 1e-8 at the returned n
        n = default_n_terms(0.5, 0.3)
        assert 0.5 ** (n + 1) < 1e-8 <= 0.5**n
        assert default_n_terms(0.99, 0.99) == 200
        # the cap serves coordinates up to 1e-8^(1/201) = 0.91243, and the
        # refusal of one beyond names a bound below it
        genfunc._check_served("x", 0.9124)
        with pytest.raises(ValueError, match=r"^x must be below 0\.9124, got 0\.9125 \("):
            genfunc._check_served("x", 0.9125)
        # the lowest coordinate served is sqrt(float min) = 1.49167e-154, whose
        # square is a normal double; the refusal of one below names a bound above it
        lowest = math.sqrt(np.finfo(float).tiny)
        genfunc._check_range("x", lowest, "y", 0.5)
        below = math.nextafter(lowest, 0.0)
        with pytest.raises(ValueError, match=r"^need 0 < x <= y < 1 and x >= 1\.4917e-154, got "):
            genfunc._check_range("x", below, "y", 0.5)
        series = eval_from_grid(grid50, lowest, lowest)
        quad = eval_by_quadrature(params3, query_from_grid(grid50, lowest, lowest))
        assert quad == pytest.approx(series.value, rel=1e-3)

    def test_query_from_grid_pulls_first_column(self, grid50, params3):
        q = query_from_grid(grid50, 0.4, 0.2)
        assert q.row1[0] == grid50.values[0, 0]
        assert q.row1[2] == grid50.values[2, 0]
        assert q.n_terms == default_n_terms(0.4, 0.2)

    def test_first_row_past_the_grid_computed_once(self, grid50, params3, monkeypatch):
        # every point near the corner reaches past N=50 to the 200-term cap;
        # each p_{1,i} there is computed once and equals a direct evaluation
        genfunc._first_row.cache_clear()
        closure_value = asymptotics.closure_value
        calls = []

        def counted(*args):
            calls.append(args)
            return closure_value(*args)

        monkeypatch.setattr(asymptotics, "closure_value", counted)
        points = [(0.95, 0.95), (0.97, 0.5), (0.9, 0.96), (0.99, 0.99)]
        queries = [query_from_grid(grid50, x0, y0) for x0, y0 in points]
        assert all(q.n_terms == 200 for q in queries)
        assert sorted(calls) == [(params3, 1, i) for i in range(51, 201)]
        for q in queries:
            assert q.row1[50:] == tuple(closure_value(params3, 1, i) for i in range(51, 201))

    def test_error_carries_diagnostics(self):
        err = QuadratureError("no luck", estimate=0.25, error_bound=3e-4)
        assert err.estimate == 0.25
        assert err.error_bound == 3e-4
        assert "no luck" in str(err)


class TestSeriesFromGrid:
    def test_tail_bound_is_negligible_inside(self, grid50):
        val = eval_from_grid(grid50, 0.3, 0.3)
        assert 0.0 < val.value < 1.0
        assert val.tail_bound < 1e-20

    def test_tail_bound_grows_toward_corner(self, grid50):
        near = eval_from_grid(grid50, 0.9, 0.9)
        far = eval_from_grid(grid50, 0.2, 0.2)
        assert near.tail_bound > far.tail_bound

    def test_rejects_outside_square(self, grid50):
        with pytest.raises(ValueError):
            eval_from_grid(grid50, 1.0, 0.5)


@pytest.fixture(scope="module")
def grid100(params3):
    return solve_grid(params3, 100)


inside = st.floats(min_value=0.0, max_value=0.97, exclude_min=True)


class TestQuadrature:
    def test_matches_series(self, params3, grid50):
        for x0, y0 in [(0.3, 0.3), (0.1, 0.5), (0.45, 0.2)]:
            q = query_from_grid(grid50, x0, y0)
            quad = eval_by_quadrature(params3, q)
            series = eval_from_grid(grid50, x0, y0)
            assert quad == pytest.approx(series.value, abs=1e-6 + series.tail_bound)

    def test_first_column_past_the_grid(self, params3, grid50):
        # at (0.9, 0.9) the sum keeps 174 terms, 124 of them past N=50; with
        # the envelope clamp (about d/r) in place of p_{i,1} the gap was 0.56
        q = query_from_grid(grid50, 0.9, 0.9)
        assert q.n_terms > grid50.n
        quad = eval_by_quadrature(params3, q)
        series = eval_from_grid(grid50, 0.9, 0.9)
        assert abs(quad - series.value) <= series.tail_bound + genfunc.QUAD_TOL

    def test_term_cap_raises(self, params3, grid100, monkeypatch):
        # 200 terms leave a folded tail of 0.95^201 = 3.3e-5, far above the
        # budget; the value used to come back as if it were within it, and later
        # the panels ran before the check raised with a meaningless estimate
        q = query_from_grid(grid100, 0.95, 0.5)
        assert q.n_terms == 200
        monkeypatch.setattr(genfunc, "_panels", lambda *args: pytest.fail("a panel ran"))
        with pytest.raises(QuadratureError, match="folded tail above the budget") as info:
            eval_by_quadrature(params3, q)
        assert np.isnan(info.value.estimate)
        assert info.value.error_bound == 0.95**201

    def test_near_an_axis_matches_series(self, params3, grid100):
        # Dx(0) = L y0 used to come from two terms of order one that cancel
        # to 0 here: the integrand was 0/0 and the quadrature raised
        series = eval_from_grid(grid100, 0.5, 1e-30)
        quad = eval_by_quadrature(params3, query_from_grid(grid100, 0.5, 1e-30))
        assert quad == pytest.approx(series.value, rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(inside, inside)
    # kappa rounded to 1 here and s0 came out four times too long: the
    # quadrature returned 8.5e-5 against a series value of 5.4e-17
    @example(0.6875, 4.358518910596399e-17)
    # s0 = 1.5e-323 is subnormal: Gauss nodes rounded past it and
    # weighted_coords raised ValueError; the query now refuses the point
    @example(0.390625, 1e-323)
    def test_raises_or_meets_series_tail(self, params3, grid100, x0, y0):
        if min(x0, y0) < genfunc._LOWEST:
            with pytest.raises(ValueError, match=r"^need 0 < min\(x0, y0\) <= max\(x0, y0\) < 1 "):
                query_from_grid(grid100, x0, y0)
            return
        q = query_from_grid(grid100, x0, y0)
        series = eval_from_grid(grid100, x0, y0)
        try:
            quad = eval_by_quadrature(params3, q)
        except QuadratureError:
            return
        assert abs(quad - series.value) <= series.tail_bound + genfunc.QUAD_TOL

    @pytest.mark.parametrize("x0", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("y0", [0.1, 0.5, 0.9])
    def test_integrand_matches_horner_oracle(self, params3, grid50, x0, y0):
        q = query_from_grid(grid50, x0, y0)
        path = characteristics.make_path(params3, x0, y0)
        u = np.linspace(0.0, path.s0, 41)
        got = genfunc._integrand(params3, path, q)(u)
        want = horner_integrand(params3, path, q, u)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-14

    def test_symmetric_arguments(self, params3, grid50):
        qa = query_from_grid(grid50, 0.1, 0.5)
        qb = query_from_grid(grid50, 0.5, 0.1)
        assert eval_by_quadrature(params3, qa) == eval_by_quadrature(params3, qb)

    def test_other_rates(self, paramsc, grid100c):
        # near-critical rates stress the expm1 forms in the path evaluation
        q = query_from_grid(grid100c, 0.3, 0.4)
        quad = eval_by_quadrature(paramsc, q)
        series = eval_from_grid(grid100c, 0.3, 0.4)
        assert quad == pytest.approx(series.value, abs=2e-3 + series.tail_bound)

    def test_deep_bisection_matches_one_panel_per_call_oracle(self):
        # the cusps at 0.3 and 0.7 draw the bisection many levels deep on
        # both sides of each; f works node by node, so batching the panels
        # moves no bit
        def f(u):
            return np.sqrt(np.abs(u - 0.3)) + np.sqrt(np.abs(u - 0.7))

        budget = [0]
        panels = genfunc._panels(f, (0.0, 0.0, 0.5), (1.0, 0.5, 1.0))
        got = genfunc._adaptive(f, 0.0, 1.0, 1e-10, 0, panels, budget)
        assert budget[0] > 100
        assert (*got, budget[0]) == one_panel_adaptive(f, 0.0, 1.0, 1e-10)

    def test_budget_below_rounding_floor_fails_fast(self, params3, monkeypatch):
        # no bisection can meet 1e-18 on values near 1; the search used to
        # run to the 20,000-panel cap (20,063 panels) before raising
        sol = solve_grid(params3, 12)
        panels = [0]
        evaluate = genfunc._panels

        def counting(f, lo, hi):
            panels[0] += len(lo)
            return evaluate(f, lo, hi)

        monkeypatch.setattr(genfunc, "_panels", counting)
        monkeypatch.setattr(genfunc, "QUAD_TOL", 1e-18)
        with pytest.raises(QuadratureError):
            eval_by_quadrature(params3, query_from_grid(sol, 0.6, 0.6))
        assert panels[0] < 2000

    def test_one_integrand_call_when_the_first_bisection_is_accepted(
        self, params3, grid100, monkeypatch
    ):
        # the whole panel and both halves are evaluated in one call
        weighted_coords = characteristics.weighted_coords
        calls = []

        def counted(path, u):
            calls.append(u.size)
            return weighted_coords(path, u)

        monkeypatch.setattr(characteristics, "weighted_coords", counted)
        eval_by_quadrature(params3, query_from_grid(grid100, 0.5, 0.5))
        assert calls == [3 * genfunc._GL_NODES.size]

    @pytest.mark.parametrize(
        "rate, x0, y0",
        [("r3", x0, y0) for x0 in (0.05, 0.3, 0.6, 0.85) for y0 in (0.05, 0.3, 0.6, 0.85)]
        + [("r3", 0.9, 0.9), ("r3", 0.5, 1e-30), ("rc", 0.9, 0.5), ("rc", 0.9, 0.9)],
    )
    def test_matches_one_panel_per_call_oracle(self, grid100, grid100c, rate, x0, y0):
        # at r=2.002, (0.9, 0.5) and (0.9, 0.9) refuse the first bisection and
        # evaluate their quarter panels
        solution = grid100 if rate == "r3" else grid100c
        query = query_from_grid(solution, x0, y0)
        want = one_panel_quadrature(solution.params, query)
        got = eval_by_quadrature(solution.params, query)
        assert abs(got - want) <= 4 * math.ulp(want)


def horner_integrand(params, path, query, u):
    """The quadrature integrand with each monomial sum by Horner's rule."""
    r, d, m = params.r, params.d, query.n_terms
    coeffs = np.arange(1, m + 1) * np.asarray(query.row1[:m])
    x, y, wx, wy = characteristics.weighted_coords(path, u)
    polyval = np.polynomial.polynomial.polyval
    monomials = 0.5 * r * (wx * polyval(x, coeffs) + wy * polyval(y, coeffs))
    tail = d * (wx * (x**m - y) / (1.0 - x) + wy * (y**m - x) / (1.0 - y))
    return monomials + tail


def one_panel_adaptive(f, a, b, tol):
    """The quadrature's adaptive Gauss-Legendre rule with one call of ``f``
    per panel: its acceptance rule, ulp floor, depth limit and panel cap.
    Returns (integral, error bound, panels examined)."""

    def panel(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return half * float(np.dot(genfunc._GL_WEIGHTS, f(mid + half * genfunc._GL_NODES)))

    def adaptive(a, b, tol, depth, whole):
        mid = 0.5 * (a + b)
        left, right = panel(a, mid), panel(mid, b)
        err = abs(left + right - whole)
        floor = 4 * math.ulp(left + right)
        budget[0] += 2
        if err <= max(tol, floor) or depth >= 48 or budget[0] >= genfunc._MAX_PANELS:
            return left + right, max(err, floor)
        le, lerr = adaptive(a, mid, 0.5 * tol, depth + 1, left)
        re, rerr = adaptive(mid, b, 0.5 * tol, depth + 1, right)
        return le + re, lerr + rerr

    budget = [0]
    return (*adaptive(a, b, tol, 0, panel(a, b)), budget[0])


def one_panel_quadrature(params, query):
    """The quadrature of ``query`` by :func:`one_panel_adaptive`."""
    path = characteristics.make_path(params, query.x0, query.y0)
    f = genfunc._integrand(params, path, query)
    return one_panel_adaptive(f, 0.0, path.s0, genfunc.QUAD_TOL)[0]
