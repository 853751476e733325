"""End-to-end acceptance checks with one printed verdict line each.

Run ``pytest -s tests/test_acceptance.py`` to see the verdicts; each test
prints ``[acceptance NN] PASS/FAIL`` with the measured numbers before
asserting, so a red run still reports every measured quantity.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from distyle.asymptotics import closure_value, row1_coefficients
from distyle.characteristics import eval_path, integrating_factor, make_path
from distyle.genfunc import eval_by_quadrature, eval_from_grid, query_from_grid
from distyle.grid import Method, SolveOptions, solve_grid
from distyle.harness import compare, convergence_series, fit_log_slope
from distyle.model import ModelParams, extinction_bounds
from distyle.montecarlo import estimate_cells, estimate_lattice
from test_characteristics import reaction_coeff, transport_velocity
from test_grid import apply_kernel, padded_field


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"acceptance {num:02d}: {detail}"


def _bounds_fields(params: ModelParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    lo = np.empty((n, n))
    hi = np.empty((n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            lo[i - 1, j - 1], hi[i - 1, j - 1] = extinction_bounds(params, i, j)
    return lo, hi


@pytest.fixture(scope="session")
def mc50_lattice(params3):
    # supercritical lattice run at its default horizon
    return estimate_lattice(params3, 50, 50, m=200, t_horizon=5000, seed=20260816)


@pytest.fixture(scope="session")
def mc_subsample_c(paramsc):
    # near-critical stride-10 subsample; absorption there is diffusive in
    # (i + j), so the horizon is far beyond the supercritical default
    cells = [(i, j) for i in range(10, 101, 10) for j in range(10, 101, 10)]
    p_hat = estimate_cells(paramsc, cells, m=200, t_horizon=200_000, seed=20260816)
    return cells, p_hat


def test_01_constant_field_is_invariant(params3):
    start = time.perf_counter()
    n = 50
    field = padded_field(n, np.ones(n), np.ones(n), interior=1.0)
    worst = max(
        abs(apply_kernel(params3, field, i, j) - 1.0)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-14 and elapsed < 1.0
    _verdict(1, ok, f"kernel fixes the unit field to {worst:.2e} (limit 1e-14), {elapsed:.2f}s")


def test_02_solution_inside_rigorous_envelope(params3, grid50):
    start = time.perf_counter()
    lo, hi = _bounds_fields(params3, 50)
    below = float(np.min(grid50.values - (lo - 1e-3)))
    above = float(np.min((hi + 1e-3) - grid50.values))
    elapsed = time.perf_counter() - start
    ok = below >= 0.0 and above >= 0.0 and elapsed < 5.0
    _verdict(
        2,
        ok,
        "solver values within [lower, upper] bounds widened by 1e-3 "
        f"(margins {below:.2e}, {above:.2e}), {elapsed:.2f}s",
    )


def test_03_value_iteration_brackets_default(params3, paramsc):
    start = time.perf_counter()
    # value iteration stops at its fixed point, which lies within about
    # 1e-13 of the LU's solution of the same box; the gate keeps 1e-11
    slack = 1e-11
    worst = np.inf
    for params in (params3, paramsc):
        vi = SolveOptions(method=Method.VALUE_ITERATION)
        low = solve_grid(params, 20, vi, closure="bounds-lower")
        high = solve_grid(params, 20, vi, closure="bounds-upper")
        default = solve_grid(params, 20)
        worst = min(
            worst,
            float(np.min(default.values - low.values)) + slack,
            float(np.min(high.values - default.values)) + slack,
        )
    elapsed = time.perf_counter() - start
    ok = worst >= 0.0 and elapsed < 10.0
    _verdict(
        3,
        ok,
        "bound-closure value iterations bracket the default solution "
        f"within {slack:.0e} (worst slack margin {worst:.2e}), {elapsed:.2f}s",
    )


def test_04_transpose_symmetry(grid50):
    gap = float(np.max(np.abs(grid50.values - grid50.values.T)))
    ok = gap <= 1e-8
    _verdict(4, ok, f"|values - transpose| = {gap:.2e} (limit 1e-8) at N=50")


def test_05_first_row_asymptotics(params3, grid50):
    c1, c2 = row1_coefficients(params3)
    oracle_ok = abs(c1 - float(Fraction(4, 3))) < 1e-14 and abs(c2 - float(Fraction(8, 9))) < 1e-14
    p_tail = grid50.values[0, 49]
    leading_gap = abs(50 * p_tail - 4.0 / 3.0)
    two_term_gap = abs(closure_value(params3, 1, 50) - p_tail)
    ok = oracle_ok and leading_gap <= 0.15 and two_term_gap <= 5e-3
    _verdict(
        5,
        ok,
        f"first-row coefficients match hand rationals; |50 p(1,50) - 4/3| = {leading_gap:.2e} "
        f"(limit 0.15), two-term gap {two_term_gap:.2e} (limit 5e-3)",
    )


def test_06_characteristics_reach_origin(params3, rng):
    start = time.perf_counter()
    h = 1e-6
    worst_end = 0.0
    worst_rel = 0.0
    for _ in range(100):
        x0, y0 = rng.uniform(0.01, 0.99, size=2)
        path = make_path(params3, float(x0), float(y0))
        xe, ye = eval_path(path, path.s0)
        worst_end = max(worst_end, abs(xe), abs(ye))
        s = 0.5 * path.s0
        xm, ym = eval_path(path, s - h)
        xp, yp = eval_path(path, s + h)
        x, y = eval_path(path, s)
        qx = transport_velocity(params3, x, y)
        qy = transport_velocity(params3, y, x)
        worst_rel = max(
            worst_rel,
            abs((xp - xm) / (2 * h) - qx) / abs(qx),
            abs((yp - ym) / (2 * h) - qy) / abs(qy),
        )
    fp = max(
        abs(transport_velocity(params3, 1.0, 1.0)),
        abs(transport_velocity(params3, params3.r / params3.d, params3.r / params3.d)),
    )
    elapsed = time.perf_counter() - start
    ok = worst_end <= 1e-8 and worst_rel <= 1e-5 and fp <= 1e-12 and elapsed < 5.0
    _verdict(
        6,
        ok,
        f"100 paths end at the origin to {worst_end:.2e} (limit 1e-8); "
        f"velocity FD mismatch {worst_rel:.2e} (limit 1e-5); fixed points {fp:.2e}, {elapsed:.2f}s",
    )


def test_07_integrating_factor_solves_its_ode(params3, rng):
    h = 1e-7
    worst_rel = 0.0
    worst_start = 0.0
    for _ in range(20):
        x0, y0 = rng.uniform(0.02, 0.98, size=2)
        path = make_path(params3, float(x0), float(y0))
        worst_start = max(worst_start, abs(integrating_factor(path, 0.0) - 1.0))
        for frac in np.linspace(0.05, 0.9, 20):
            u = float(frac * path.s0)
            x, y = eval_path(path, u)
            dlog = (
                np.log(integrating_factor(path, u + h))
                - np.log(integrating_factor(path, u - h))
            ) / (2 * h)
            target = reaction_coeff(params3, x, y)
            worst_rel = max(worst_rel, abs(dlog - target) / max(1e-30, abs(target)))
    ok = worst_rel <= 1e-6 and worst_start <= 1e-12
    _verdict(
        7,
        ok,
        f"d/du log IF matches the reaction coefficient to {worst_rel:.2e} rel "
        f"(limit 1e-6) on 20x20 points; IF(0) off by {worst_start:.2e} (limit 1e-12)",
    )


def test_08_quadrature_crosses_series(params3, grid50):
    start = time.perf_counter()
    worst = 0.0
    for x0 in (0.1, 0.2, 0.3, 0.4, 0.5):
        for y0 in (0.1, 0.2, 0.3, 0.4, 0.5):
            query = query_from_grid(grid50, x0, y0)
            quad = eval_by_quadrature(params3, query)
            series = eval_from_grid(grid50, x0, y0)
            worst = max(worst, abs(quad - series.value))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 30.0
    _verdict(
        8,
        ok,
        f"generating function by quadrature vs the series of the same N=50 grid on 25 "
        f"points, which sees the recurrence inside the box and the first column against "
        f"the interior, not truncation error: max gap {worst:.2e} (limit 1e-3), {elapsed:.2f}s",
    )


def test_09_confidence_interval_coverage(params3, grid50):
    start = time.perf_counter()
    lat = estimate_lattice(params3, 10, 10, m=1000, t_horizon=5000, seed=2)
    ci_low = lat.ci_low.reshape(10, 10)
    ci_high = lat.ci_high.reshape(10, 10)
    inside = 0
    for i in range(1, 11):
        for j in range(1, 11):
            p = grid50.values[i - 1, j - 1]
            if ci_low[i - 1, j - 1] <= p <= ci_high[i - 1, j - 1]:
                inside += 1
    elapsed = time.perf_counter() - start
    ok = inside >= 90 and elapsed < 120.0
    _verdict(
        9,
        ok,
        f"solver value inside the 95% interval for {inside}/100 cells "
        f"(needs >= 90) at M=1000, {elapsed:.1f}s",
    )


def test_10_paper_scale_error_bands(grid50, grid100c, mc50_lattice, mc_subsample_c):
    rep1 = compare(mc50_lattice.p_hat.reshape(50, 50), grid50.values)
    mean1 = rep1.stats["absolute_error"].mean

    cells, p_hat = mc_subsample_c
    ref = np.array([grid100c.values[i - 1, j - 1] for (i, j) in cells])
    mean2 = float(np.mean(np.abs(p_hat - ref)))

    ok = 1e-4 <= mean1 <= 2e-2 and 1e-2 <= mean2 <= 2e-1
    _verdict(
        10,
        ok,
        f"MC vs grid mean abs error: {mean1:.3e} in [1e-4, 2e-2] supercritical; "
        f"{mean2:.3e} in [1e-2, 2e-1] near-critical (stride-10 cells)",
    )


def test_11_exponential_truncation_convergence(params3, paramsc, grid50):
    start = time.perf_counter()
    ns = list(range(10, 50))
    direct = SolveOptions(method=Method.DIRECT)
    series1 = convergence_series(params3, ns, grid50.values, {})
    fit1 = fit_log_slope(
        np.array([n for n, _ in series1]), np.array([e for _, e in series1])
    )

    ref_c = solve_grid(paramsc, 50, direct)
    series2 = convergence_series(paramsc, ns, ref_c.values, {})
    fit2 = fit_log_slope(
        np.array([n for n, _ in series2]), np.array([e for _, e in series2])
    )
    elapsed = time.perf_counter() - start
    ok = (
        fit1.slope < 0.0
        and 0.3 <= -fit1.slope <= 1.2
        and fit2.slope < 0.0
        and 0.03 <= -fit2.slope <= 0.25
        and elapsed < 120.0
    )
    _verdict(
        11,
        ok,
        f"log-rqe slopes: {fit1.slope:.4f} (|.| in [0.3, 1.2], R2={fit1.r_squared:.4f}) "
        f"and {fit2.slope:.4f} (|.| in [0.03, 0.25], R2={fit2.r_squared:.4f}), {elapsed:.1f}s",
    )


def test_12_hand_solved_two_by_two(params3):
    exact = {
        (1, 1): Fraction(322, 405),
        (1, 2): Fraction(160, 243),
        (2, 1): Fraction(160, 243),
        (2, 2): Fraction(608, 1215),
    }
    worst = 0.0
    for method in Method:
        sol = solve_grid(params3, 2, SolveOptions(method=method))
        for (i, j), frac in exact.items():
            worst = max(worst, abs(sol.values[i - 1, j - 1] - float(frac)))
    ok = worst <= 1e-12
    _verdict(
        12,
        ok,
        f"N=2 solutions match hand-eliminated rationals to {worst:.2e} "
        "(limit 1e-12) for every solver",
    )
