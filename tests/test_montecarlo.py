import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distyle import montecarlo
from distyle.model import ModelParams, State, extinction_bounds
from distyle.montecarlo import (
    McConfig,
    estimate,
    estimate_cells,
    estimate_lattice,
    simulate_path,
    stop_level,
    write_mc_csv,
)


def make_rng(seed, i, j):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, i, j])))


class TestConfig:
    def test_validation(self):
        good = dict(m=10, t_horizon=100, seed=0, initial=State(1, 1))
        McConfig(**good)
        with pytest.raises(ValueError):
            McConfig(**{**good, "m": 0})
        with pytest.raises(ValueError):
            McConfig(**{**good, "t_horizon": 0})
        with pytest.raises(ValueError):
            McConfig(**{**good, "seed": -1})
        with pytest.raises(ValueError):
            McConfig(**{**good, "seed": 2**64})
        with pytest.raises(ValueError):
            McConfig(**{**good, "initial": State(0, 3)})


class TestSinglePath:
    def test_deterministic_given_stream(self, params3):
        a = simulate_path(params3, State(2, 2), 500, make_rng(7, 2, 2))
        b = simulate_path(params3, State(2, 2), 500, make_rng(7, 2, 2))
        assert a == b

    def test_absorption_reports_time(self, params3):
        res = simulate_path(params3, State(1, 1), 5000, make_rng(0, 1, 1))
        if res.absorbed:
            assert res.steps >= 1
        else:
            assert res.steps is None

    def test_absorbed_start_rejected(self, params3):
        with pytest.raises(ValueError):
            simulate_path(params3, State(3, 0), 10, make_rng(0, 3, 0))


class TestEstimate:
    def test_confidence_interval_shape(self, params3):
        est = estimate(params3, McConfig(m=200, t_horizon=2000, seed=11, initial=State(1, 1)))
        width = 1.96 * math.sqrt(est.p_hat * (1 - est.p_hat) / 200)
        assert est.half_width == pytest.approx(width, rel=1e-12)
        assert est.ci_low == pytest.approx(max(0.0, est.p_hat - width), rel=1e-12)
        assert est.ci_high == pytest.approx(min(1.0, est.p_hat + width), rel=1e-12)
        assert 0.0 <= est.ci_low <= est.p_hat <= est.ci_high <= 1.0

    def test_reference_half_width(self):
        # the M=200 interval at p_hat = 1/2 is the widest possible
        assert 1.96 * math.sqrt(0.25 / 200) == pytest.approx(0.06929646455628166, rel=1e-15)

    def test_degenerate_flag(self, params3):
        est = estimate(params3, McConfig(m=3, t_horizon=1, seed=5, initial=State(40, 40)))
        assert est.p_hat == 0.0
        assert est.degenerate
        assert est.ci_low == est.ci_high == 0.0

    def test_horizon_monotone(self, params3):
        # longer horizons extend the same paths, so absorption flags only gain
        base = dict(m=300, seed=97, initial=State(2, 3))
        p_short = estimate(params3, McConfig(t_horizon=50, **base)).p_hat
        p_long = estimate(params3, McConfig(t_horizon=2000, **base)).p_hat
        assert p_short <= p_long

    def test_matches_law_of_large_numbers(self, params3, grid50):
        est = estimate(
            params3, McConfig(m=100_000, t_horizon=5000, seed=314, initial=State(1, 1))
        )
        sigma = math.sqrt(est.p_hat * (1 - est.p_hat) / est.m)
        assert abs(est.p_hat - grid50.p(1, 1)) < 4 * sigma


class TestLattice:
    def test_matches_single_cell_bitwise(self, params3):
        lat = estimate_lattice(params3, 3, 2, m=150, t_horizon=800, seed=42)
        solo = estimate(params3, McConfig(m=150, t_horizon=800, seed=42, initial=State(3, 2)))
        assert lat.p_hat[2, 1] == solo.p_hat

    def test_grouping_invisible(self, params3, monkeypatch):
        a = estimate_lattice(params3, 4, 4, m=60, t_horizon=500, seed=9)
        # 180 paths run three cells per group; 25 < M also splits every refill
        for budget in (180, 25):
            monkeypatch.setattr(montecarlo, "_PATH_BUDGET", budget)
            b = estimate_lattice(params3, 4, 4, m=60, t_horizon=500, seed=9)
            assert np.array_equal(a.p_hat, b.p_hat)

    def test_cells_align_with_singles(self, params3):
        cells = [(1, 1), (5, 2), (2, 5)]
        p = estimate_cells(params3, cells, m=80, t_horizon=600, seed=13)
        for k, (i, j) in enumerate(cells):
            solo = estimate(
                params3, McConfig(m=80, t_horizon=600, seed=13, initial=State(i, j))
            )
            assert p[k] == solo.p_hat

    def test_single_path_matches_scalar_reference(self, params3):
        # with M=1 step t reads the t-th uniform of the cell's stream, as the
        # scalar simulator does; within 50 steps min(i, j) cannot reach the
        # stop level 36, so the flags must agree
        for seed in range(40):
            for i, j in [(1, 1), (3, 2), (6, 9)]:
                est = estimate(
                    params3, McConfig(m=1, t_horizon=50, seed=seed, initial=State(i, j))
                )
                ref = simulate_path(params3, State(i, j), 50, make_rng(seed, i, j))
                assert est.p_hat == float(ref.absorbed)

    def test_extent_validation(self, params3):
        with pytest.raises(ValueError):
            estimate_lattice(params3, 0, 3, m=10, t_horizon=10, seed=0)


class TestCsv:
    def test_layout(self, params3):
        lat = estimate_lattice(params3, 2, 2, m=50, t_horizon=400, seed=8)
        buf = io.StringIO()
        write_mc_csv(lat, buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == "i,j,p_hat,ci_low,ci_high,M,T,seed"
        assert len(lines) == 6 and lines[5] == ""
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "1"
        assert first[5] == "50" and first[6] == "400" and first[7] == "8"
        assert "\r" not in buf.getvalue()


class TestStopRule:
    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=1.0001, max_value=5.0),
        st.integers(0, 50),
        st.integers(0, 5000),
    )
    def test_level_is_smallest_settled_one(self, d, factor, extra_i, extra_j):
        params = ModelParams(r=d * factor, d=d)
        k = stop_level(params)
        assert extinction_bounds(params, k + extra_i, k + extra_j)[1] <= 1e-6
        assert extinction_bounds(params, k + extra_j, k + extra_i)[1] <= 1e-6
        assert k == 1 or 2.0 * params.ratio ** (k - 1) > 1e-6

    def test_reference_levels(self, params3, paramsc):
        assert stop_level(params3) == 36
        assert stop_level(paramsc) == 14516

    def test_underflowing_ratio_keeps_a_finite_level(self):
        params = ModelParams(r=1e300, d=1e-300)
        assert params.ratio == 0.0
        assert stop_level(params) == 1
        est = estimate(params, McConfig(m=10, t_horizon=100, seed=0, initial=State(1, 1)))
        assert est.p_hat == 0.0 and est.stop_bound == 0.0

    def test_start_in_exit_set_draws_nothing(self, params3):
        # a horizon this long would take minutes if the paths ran
        k = stop_level(params3)
        for i, j in [(k, k), (k, 5 * k)]:
            est = estimate(
                params3, McConfig(m=500, t_horizon=10**9, seed=4, initial=State(i, j))
            )
            assert est.p_hat == 0.0 and est.degenerate

    def test_stop_bound_reported(self, params3):
        expected = 2.0 * (2.0 / 3.0) ** 36
        est = estimate(params3, McConfig(m=20, t_horizon=100, seed=1, initial=State(2, 2)))
        lat = estimate_lattice(params3, 2, 2, m=20, t_horizon=100, seed=1)
        assert est.stop_bound == lat.stop_bound == pytest.approx(expected, rel=1e-12)
        assert est.stop_bound <= 1e-6
