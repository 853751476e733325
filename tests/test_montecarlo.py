import io
import math
import os
import signal
import sys
import threading
import time
import tracemalloc

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


class TestOutcomes:
    def test_short_horizon_near_critical_is_censored(self, paramsc):
        m = 200
        est = estimate(paramsc, McConfig(m=m, t_horizon=100, seed=5, initial=State(10, 10)))
        assert est.censored_frac > 0.0
        assert est.stopped_frac == 0.0  # the stop level 14516 is out of reach
        fractions = np.array([est.p_hat, est.stopped_frac, est.censored_frac])
        assert fractions.sum() <= 1.0 + 1e-12
        assert np.round(fractions * m).sum() == m

    def test_lattice_fractions_match_singles(self, params3):
        m = 50
        lat = estimate_lattice(params3, 3, 3, m=m, t_horizon=2000, seed=3)
        total = np.round((lat.p_hat + lat.stopped_frac + lat.censored_frac) * m)
        assert np.all(total == m)
        assert np.all(lat.stopped_frac > 0.0)
        assert np.all(lat.censored_frac == 0.0)  # every path stops or dies by T
        solo = estimate(params3, McConfig(m=m, t_horizon=2000, seed=3, initial=State(2, 3)))
        assert lat.stopped_frac[1, 2] == solo.stopped_frac
        assert lat.censored_frac[1, 2] == solo.censored_frac

    def test_start_in_exit_set_counts_as_stopped(self, params3):
        est = estimate(params3, McConfig(m=20, t_horizon=100, seed=1, initial=State(36, 40)))
        assert est.stopped_frac == 1.0 and est.censored_frac == 0.0


class TestRefill:
    @pytest.mark.parametrize(
        "r, cells",
        [
            (3.0, [(i, j) for i in range(1, 5) for j in range(1, 5)]),
            # stop level 3: every path ends within the first default refill
            (1000.0, [(2, 2), (1, 4)]),
        ],
    )
    def test_refill_size_invisible(self, monkeypatch, r, cells):
        # T = 500 is not a multiple of any refill size below; with fewer
        # than _HELPER_MIN_PATHS paths the default run draws without the
        # helper, so the runs with a zero threshold compare the two
        params = ModelParams(r=r, d=2.0)
        ends = np.empty((2, len(cells)))
        a = estimate_cells(params, cells, m=60, t_horizon=500, seed=9, ends=ends)
        if r == 1000.0:
            first = np.empty_like(ends)
            estimate_cells(params, cells, m=60, t_horizon=montecarlo._CHUNK, seed=9, ends=first)
            assert np.all(first[1] == 0.0)  # nothing left running after one refill
        for helper_min in (0, montecarlo._HELPER_MIN_PATHS):
            monkeypatch.setattr(montecarlo, "_HELPER_MIN_PATHS", helper_min)
            for chunk in (1, 3, 128, montecarlo._CHUNK):
                monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
                ends_b = np.empty_like(ends)
                b = estimate_cells(params, cells, m=60, t_horizon=500, seed=9, ends=ends_b)
                assert np.array_equal(a, b)
                assert np.array_equal(ends, ends_b)

    def test_helper_invisible_on_wide_groups(self, params3, monkeypatch):
        # 40 cells of 200 paths run with the helper by default; a threshold
        # above the group width makes the caller draw every block alone
        cells = [(i, j) for i in range(1, 9) for j in range(1, 6)]
        assert len(cells) * 200 >= montecarlo._HELPER_MIN_PATHS
        a = estimate_cells(params3, cells, m=200, t_horizon=3000, seed=5)
        monkeypatch.setattr(montecarlo, "_HELPER_MIN_PATHS", 10**9)
        b = estimate_cells(params3, cells, m=200, t_horizon=3000, seed=5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "budget, m, n_cells",
        [
            (1024, 16, 300),  # 64 cells a group, five groups
            (256, 1000, 1),  # M above the budget: fewer steps per bank
            (64, 10_000, 1),  # one row above half the cap: one step per bank
        ],
    )
    def test_banks_stay_within_cap(self, params3, monkeypatch, budget, m, n_cells):
        monkeypatch.setattr(montecarlo, "_PATH_BUDGET", budget)
        cells = [(1 + k % 20, 1 + k // 20) for k in range(n_cells)]
        held = []
        run_group = montecarlo._run_group

        def spy(*args):
            # the banks and the flag arrays exist before any group runs
            held.append(tracemalloc.get_traced_memory()[0])
            return run_group(*args)

        monkeypatch.setattr(montecarlo, "_run_group", spy)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            estimate_cells(params3, cells, m=m, t_horizon=100, seed=3)
        finally:
            tracemalloc.stop()
        banks = max(held) - before - 2 * n_cells * m  # less the bool flag arrays
        cap = 8 * max(128 * budget, 2 * m)
        assert 2 * 8 * m <= banks <= cap + 4096  # a few small objects besides

    def test_error_waits_for_pending_fill(self, params3, monkeypatch):
        monkeypatch.setattr(montecarlo, "_HELPER_MIN_PATHS", 0)
        refills = []
        init, draw = montecarlo._Refill.__init__, montecarlo._Refill._draw

        def record(self, *args):
            refills.append(self)
            init(self, *args)

        def slow_draw(self, live):
            time.sleep(0.05)
            draw(self, live)

        def interrupted(self, live=None):
            raise RuntimeError("interrupted")

        monkeypatch.setattr(montecarlo._Refill, "__init__", record)
        monkeypatch.setattr(montecarlo._Refill, "_draw", slow_draw)
        monkeypatch.setattr(montecarlo._Refill, "finish", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            estimate_cells(params3, [(1, 1)], m=10, t_horizon=100, seed=0)
        assert len(refills) == 1 and refills[0]._helper.done()

    def test_concurrent_callers_agree(self, params3, monkeypatch):
        # four callers share the one helper thread; a cell drawn twice, or
        # read before its draw finished, would change the estimates
        monkeypatch.setattr(montecarlo, "_CHUNK", 3)
        monkeypatch.setattr(montecarlo, "_HELPER_MIN_PATHS", 0)
        cells = [(i, j) for i in range(1, 7) for j in range(1, 7)]
        expected = estimate_cells(params3, cells, m=40, t_horizon=400, seed=2)
        results = [None] * 4

        def run(k):
            results[k] = estimate_cells(params3, cells, m=40, t_horizon=400, seed=2)

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for result in results:
            assert np.array_equal(result, expected)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_can_draw(self, params3, monkeypatch):
        # the child inherits the pool after the parent has used its thread
        monkeypatch.setattr(montecarlo, "_HELPER_MIN_PATHS", 0)
        cells = [(1, 1), (2, 3)]
        a = estimate_cells(params3, cells, m=50, t_horizon=300, seed=1)
        pid = os.fork()
        if pid == 0:
            signal.alarm(30)  # a hung refill kills the child instead of the suite
            b = estimate_cells(params3, cells, m=50, t_horizon=300, seed=1)
            os._exit(0 if np.array_equal(a, b) else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


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
