import io
import math
import os
import signal
import sys
import threading
import tracemalloc
import types
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distyle import montecarlo
from distyle.harness import write_mc_csv
from distyle.model import ModelParams, extinction_bounds
from distyle.montecarlo import (
    estimate,
    estimate_cells,
    estimate_lattice,
    stop_level,
)


# the fields of McEstimate that hold one value per cell
PER_CELL = (
    "p_hat",
    "ci_low",
    "ci_high",
    "half_width",
    "degenerate",
    "stopped_frac",
    "censored_frac",
)


def make_rng(seed, i, j):
    return montecarlo._cell_stream(seed, i, j)


class PathResult(NamedTuple):
    absorbed: bool
    steps: int | None


def step(params: ModelParams, i: int, j: int, u: float) -> tuple[int, int]:
    """The state after one move of the embedded chain from (i, j).

    Inverse-CDF sampling in the fixed order left, down, right, up; the
    state-dependent part of the thresholds is only the left/down split.
    """
    loss = params.death_step
    if u < loss:
        if u < loss * i / (i + j):
            return i - 1, j
        return i, j - 1
    if u < loss + params.birth_step:
        return i + 1, j
    return i, j + 1


def simulate_path(
    params: ModelParams, initial: tuple[int, int], t_horizon: int, rng: np.random.Generator
) -> PathResult:
    """One path of the embedded chain from the cell ``initial``, absorbed
    flag and absorption time: the scalar oracle of the vectorised kernel at
    M = 1, where step t reads the t-th uniform of the stream."""
    i, j = initial
    if i == 0 or j == 0:
        raise ValueError(f"initial state ({i}, {j}) is absorbed")
    for t in range(1, t_horizon + 1):
        i, j = step(params, i, j, rng.random())
        if i == 0 or j == 0:
            return PathResult(True, t)
    return PathResult(False, None)


class CellResult(NamedTuple):
    counts: tuple[int, int, int]  # paths absorbed, stopped at the exit set, censored at T
    path_steps: int  # steps the paths took, the step that ended each one included


def simulate_cell(
    params: ModelParams,
    initial: tuple[int, int],
    m: int,
    t_horizon: int,
    rng: np.random.Generator,
) -> CellResult:
    """M paths from one cell, read from its stream in the kernel's live-lane
    layout: the scalar oracle of the vectorised kernel for any M.

    Time runs in blocks of ``_BLOCK`` steps.  At the start of a block the
    paths still running are ranked in path order, and each step of the block
    reads one uniform per ranked path, rank by rank, whether or not the path
    ended earlier in the block.
    """
    level = stop_level(params)
    if min(initial) >= level:
        return CellResult((0, m, 0), 0)
    running = {path: initial for path in range(m)}  # in path order
    absorbed = path_steps = 0
    t = 0
    while t < t_horizon and running:
        ranked = list(running)
        block = min(montecarlo._BLOCK, t_horizon - t)
        for _ in range(block):
            for path in ranked:
                u = rng.random()
                if path not in running:
                    continue
                i, j = step(params, *running[path], u)
                path_steps += 1
                if i == 0 or j == 0:
                    absorbed += 1
                    del running[path]
                elif min(i, j) >= level:
                    del running[path]
                else:
                    running[path] = (i, j)
        t += block
    censored = len(running)
    return CellResult((absorbed, m - absorbed - censored, censored), path_steps)


class TestConfig:
    def test_validation(self, params3):
        good = dict(cells=[(1, 1)], m=10, t_horizon=100, seed=0)
        estimate_cells(params3, **good)
        for bad, message in [
            (dict(m=0), "need at least one path, got m=0"),
            (dict(t_horizon=0), "need a positive horizon, got 0"),
            (dict(seed=-1), "seed must fit in an unsigned 64-bit integer"),
            (dict(seed=2**64), "seed must fit in an unsigned 64-bit integer"),
            (dict(cells=[(2, 2), (0, 3)]), "initial cells need i, j >= 1, got (0, 3)"),
            (dict(cells=[(2, -1), (0, 3)]), "initial cells need i, j >= 1, got (2, -1)"),
            (dict(cells=[]), "need at least one initial cell"),
        ]:
            with pytest.raises(ValueError) as info:
                estimate_cells(params3, **{**good, **bad})
            assert str(info.value) == message


class TestSinglePath:
    def test_deterministic_given_stream(self, params3):
        a = simulate_path(params3, (2, 2), 500, make_rng(7, 2, 2))
        b = simulate_path(params3, (2, 2), 500, make_rng(7, 2, 2))
        assert a == b

    def test_absorption_reports_time(self, params3):
        res = simulate_path(params3, (1, 1), 5000, make_rng(0, 1, 1))
        if res.absorbed:
            assert res.steps >= 1
        else:
            assert res.steps is None

    def test_absorbed_start_rejected(self, params3):
        with pytest.raises(ValueError):
            simulate_path(params3, (3, 0), 10, make_rng(0, 3, 0))


class TestEstimate:
    def test_confidence_interval_shape(self, params3):
        est = estimate(params3, 1, 1, m=200, t_horizon=2000, seed=11)
        width = 1.96 * math.sqrt(est.p_hat * (1 - est.p_hat) / 200)
        assert est.half_width == pytest.approx(width, rel=1e-12)
        assert est.ci_low == pytest.approx(max(0.0, est.p_hat - width), rel=1e-12)
        assert est.ci_high == pytest.approx(min(1.0, est.p_hat + width), rel=1e-12)
        assert 0.0 <= est.ci_low <= est.p_hat <= est.ci_high <= 1.0

    def test_reference_half_width(self):
        # the M=200 interval at p_hat = 1/2 is the widest possible
        assert 1.96 * math.sqrt(0.25 / 200) == pytest.approx(0.06929646455628166, rel=1e-15)

    def test_degenerate_flag(self, params3):
        est = estimate(params3, 40, 40, m=3, t_horizon=1, seed=5)
        assert est.p_hat == 0.0
        assert est.degenerate
        assert est.ci_low == est.ci_high == 0.0

    def test_horizon_monotone(self, params3):
        # longer horizons extend the same paths, so absorption flags only gain
        base = dict(i=2, j=3, m=300, seed=97)
        p_short = estimate(params3, t_horizon=50, **base).p_hat
        p_long = estimate(params3, t_horizon=2000, **base).p_hat
        assert p_short <= p_long

    def test_matches_law_of_large_numbers(self, params3, grid50):
        est = estimate(params3, 1, 1, m=100_000, t_horizon=5000, seed=314)
        sigma = math.sqrt(est.p_hat * (1 - est.p_hat) / est.m)
        assert abs(est.p_hat - grid50.p(1, 1)) < 4 * sigma


class TestLattice:
    def test_matches_single_cell_bitwise(self, params3):
        lat = estimate_lattice(params3, 3, 2, m=150, t_horizon=800, seed=42)
        solo = estimate(params3, 3, 2, m=150, t_horizon=800, seed=42)
        for name in PER_CELL:
            assert getattr(lat, name)[2, 1] == getattr(solo, name), name
            assert np.ndim(getattr(solo, name)) == 0, name
            assert getattr(lat, name).shape == (3, 2), name
        assert lat.stop_bound == solo.stop_bound
        assert solo.cells == [(3, 2)]
        assert lat.cells == [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]
        assert "cells" not in repr(solo)

    def test_grouping_invisible(self, params3, monkeypatch):
        a = estimate_lattice(params3, 4, 4, m=60, t_horizon=500, seed=9)
        # a window of 180 lanes holds three cells at once; 25 < M also splits
        # every refill
        for budget in (180, 25):
            monkeypatch.setattr(montecarlo, "_PATH_BUDGET", budget)
            b = estimate_lattice(params3, 4, 4, m=60, t_horizon=500, seed=9)
            assert np.array_equal(a.p_hat, b.p_hat)

    def test_cells_align_with_singles(self, params3):
        cells = [(1, 1), (5, 2), (2, 5)]
        p = estimate_cells(params3, cells, m=80, t_horizon=600, seed=13)
        for k, (i, j) in enumerate(cells):
            solo = estimate(params3, i, j, m=80, t_horizon=600, seed=13)
            assert p[k] == solo.p_hat

    def test_single_path_matches_scalar_reference(self, params3):
        # with M=1 step t reads the t-th uniform of the cell's stream, as the
        # scalar simulator does; within 50 steps min(i, j) cannot reach the
        # stop level 36, so the flags must agree
        for seed in range(40):
            for i, j in [(1, 1), (3, 2), (6, 9)]:
                est = estimate(params3, i, j, m=1, t_horizon=50, seed=seed)
                ref = simulate_path(params3, (i, j), 50, make_rng(seed, i, j))
                assert est.p_hat == float(ref.absorbed)

    def test_stream_is_pinned(self, params3):
        # Absorbed, stopped and censored counts per cell, row-major, from the
        # PCG64 streams of _cell_stream read in the live-lane layout of
        # _run_share.  Every invariance test above passes under any in-order
        # bit generator and layout, so only this literal notices a change of
        # stream; a deliberate change updates it and says so in CHANGES.md,
        # since it changes every Monte-Carlo output.
        golden = np.array(
            [
                [40, 9, 1], [30, 19, 1], [28, 21, 1], [24, 23, 3],
                [38, 10, 2], [19, 29, 2], [15, 33, 2], [9, 39, 2],
                [23, 23, 4], [15, 33, 2], [9, 40, 1], [8, 37, 5],
                [24, 24, 2], [16, 33, 1], [10, 35, 5], [7, 41, 2],
            ]
        )
        lat = estimate_lattice(params3, 4, 4, 50, 500, 20260816)
        fractions = np.stack([lat.p_hat, lat.stopped_frac, lat.censored_frac], axis=-1)
        assert np.array_equal(fractions.reshape(16, 3), golden / 50)

    def test_extent_validation(self, params3):
        with pytest.raises(ValueError):
            estimate_lattice(params3, 0, 3, m=10, t_horizon=10, seed=0)

    def test_empty_cell_list_rejected(self, params3):
        with pytest.raises(ValueError):
            estimate_cells(params3, [], m=10, t_horizon=10, seed=0)


class TestOutcomes:
    def test_short_horizon_near_critical_is_censored(self, paramsc):
        m = 200
        est = estimate(paramsc, 10, 10, m=m, t_horizon=100, seed=5)
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
        solo = estimate(params3, 2, 3, m=m, t_horizon=2000, seed=3)
        assert lat.stopped_frac[1, 2] == solo.stopped_frac
        assert lat.censored_frac[1, 2] == solo.censored_frac

    def test_start_in_exit_set_counts_as_stopped(self, params3):
        est = estimate(params3, 36, 40, m=20, t_horizon=100, seed=1)
        assert est.stopped_frac == 1.0 and est.censored_frac == 0.0


def record_depths(monkeypatch) -> list[int]:
    """Patch ``_share_task`` to log the refill depth of each share run in
    this process; returns the log."""
    depths = []
    share_task = montecarlo._share_task

    def spy(params, m, t_horizon, seed, level, window, depth, cells):
        depths.append(depth)
        return share_task(params, m, t_horizon, seed, level, window, depth, cells)

    monkeypatch.setattr(montecarlo, "_share_task", spy)
    return depths


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
        # T = 500 is not a multiple of any refill size below.  A budget below
        # 120 paths holds one cell of 60 paths at a time in the window, which
        # then refills _BLOCK * budget // 60 steps at a time.
        params = ModelParams(r=r, d=2.0)
        ends = np.empty((2, len(cells)))
        a = estimate_cells(params, cells, m=60, t_horizon=500, seed=9, ends=ends)
        if r == 1000.0:
            first = np.empty_like(ends)
            estimate_cells(params, cells, m=60, t_horizon=montecarlo._BLOCK, seed=9, ends=first)
            assert np.all(first[1] == 0.0)  # nothing left running after one block
        depths = record_depths(monkeypatch)
        for budget, depth in ((2, 1), (6, 3), (60, 32)):
            monkeypatch.setattr(montecarlo, "_PATH_BUDGET", budget)
            depths.clear()
            ends_b = np.empty_like(ends)
            b = estimate_cells(params, cells, m=60, t_horizon=500, seed=9, ends=ends_b)
            assert set(depths) == {depth}
            assert np.array_equal(a, b)
            assert np.array_equal(ends, ends_b)

    @pytest.mark.parametrize(
        "budget, m, n_cells",
        [
            (1024, 16, 300),  # 64 cells in the window at a time
            (256, 1000, 1),  # M above the budget: fewer steps per bank
            (64, 10_000, 1),  # one row above the cap: one step per bank
        ],
    )
    def test_banks_stay_within_cap(self, params3, monkeypatch, budget, m, n_cells):
        # tracemalloc sees only this process, so the share runs in it
        monkeypatch.setattr(montecarlo, "_workers", lambda: 1)
        monkeypatch.setattr(montecarlo, "_PATH_BUDGET", budget)
        cells = [(1 + k % 20, 1 + k // 20) for k in range(n_cells)]
        shares = []
        held = []
        share_task = montecarlo._share_task
        run_share = montecarlo._run_share

        def spy(*args):
            # the peak over the whole share: its bank, staging buffer, work
            # arrays, streams and counts
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            counts = share_task(*args)
            depth, lanes, after = held.pop()
            peak = tracemalloc.get_traced_memory()[1] - before
            shares.append((depth, lanes, after - before, peak))
            return counts

        def run_share_spy(*args):
            # the share's bank exists before it runs
            held.append((*args[-1].shape, tracemalloc.get_traced_memory()[0]))
            return run_share(*args)

        monkeypatch.setattr(montecarlo, "_share_task", spy)
        monkeypatch.setattr(montecarlo, "_run_share", run_share_spy)
        tracemalloc.start()
        try:
            estimate_cells(params3, cells, m=m, t_horizon=100, seed=3)
        finally:
            tracemalloc.stop()
        cap = 8 * max(montecarlo._BLOCK * budget, m)
        ((depth, lanes, bank, peak),) = shares
        # the bank holds at least one row of M; besides it: interpreter
        # frames and numpy's cache of small freed buffers
        assert m <= lanes <= max(budget, m)
        assert 8 * m <= 8 * depth * lanes <= bank <= cap + 16384
        # beyond the bank and the staging buffer of depth rows of M: work
        # arrays (measured 44-55 B a path), generator state (about 1.1 KiB a
        # cell), and the same slack, for the n cells the window holds
        n = lanes // m
        staging = 8 * depth * m
        assert 8 * m <= peak <= cap + staging + 64 * n * m + 1536 * n + 16384

    def test_concurrent_callers_agree(self, params3, monkeypatch):
        # four callers run at once; state shared between calls would change
        # the estimates; a budget of 4 paths holds one cell at a time that
        # refill 3 steps at a time
        monkeypatch.setattr(montecarlo, "_PATH_BUDGET", 4)
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
        # the child runs its own worker pool after the parent has run one
        monkeypatch.setattr(montecarlo, "_POOL_MIN_PATHS", 0)
        monkeypatch.setattr(montecarlo, "_workers", lambda: 2)
        cells = [(1, 1), (2, 3)]
        a = estimate_cells(params3, cells, m=50, t_horizon=300, seed=1)
        pid = os.fork()
        if pid == 0:
            signal.alarm(30)  # a hung pool kills the child instead of the suite
            b = estimate_cells(params3, cells, m=50, t_horizon=300, seed=1)
            os._exit(0 if np.array_equal(a, b) else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


class TestLiveLanes:
    @pytest.mark.parametrize("r", [3.0, 2.002, 1000.0])  # stop levels 36, 14516 and 3
    @pytest.mark.parametrize("t_horizon", [50, 77, 500])  # 77 ends inside a block
    def test_kernel_matches_cell_oracle(self, monkeypatch, r, t_horizon):
        params = ModelParams(r=r, d=2.0)
        cells = [(1, 1), (2, 3), (4, 1), (3, 5)]
        m, seed = 20, 5
        expected = [
            list(simulate_cell(params, (i, j), m, t_horizon, make_rng(seed, i, j)).counts)
            for i, j in cells
        ]
        # a budget below 40 paths holds one cell of 20 paths at a time,
        # refilling _BLOCK * budget // 20 steps at a time; a budget of 40 holds
        # two, so the third and fourth cells join a window whose first cells
        # are part-way through their horizon; the default budget runs the four
        # cells side by side
        depths = record_depths(monkeypatch)
        budgets = ((1, 1), (2, 3), (20, 32), (40, 32), (montecarlo._PATH_BUDGET, 32))
        for budget, depth in budgets:
            monkeypatch.setattr(montecarlo, "_PATH_BUDGET", budget)
            depths.clear()
            with montecarlo._counting(params, cells, m, t_horizon, seed) as finish:
                counts = finish()
            assert set(depths) == {depth}
            assert counts.tolist() == expected, budget

    def test_draws_only_for_running_paths(self, params3, monkeypatch):
        # A path draws for every step of each block it starts running, so it
        # wastes at most the slots left in the block it ends in.  Drawing for
        # every path of a cell while any of them runs breaks this bound.
        cells = [(i, j) for i in range(1, 5) for j in range(1, 5)]
        m, t_horizon, seed = 50, 500, 20260816
        path_steps = sum(
            simulate_cell(params3, (i, j), m, t_horizon, make_rng(seed, i, j)).path_steps
            for i, j in cells
        )
        drawn = []
        cell_stream = montecarlo._cell_stream

        class Counted:
            def __init__(self, gen):
                self.gen = gen

            def random(self, out):
                drawn.append(out.size)
                return self.gen.random(out=out)

        monkeypatch.setattr(montecarlo, "_workers", lambda: 1)  # the count stays here
        monkeypatch.setattr(montecarlo, "_cell_stream", lambda *key: Counted(cell_stream(*key)))
        estimate_lattice(params3, 4, 4, m, t_horizon, seed)
        assert 0 <= sum(drawn) - path_steps <= (montecarlo._BLOCK - 1) * m * len(cells)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


class TestWorkers:
    def _run(self, params, cells, m, t_horizon):
        ends = np.empty((2, len(cells)))
        p_hat = estimate_cells(params, cells, m=m, t_horizon=t_horizon, seed=11, ends=ends)
        return p_hat, ends

    @needs_fork
    @pytest.mark.parametrize(
        "r, cells, t_horizon",
        [
            (3.0, [(i, j) for i in range(1, 7) for j in range(1, 7)], 5000),
            # near criticality nothing stops early and many paths are censored
            (2.002, [(k, k + 10) for k in range(10, 101, 10)], 400),
        ],
    )
    def test_results_independent_of_worker_count(self, monkeypatch, r, cells, t_horizon):
        params = ModelParams(r=r, d=2.0)
        monkeypatch.setattr(montecarlo, "_workers", lambda: 1)
        expected = self._run(params, cells, 100, t_horizon)
        monkeypatch.setattr(montecarlo, "_POOL_MIN_PATHS", 0)
        for budget in (montecarlo._PATH_BUDGET, 1000):  # 1000: cells join running windows
            monkeypatch.setattr(montecarlo, "_PATH_BUDGET", budget)
            for workers in (1, 2, 3):
                monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
                p_hat, ends = self._run(params, cells, 100, t_horizon)
                assert np.array_equal(p_hat, expected[0])
                assert np.array_equal(ends, expected[1])

    @needs_fork
    @pytest.mark.parametrize("m", [60, 700])  # 700 paths exceed a worker's share
    def test_windows_share_the_budget(self, params3, monkeypatch, tmp_path, m):
        budget, workers = 1000, 2
        monkeypatch.setattr(montecarlo, "_PATH_BUDGET", budget)
        monkeypatch.setattr(montecarlo, "_POOL_MIN_PATHS", 0)
        monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
        run_share = montecarlo._run_share

        def spy(params, cells, m, t_horizon, seed, level, window, bank):
            # every refill views the bank as (steps, lanes in flight); the
            # share runs in a worker process, so it reports through a file
            lanes = []

            class Logged(np.ndarray):
                def reshape(self, *shape):
                    if len(shape) == 2:
                        lanes.append(shape[1])
                    return super().reshape(*shape)

            counts = run_share(params, cells, m, t_horizon, seed, level, window, bank.view(Logged))
            (tmp_path / f"{os.getpid()}.txt").write_text(f"{len(cells)} {max(lanes)}")
            return counts

        monkeypatch.setattr(montecarlo, "_run_share", spy)
        cells = [(i, j) for i in range(1, 7) for j in range(1, 7)]
        estimate_cells(params3, cells, m=m, t_horizon=200, seed=4)
        shares = [tuple(map(int, log.read_text().split())) for log in tmp_path.glob("*.txt")]
        assert sorted(n for n, _ in shares) == [len(cells) // workers] * workers
        for _, most in shares:
            assert m <= most <= max(budget // workers, m)

    @needs_fork
    def test_worker_error_reaches_caller(self, params3, monkeypatch):
        import multiprocessing

        def broken(*args):
            raise RuntimeError("broken share")

        monkeypatch.setattr(montecarlo, "_run_share", broken)
        monkeypatch.setattr(montecarlo, "_POOL_MIN_PATHS", 0)
        monkeypatch.setattr(montecarlo, "_workers", lambda: 2)
        cells = [(i, j) for i in range(1, 7) for j in range(1, 7)]
        with pytest.raises(RuntimeError, match="broken share"):
            estimate_cells(params3, cells, m=50, t_horizon=100, seed=0)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cause", ["no fork", "daemonic caller"])
    def test_fallback_runs_in_process(self, params3, monkeypatch, cause):
        import multiprocessing

        cells = [(i, j) for i in range(1, 7) for j in range(1, 7)]
        expected = estimate_cells(params3, cells, m=50, t_horizon=300, seed=6)  # in process

        def no_fork(*args, **kwargs):
            raise AssertionError(f"a worker was forked with {cause}")

        if cause == "no fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        else:  # a daemonic process may not have children
            monkeypatch.setattr(
                multiprocessing, "current_process", lambda: types.SimpleNamespace(daemon=True)
            )
        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(montecarlo, "_POOL_MIN_PATHS", 0)
        assert montecarlo._workers() == 1
        assert np.array_equal(estimate_cells(params3, cells, m=50, t_horizon=300, seed=6), expected)


class TestCsv:
    def test_layout(self, params3):
        lat = estimate_lattice(params3, 2, 2, m=50, t_horizon=400, seed=8)
        buf = io.StringIO()
        write_mc_csv(lat, buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == "i,j,p_hat,ci_low,ci_high,stopped_frac,censored_frac,M,T,seed"
        assert len(lines) == 6 and lines[5] == ""
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "1"
        assert first[5] == f"{lat.stopped_frac[0, 0]:.12g}"
        assert first[6] == f"{lat.censored_frac[0, 0]:.12g}"
        assert first[7] == "50" and first[8] == "400" and first[9] == "8"
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
        est = estimate(params, 1, 1, m=10, t_horizon=100, seed=0)
        assert est.p_hat == 0.0 and est.stop_bound == 0.0

    def test_start_in_exit_set_draws_nothing(self, params3):
        # a horizon this long would take minutes if the paths ran
        k = stop_level(params3)
        for i, j in [(k, k), (k, 5 * k)]:
            est = estimate(params3, i, j, m=500, t_horizon=10**9, seed=4)
            assert est.p_hat == 0.0 and est.degenerate

    def test_stop_bound_reported(self, params3):
        expected = 2.0 * (2.0 / 3.0) ** 36
        est = estimate(params3, 2, 2, m=20, t_horizon=100, seed=1)
        lat = estimate_lattice(params3, 2, 2, m=20, t_horizon=100, seed=1)
        assert est.stop_bound == lat.stop_bound == pytest.approx(expected, rel=1e-12)
        assert est.stop_bound <= 1e-6
