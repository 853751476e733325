import dataclasses
import functools
import io
import math
import os
import signal
import sys
import threading
import tracemalloc
import types
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distyle import model, montecarlo
from distyle.harness import write_mc_csv
from distyle.model import ModelParams, extinction_bounds
from distyle.montecarlo import (
    box_cells,
    estimate_cells,
    estimate_lattice,
    start_cells,
    stop_level,
)


# the fields of McEstimate that hold one value per cell
PER_CELL = (
    "p_hat",
    "ci_low",
    "ci_high",
    "stopped_frac",
    "censored_frac",
)


def make_rng(seed, i, j):
    return montecarlo._cell_stream(seed, i, j)


def canonical(i, j):
    """The cell whose start state and stream the cell (i, j) reads."""
    return min(i, j), max(i, j)


def one_cell(params, i, j, m, t_horizon, seed):
    """The estimate of the cell (i, j) alone, through ``start_cells``, with
    each per-cell field reduced to its one element."""
    with start_cells(params, [(i, j)], m, t_horizon, seed) as finish:
        est = finish()
    assert est.cells == [(i, j)]
    return dataclasses.replace(est, **{name: getattr(est, name)[0] for name in PER_CELL})


def path_counts(params, cells, m, t_horizon, seed):
    """The (absorbed, stopped, censored) path counts of each cell, read back
    from the fractions of the estimate, each a count over m."""
    with start_cells(params, cells, m, t_horizon, seed) as finish:
        est = finish()
    fractions = np.column_stack([est.p_hat, est.stopped_frac, est.censored_frac])
    counts = np.rint(fractions * m).astype(np.int64)
    assert np.array_equal(counts / m, fractions)
    return counts


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
    params: ModelParams,
    initial: tuple[int, int],
    t_horizon: int,
    rng: np.random.Generator,
    level: float = math.inf,
) -> PathResult:
    """One path of the embedded chain from the cell ``initial``, absorbed
    flag and absorption time: the scalar oracle of the vectorised kernel at
    M = 1, where step t reads the t-th uniform of the stream.  The path also
    ends, unabsorbed, once min(i, j) >= ``level``."""
    i, j = initial
    if i == 0 or j == 0:
        raise ValueError(f"initial state ({i}, {j}) is absorbed")
    for t in range(1, t_horizon + 1):
        if min(i, j) >= level:
            break
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
    level = stop_level(params, m)
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
            (dict(m=0), "m must be >= 1, got 0"),
            (dict(t_horizon=0), "t_horizon must be >= 1, got 0"),
            (dict(seed=-1), "seed must lie in [0, 2^64), got -1"),
            (dict(seed=2**64), "seed must lie in [0, 2^64), got 18446744073709551616"),
            (dict(cells=[(2, 2), (0, 3)]), "min(i, j) of cell (0, 3) must be >= 1, got 0"),
            (dict(cells=[(2, -1), (0, 3)]), "min(i, j) of cell (2, -1) must be >= 1, got -1"),
            (dict(cells=[]), "len(cells) must be >= 1, got 0"),
            # an index, count or seed that is no integer, named as set
            (dict(cells=[(1.5, 2)]), "i and j of cell (1.5, 2) must be integers"),
            (dict(cells=[(1, 1), (3, 2.0), (0, 3)]), "i and j of cell (3, 2.0) must be integers"),
            # a float cell is refused even where its mirror is an integer cell
            (dict(cells=[(2, 3), (3, 2.0)]), "i and j of cell (3, 2.0) must be integers"),
            (dict(m=10.0), "m must be an integer, got 10.0"),
            (dict(t_horizon=1.5), "t_horizon must be an integer, got 1.5"),
            (dict(seed=1.5), "seed must be an integer, got 1.5"),
            # a bool is no index, count or seed
            (dict(cells=[(True, 2)]), "i and j of cell (True, 2) must be integers"),
            (dict(m=True), "m must be an integer, got True"),
            (dict(t_horizon=True), "t_horizon must be an integer, got True"),
            (dict(seed=False), "seed must be an integer, got False"),
            # a path moves i + j by one a step, and the kernel holds it in int32;
            # the first used to run on a wrapped state, the second to fail in numpy
            (dict(cells=[(1, 1), (2**31 - 1, 1)], t_horizon=50),
             "i + j + t_horizon must be <= 2^31 - 1, got 2147483647 + 1 + 50"),
            (dict(cells=[(1, 2**31)], t_horizon=50),
             "i + j + t_horizon must be <= 2^31 - 1, got 1 + 2147483648 + 50"),
            (dict(cells=[(np.int32(2**31 - 1), np.int32(1))], t_horizon=1),
             "i + j + t_horizon must be <= 2^31 - 1, got 2147483647 + 1 + 1"),
        ]:
            with pytest.raises(ValueError) as info:
                estimate_cells(params3, **{**good, **bad})
            assert str(info.value) == message
        # a cell that is not a pair of indices is refused, by the first such cell
        for cells, bad in [
            ([(1, 2, 3)], "(1, 2, 3)"), ([(1,)], "(1,)"), ([(1, 2), (3,), ()], "(3,)"),
        ]:
            with pytest.raises(ValueError) as info:
                estimate_cells(params3, **{**good, "cells": cells})
            assert str(info.value) == f"cell {bad} must be a pair (i, j)"
        # numpy integers are integers
        numpy_ints = dict(cells=[(np.int64(1), np.int32(1))], m=np.int64(10), seed=np.uint64(0))
        assert np.array_equal(
            estimate_cells(params3, **{**good, **numpy_ints}), estimate_cells(params3, **good)
        )

    def test_cell_at_the_int32_bound_runs(self):
        # i + j + T = 2^31 - 1: no state leaves int32.  min(i, j) = 1 cannot
        # reach the exit level 8,299 in 50 steps, and a path from so far out
        # is almost never absorbed, so the paths are censored at T
        with start_cells(ModelParams(2.002, 2.0), [(2**31 - 52, 1)], 200, 50, 0) as finish:
            far = finish()
        assert (far.p_hat[0], far.stopped_frac[0], far.censored_frac[0]) == (0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match=r"got 2147483596 \+ 1 \+ 51$"):
            estimate_cells(ModelParams(2.002, 2.0), [(2**31 - 52, 1)], 200, 51, 0)

    def test_sizes_above_the_budget_rejected(self, params3, monkeypatch):
        # refused before a worker is forked or a path drawn, naming the
        # largest size admitted
        def fail(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(montecarlo, "_workers", fail)
        monkeypatch.setattr(montecarlo, "_run_share", fail)
        too_many = "must be <= 559240, got {} (at 240 bytes a requested cell"
        calls = [
            (lambda: estimate_cells(params3, [(1, 1)] * 559_241, m=1, t_horizon=1, seed=0),
             "len(cells) " + too_many.format(559_241)),
        ]
        for extents in [(1000, 1000), (1, 10**9)]:
            message = "i_max * j_max " + too_many.format(extents[0] * extents[1])
            calls += [
                (functools.partial(box_cells, *extents), message),
                (functools.partial(estimate_lattice, params3, *extents, 1, 1, 0), message),
            ]
        # a box is refused before its first cell is listed
        monkeypatch.setattr(montecarlo, "range", fail, raising=False)
        for call, message in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value).startswith(message)
            assert str(info.value).endswith(" the 128 MiB budget)")

    def test_box_is_held_to_its_cells_not_its_extents(self, params3):
        # an extent above 574, the largest box the grid solves, is no limit
        # of the Monte-Carlo's
        assert box_cells(575, 1) == [(i, 1) for i in range(1, 576)]
        lat = estimate_lattice(params3, 575, 1, m=1, t_horizon=1, seed=0)
        assert lat.cells == box_cells(575, 1)
        assert lat.p_hat.shape == (575,)

    def test_holds_no_grid(self):
        # the Monte-Carlo is one of three independent methods
        assert not hasattr(montecarlo, "grid")

    def test_lattice_refuses_m_before_listing_its_cells(self, params3, monkeypatch):
        # a 574 x 574 box lists 329,476 cells; an M above the budget is
        # refused before a single one is listed
        def fail(*args):
            raise AssertionError("the cells were listed")

        monkeypatch.setattr(montecarlo, "box_cells", fail)
        with pytest.raises(ValueError, match=r"^m must be <= 2097152, got 400000000 \("):
            estimate_lattice(params3, 574, 574, m=400_000_000, t_horizon=1, seed=0)

    def test_box_cells_are_row_major(self):
        assert box_cells(2, 3) == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]
        assert box_cells(1, 1) == [(1, 1)]

    def test_largest_admitted_cell_list_runs(self, params3, monkeypatch):
        monkeypatch.setattr(montecarlo, "_BYTES_PER_CELL", model._BUDGET // 5)
        cells = [(1, 1), (2, 1), (1, 2), (3, 3), (1, 4)]
        assert estimate_cells(params3, cells, m=10, t_horizon=5, seed=0).shape == (5,)
        with pytest.raises(ValueError, match=r"len\(cells\) must be <= 5, got 6 \("):
            estimate_cells(params3, [*cells, (2, 2)], m=10, t_horizon=5, seed=0)


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
        est = one_cell(params3, 1, 1, m=200, t_horizon=2000, seed=11)
        # Wald around p_hat, and the stop's bias on the upper side
        width = 1.96 * math.sqrt(est.p_hat * (1 - est.p_hat) / 200)
        assert est.stop_bound > 0.0
        assert est.ci_low == pytest.approx(max(0.0, est.p_hat - width), rel=1e-12)
        upper = min(1.0, est.p_hat + width + est.stop_bound)
        assert est.ci_high == pytest.approx(upper, rel=1e-12)
        assert 0.0 <= est.ci_low <= est.p_hat <= est.ci_high <= 1.0

    def test_reference_half_width(self):
        # the M=200 interval at p_hat = 1/2 is the widest possible
        assert 1.96 * math.sqrt(0.25 / 200) == pytest.approx(0.06929646455628166, rel=1e-15)

    def test_degenerate_flag(self, params3):
        # no path absorbed: the Wald interval collapses to [0, 0], and only
        # the stop's bias keeps the upper end above 0
        est = one_cell(params3, 40, 40, m=3, t_horizon=1, seed=5)
        assert est.p_hat == 0.0
        assert est.ci_low == 0.0
        assert est.ci_high == est.stop_bound > 0.0

    def test_horizon_monotone(self, params3):
        # longer horizons extend the same paths, so absorption flags only gain
        base = dict(i=2, j=3, m=300, seed=97)
        p_short = one_cell(params3, t_horizon=50, **base).p_hat
        p_long = one_cell(params3, t_horizon=2000, **base).p_hat
        assert p_short <= p_long

    def test_matches_law_of_large_numbers(self, params3, grid50):
        est = one_cell(params3, 1, 1, m=100_000, t_horizon=5000, seed=314)
        sigma = math.sqrt(est.p_hat * (1 - est.p_hat) / est.m)
        assert abs(est.p_hat - grid50.values[0, 0]) < 4 * sigma


class TestLattice:
    def test_matches_single_cell_bitwise(self, params3):
        lat = estimate_lattice(params3, 3, 2, m=150, t_horizon=800, seed=42)
        with start_cells(params3, [(3, 2)], m=150, t_horizon=800, seed=42) as finish:
            solo = finish()
        # every per-cell field is 1-D and aligned with cells, row-major for a box
        assert lat.cells == [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]
        assert solo.cells == [(3, 2)]
        for name in PER_CELL:
            assert getattr(lat, name).shape == (len(lat.cells),), name
            assert getattr(solo, name).shape == (len(solo.cells),), name
            assert getattr(lat, name)[5] == getattr(solo, name)[0], name
        assert lat.stop_bound == solo.stop_bound
        assert "cells" not in repr(solo)

    def test_any_list_matches_the_covering_box(self, params3):
        # duplicates, mirror pairs and cells out of order: every entry holds
        # the bits of its cell in the box, and estimate_cells, which returns
        # the bare array, is the p_hat of the same request
        cells = [(4, 1), (2, 3), (1, 1), (3, 2), (2, 3), (1, 4), (4, 1), (3, 3), (2, 1)]
        request = dict(m=70, t_horizon=400, seed=17)
        with start_cells(params3, cells, **request) as finish:
            est = finish()
        box = estimate_lattice(params3, 4, 4, **request)
        rows = [box.cells.index(cell) for cell in cells]
        assert est.cells == cells
        for name in PER_CELL:
            assert getattr(est, name).shape == (len(cells),), name
            assert getattr(est, name).tobytes() == getattr(box, name)[rows].tobytes(), name
        assert est.stop_bound == box.stop_bound
        p_hat = estimate_cells(params3, cells, **request)
        assert p_hat.tobytes() == est.p_hat.tobytes()

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
            solo = one_cell(params3, i, j, m=80, t_horizon=600, seed=13)
            assert p[k] == solo.p_hat

    def test_single_path_matches_scalar_reference(self, params3):
        # with M=1 step t reads the t-th uniform of the cell's stream, as the
        # scalar simulator does, and both stop the path at the level of M=1
        level = stop_level(params3, 1)
        for seed in range(40):
            for i, j in [(1, 1), (3, 2), (6, 9)]:
                est = one_cell(params3, i, j, m=1, t_horizon=50, seed=seed)
                key = canonical(i, j)
                ref = simulate_path(params3, key, 50, make_rng(seed, *key), level)
                assert est.p_hat == float(ref.absorbed)

    def test_stream_is_pinned(self, params3):
        # Absorbed, stopped and censored counts per cell, row-major, from the
        # PCG64 streams of _cell_stream read in the live-lane layout of
        # _run_share, at the stop level 18 of M=50; the literal was computed
        # by the scalar oracle simulate_cell, not by the kernel.  Every
        # invariance test above passes under any in-order bit generator and
        # layout, so only this literal notices a change of stream; a
        # deliberate change updates it and says so in CHANGES.md, since it
        # changes every Monte-Carlo output.  The rows with i > j repeat their
        # mirror rows, whose streams they read.
        golden = np.array(
            [
                [40, 10, 0], [30, 20, 0], [28, 22, 0], [27, 23, 0],
                [30, 20, 0], [19, 31, 0], [15, 35, 0], [9, 41, 0],
                [28, 22, 0], [15, 35, 0], [9, 41, 0], [8, 42, 0],
                [27, 23, 0], [9, 41, 0], [8, 42, 0], [8, 42, 0],
            ]
        )
        lat = estimate_lattice(params3, 4, 4, 50, 500, 20260816)
        fractions = np.stack([lat.p_hat, lat.stopped_frac, lat.censored_frac], axis=-1)
        assert np.array_equal(fractions.reshape(16, 3), golden / 50)

    def test_extent_validation(self, params3):
        with pytest.raises(ValueError):
            estimate_lattice(params3, 0, 3, m=10, t_horizon=10, seed=0)
        for extents, message in [
            ((0, 3), "i_max must be >= 1, got 0"),
            ((3, 0), "j_max must be >= 1, got 0"),
            ((-1, 2), "i_max must be >= 1, got -1"),
        ]:
            with pytest.raises(ValueError) as info:
                box_cells(*extents)
            assert str(info.value) == message

    @pytest.mark.parametrize("forked", [False, True])
    def test_every_entry_point_is_the_starter(self, params3, monkeypatch, forked):
        if forked:
            if not hasattr(os, "fork"):
                pytest.skip("needs os.fork")
            monkeypatch.setattr(montecarlo, "_POOL_MIN_PATHS", 0)
            monkeypatch.setattr(montecarlo, "_workers", lambda: 2)
        cells = [(2, 1), (1, 1), (3, 2), (1, 2), (2, 2)]
        args = (60, 300, 7)
        with start_cells(params3, cells, *args) as finish:
            listed = finish()
        with start_cells(params3, box_cells(3, 2), *args) as finish:
            boxed = finish()
        assert estimate_cells(params3, cells, *args).tobytes() == listed.p_hat.tobytes()
        lat = estimate_lattice(params3, 3, 2, *args)
        for name in PER_CELL:
            assert getattr(lat, name).tobytes() == getattr(boxed, name).tobytes()
        assert (lat.stop_bound, lat.cells) == (boxed.stop_bound, boxed.cells)

    def test_empty_cell_list_rejected(self, params3):
        with pytest.raises(ValueError):
            estimate_cells(params3, [], m=10, t_horizon=10, seed=0)


class TestMirror:
    # the walk treats the morphs alike, so p(i, j) = p(j, i), and each cell
    # reads the start state and stream of its canonical cell (min, max)
    def test_lattice_is_symmetric(self, params3):
        cells = [(i, j) for i in range(1, 6) for j in range(1, 6)]
        counts = path_counts(params3, cells, 40, 600, 3).reshape(5, 5, 3)
        assert np.array_equal(counts, counts.transpose(1, 0, 2))

    def test_point_runs_read_the_mirror(self, params3):
        a = one_cell(params3, 3, 2, m=80, t_horizon=600, seed=21)
        b = one_cell(params3, 2, 3, m=80, t_horizon=600, seed=21)
        lat = estimate_lattice(params3, 3, 3, m=80, t_horizon=600, seed=21)
        row = lat.cells.index((3, 2))
        for name in PER_CELL:
            assert getattr(a, name) == getattr(b, name) == getattr(lat, name)[row], name
        assert a.cells == [(3, 2)]

    def test_both_orders_in_one_list(self, params3):
        cells = [(5, 2), (1, 1), (2, 5), (4, 3), (3, 4), (5, 2)]
        counts = path_counts(params3, cells, 60, 500, 8)
        assert np.array_equal(counts[0], counts[2])
        assert np.array_equal(counts[3], counts[4])
        assert np.array_equal(counts[0], counts[5])
        assert np.all(counts.sum(axis=1) == 60)

    def test_lattice_opens_one_stream_per_unordered_cell(self, params3, monkeypatch):
        keys = []
        cell_stream = montecarlo._cell_stream

        def spy(seed, i, j):
            keys.append((i, j))
            return cell_stream(seed, i, j)

        monkeypatch.setattr(montecarlo, "_workers", lambda: 1)  # the log stays here
        monkeypatch.setattr(montecarlo, "_cell_stream", spy)
        n = 6
        estimate_lattice(params3, n, n, m=20, t_horizon=100, seed=5)
        assert len(keys) == len(set(keys)) == n * (n + 1) // 2
        assert all(i <= j for i, j in keys)


class TestOutcomes:
    def test_short_horizon_near_critical_is_censored(self, paramsc):
        m = 200
        est = one_cell(paramsc, 10, 10, m=m, t_horizon=100, seed=5)
        assert est.censored_frac > 0.0
        assert est.stopped_frac == 0.0  # the stop level 8299 is out of reach
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
        solo = one_cell(params3, 2, 3, m=m, t_horizon=2000, seed=3)
        row = lat.cells.index((2, 3))
        assert lat.stopped_frac[row] == solo.stopped_frac
        assert lat.censored_frac[row] == solo.censored_frac

    def test_start_in_exit_set_counts_as_stopped(self, params3):
        est = one_cell(params3, 36, 40, m=20, t_horizon=100, seed=1)
        assert est.stopped_frac == 1.0 and est.censored_frac == 0.0


def watch_banks(monkeypatch, view=np.ndarray) -> list[tuple[int, int, int]]:
    """Patch numpy's ``zeros`` to log each bank a share run in this process
    allocates, the kernel's one two-dimensional float array, as (depth,
    lanes, bytes tracemalloc traces once it exists), and to hand the kernel
    the bank as a ``view``; returns the log."""
    banks = []
    zeros = np.zeros

    def spy(shape, *args, **kwargs):
        out = zeros(shape, *args, **kwargs)
        if out.ndim != 2 or out.dtype != float:
            return out
        banks.append((*out.shape, tracemalloc.get_traced_memory()[0]))
        return out.view(view)

    monkeypatch.setattr(np, "zeros", spy)
    return banks


def watch_streams(monkeypatch) -> dict[str, int]:
    """Count the cell streams alive, "now" and at "most": a cell's stream
    lives from its admission to the window until the block after its last
    path ended.  A Generator cannot be weakly referenced, so each stream is
    wrapped in an object that counts itself."""
    held = {"now": 0, "most": 0}
    cell_stream = montecarlo._cell_stream

    class Held:
        def __init__(self, gen):
            self.gen = gen
            held["now"] += 1
            held["most"] = max(held["most"], held["now"])

        def __del__(self):
            held["now"] -= 1

        def random(self, out):
            return self.gen.random(out=out)

    monkeypatch.setattr(montecarlo, "_cell_stream", lambda *key: Held(cell_stream(*key)))
    return held


class TestRefill:
    @pytest.mark.parametrize(
        "r, cells",
        [
            (3.0, [(i, j) for i in range(1, 5) for j in range(1, 5)]),
            # stop level 2 at M=60: (2, 2) draws nothing, and every path of
            # (1, 4) ends within the first default refill
            (1000.0, [(2, 2), (1, 4)]),
        ],
    )
    def test_refill_size_invisible(self, monkeypatch, r, cells):
        # T = 500 is not a multiple of any refill size below.  A budget below
        # 120 paths holds one cell of 60 paths at a time in the window, which
        # then refills _BLOCK * budget // 60 steps at a time.
        params = ModelParams(r=r, d=2.0)
        a = path_counts(params, cells, m=60, t_horizon=500, seed=9)
        if r == 1000.0:
            first = path_counts(params, cells, m=60, t_horizon=montecarlo._BLOCK, seed=9)
            assert np.all(first[:, 2] == 0)  # nothing left running after one block
        banks = watch_banks(monkeypatch)
        for budget, depth in ((2, 1), (6, 3), (60, 32)):
            monkeypatch.setattr(montecarlo, "_PATH_BUDGET", budget)
            banks.clear()
            b = path_counts(params, cells, m=60, t_horizon=500, seed=9)
            assert {rows for rows, _, _ in banks} == {depth}
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "budget, m, n_cells",
        [
            (1024, 16, 300),  # over 64 cells in the window at a time
            (256, 1000, 1),  # M above the budget: fewer steps per bank
            (64, 10_000, 1),  # one row above the cap: one step per bank
        ],
    )
    def test_banks_stay_within_cap(self, params3, monkeypatch, budget, m, n_cells):
        # tracemalloc sees only this process, so the share runs in it
        monkeypatch.setattr(montecarlo, "_workers", lambda: 1)
        monkeypatch.setattr(montecarlo, "_PATH_BUDGET", budget)
        cells = [(1 + k % 20, 1 + k // 20) for k in range(n_cells)]
        with monkeypatch.context() as patch:
            held_cells = watch_streams(patch)
            expected = estimate_cells(params3, cells, m=m, t_horizon=100, seed=3)
        n = held_cells["most"]
        shares = []
        banks = watch_banks(monkeypatch)
        run_share = montecarlo._run_share

        def spy(*args):
            # the peak over the whole share: its bank, staging buffer, work
            # arrays, streams and counts
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            counts = run_share(*args)
            depth, lanes, after = banks.pop()
            peak = tracemalloc.get_traced_memory()[1] - before
            shares.append((depth, lanes, after - before, peak))
            return counts

        monkeypatch.setattr(montecarlo, "_run_share", spy)
        tracemalloc.start()
        try:
            p_hat = estimate_cells(params3, cells, m=m, t_horizon=100, seed=3)
        finally:
            tracemalloc.stop()
        assert np.array_equal(p_hat, expected)
        cap = 8 * max(montecarlo._BLOCK * budget, m)
        ((depth, lanes, bank, peak),) = shares
        # the bank holds at least one row of M; besides it: interpreter
        # frames and numpy's cache of small freed buffers
        assert m <= lanes <= max(budget, m)
        assert 8 * m <= 8 * depth * lanes <= bank <= cap + 16384
        # every cell in the window holds at least one running path
        assert 1 <= n <= lanes
        # beyond the bank and the staging buffer of depth rows of M: work
        # arrays (measured 44-55 B a lane), generator state (about 1.1 KiB
        # for each of the n cells the window held), and the same slack
        staging = 8 * depth * m
        assert 8 * m <= peak <= cap + staging + 64 * lanes + 1126 * n + 16384

    def test_window_streams_stay_at_the_cap(self, paramsc, monkeypatch):
        # at M = 1 a 32,768-lane window has room for all 8,256 canonical
        # cells of a 128 x 128 box, none of which starts in the exit set at
        # r = 2.002; it holds at most _WINDOW_CELLS of them, and so of their
        # streams, at once, and the cap does not show in the results
        monkeypatch.setattr(montecarlo, "_workers", lambda: 1)
        with monkeypatch.context() as patch:
            held = watch_streams(patch)
            capped = estimate_lattice(paramsc, 128, 128, m=1, t_horizon=40, seed=0)
        assert held["most"] == 8192
        monkeypatch.setattr(montecarlo, "_WINDOW_CELLS", 2**20)
        held = watch_streams(monkeypatch)
        uncapped = estimate_lattice(paramsc, 128, 128, m=1, t_horizon=40, seed=0)
        assert held["most"] == 8256
        for name in PER_CELL:
            assert np.array_equal(getattr(capped, name), getattr(uncapped, name))

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
    @pytest.mark.parametrize("r", [3.0, 2.002, 20.0])  # stop levels 15, 5995 and 3 at M=20
    # 13 ends inside the first block, 64 on a block boundary, 77 inside a block
    @pytest.mark.parametrize("t_horizon", [13, 50, 64, 77, 500])
    def test_kernel_matches_cell_oracle(self, monkeypatch, r, t_horizon):
        params = ModelParams(r=r, d=2.0)
        cells = [(1, 1), (2, 3), (4, 1), (3, 5)]
        m, seed = 20, 5
        expected = [
            list(simulate_cell(params, key, m, t_horizon, make_rng(seed, *key)).counts)
            for key in (canonical(i, j) for i, j in cells)
        ]
        # a budget below 40 paths holds one cell of 20 paths at a time,
        # refilling _BLOCK * budget // 20 steps at a time; a budget of 40 holds
        # two, so the third and fourth cells join a window whose first cells
        # are part-way through their horizon; the default budget runs the four
        # cells side by side
        banks = watch_banks(monkeypatch)
        budgets = ((1, 1), (2, 3), (20, 32), (40, 32), (montecarlo._PATH_BUDGET, 32))
        for budget, depth in budgets:
            monkeypatch.setattr(montecarlo, "_PATH_BUDGET", budget)
            banks.clear()
            counts = path_counts(params, cells, m, t_horizon, seed)
            assert {rows for rows, _, _ in banks} == {depth}
            assert counts.tolist() == expected, budget

    def test_draws_only_for_running_paths(self, params3, monkeypatch):
        # A path draws for every step of each block it starts running, so it
        # wastes at most the slots left in the block it ends in.  Drawing for
        # every path of a cell while any of them runs breaks this bound.
        # Only the 10 cells with i <= j of the 4 x 4 lattice draw.
        cells = [(i, j) for i in range(1, 5) for j in range(i, 5)]
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
    @needs_fork
    @pytest.mark.parametrize(
        "r, cells, t_horizon",
        [
            (3.0, [(i, j) for i in range(1, 7) for j in range(1, 7)], 5000),
            # near criticality nothing stops early and many paths are censored
            (2.002, [(k, k + 10) for k in range(10, 101, 10)], 400),
            # the stop level 6 of M=100 splits the box: the cells with
            # min(i, j) >= 6 are settled without a draw
            (9.0, [(i, j) for i in range(1, 9) for j in range(1, 9)], 500),
        ],
    )
    def test_results_independent_of_worker_count(self, monkeypatch, r, cells, t_horizon):
        params = ModelParams(r=r, d=2.0)
        monkeypatch.setattr(montecarlo, "_workers", lambda: 1)
        expected = path_counts(params, cells, 100, t_horizon, seed=11)
        monkeypatch.setattr(montecarlo, "_POOL_MIN_PATHS", 0)
        for budget in (montecarlo._PATH_BUDGET, 1000):  # 1000: cells join running windows
            monkeypatch.setattr(montecarlo, "_PATH_BUDGET", budget)
            for workers in (1, 2, 3):
                monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
                counts = path_counts(params, cells, 100, t_horizon, seed=11)
                assert np.array_equal(counts, expected)

    @needs_fork
    @pytest.mark.parametrize("m", [60, 700])  # 700 paths exceed a worker's share
    def test_windows_share_the_budget(self, params3, monkeypatch, tmp_path, m):
        budget, workers = 1000, 2
        monkeypatch.setattr(montecarlo, "_PATH_BUDGET", budget)
        monkeypatch.setattr(montecarlo, "_POOL_MIN_PATHS", 0)
        monkeypatch.setattr(montecarlo, "_workers", lambda: workers)
        # every refill views the bank as (steps, lanes in flight); each share
        # runs in a worker process, so it reports through a file
        lanes = []

        class Logged(np.ndarray):
            def reshape(self, *shape):
                if len(shape) == 2:
                    lanes.append(shape[1])
                return super().reshape(*shape)

        watch_banks(monkeypatch, Logged)
        run_share = montecarlo._run_share

        def spy(*args):
            counts = run_share(*args)
            (tmp_path / f"{os.getpid()}.txt").write_text(f"{len(args[-1])} {max(lanes)}")
            return counts

        monkeypatch.setattr(montecarlo, "_run_share", spy)
        cells = [(i, j) for i in range(1, 7) for j in range(1, 7)]
        estimate_cells(params3, cells, m=m, t_horizon=200, seed=4)
        shares = [tuple(map(int, log.read_text().split())) for log in tmp_path.glob("*.txt")]
        # the 21 cells with i <= j are simulated, dealt out in turn
        assert sorted(n for n, _ in shares) == [10, 11]
        for _, most in shares:
            assert m <= most <= max(budget // workers, m)

    @needs_fork
    @pytest.mark.parametrize(
        "cells, pool_min",
        [
            # 820 distinct cells hold 8200 paths, but only the 442 with
            # min(i, j) < 14, the stop level of M=10, draw: 4420 paths
            ([(i, j) for i in range(1, 41) for j in range(1, 41)], montecarlo._POOL_MIN_PATHS),
            # every cell starts in the exit set, so no path draws
            ([(i, j) for i in range(14, 20) for j in range(14, 20)], 0),
        ],
        ids=["few-live-paths", "no-live-cell"],
    )
    def test_workers_count_live_paths(self, params3, monkeypatch, cells, pool_min):
        import multiprocessing

        monkeypatch.setattr(montecarlo, "_workers", lambda: 1)
        expected = path_counts(params3, cells, 10, 200, seed=12)

        def no_process(*args, **kwargs):
            raise AssertionError("a worker process was started")

        context = multiprocessing.get_context("fork")
        monkeypatch.setattr(type(context), "Process", no_process)
        monkeypatch.setattr(montecarlo, "_POOL_MIN_PATHS", pool_min)
        monkeypatch.setattr(montecarlo, "_workers", lambda: 2)
        counts = path_counts(params3, cells, 10, 200, seed=12)
        assert np.array_equal(counts, expected)
        if pool_min == 0:
            assert np.all(counts == [0, 10, 0])

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

    def test_workers_hold_the_paths_within_the_budget(self, params3, monkeypatch):
        # a window holds at least M lanes, so an M that fills the budget runs
        # on one process however many CPUs there are
        cells = [(1, 1), (1, 2), (2, 2)]
        expected = estimate_cells(params3, cells, m=100, t_horizon=50, seed=8)

        def no_fork(*args, **kwargs):
            raise AssertionError("a worker was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(montecarlo, "_POOL_MIN_PATHS", 0)
        monkeypatch.setattr(montecarlo, "_workers", lambda: 3)
        monkeypatch.setattr(montecarlo, "_BYTES_PER_PATH", model._BUDGET // 100)
        assert np.array_equal(estimate_cells(params3, cells, m=100, t_horizon=50, seed=8), expected)

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
        assert first[5] == f"{lat.stopped_frac[0]:.12g}"
        assert first[6] == f"{lat.censored_frac[0]:.12g}"
        assert first[7] == "50" and first[8] == "400" and first[9] == "8"
        assert "\r" not in buf.getvalue()

    def test_estimate_keeps_its_own_cells(self, params3):
        # a caller that reuses its list relabels neither the estimate nor
        # its rows
        cells = [(1, 2), (3, 1)]
        with start_cells(params3, cells, m=20, t_horizon=50, seed=1) as finish:
            cells[0] = (4, 4)
            est = finish()
        cells[1] = (5, 5)
        assert est.cells == [(1, 2), (3, 1)]
        buf = io.StringIO()
        write_mc_csv(est, buf)
        rows = [line.split(",")[:2] for line in buf.getvalue().split("\n")[1:-1]]
        assert rows == [["1", "2"], ["3", "1"]]


class TestStopRule:
    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=1.0001, max_value=5.0),
        st.integers(1, 10**6),
        st.integers(0, 50),
        st.integers(0, 5000),
    )
    def test_level_is_smallest_settled_one(self, d, factor, m, extra_i, extra_j):
        params = ModelParams(r=d * factor, d=d)
        k = stop_level(params, m)
        bound = 1.0 / (10 * m)
        assert 2.0 * params.ratio**k <= bound
        assert k == 1 or 2.0 * params.ratio ** (k - 1) > bound
        assert extinction_bounds(params, k + extra_i, k + extra_j)[1] <= bound
        assert extinction_bounds(params, k + extra_j, k + extra_i)[1] <= bound

    def test_reference_levels(self, params3, paramsc):
        assert stop_level(params3, 200) == 21
        assert stop_level(params3, 1000) == 25
        assert stop_level(params3, 100_000) == 36
        assert stop_level(paramsc, 200) == 8299

    def test_underflowing_ratio_is_refused(self):
        # d/r = 1e-600 would round to 0; the rates are refused before any
        # level is taken, so every admitted ratio is a normal double
        with pytest.raises(ValueError, match=r"rates must lie in \[2\^-500, 2\^500\]"):
            ModelParams(r=1e300, d=1e-300)
        params = ModelParams(r=2.0**500, d=2.0**-500)
        assert stop_level(params, 10) == 1
        est = one_cell(params, 1, 1, m=10, t_horizon=100, seed=0)
        assert est.p_hat == 0.0 and est.stop_bound == 2.0**-999

    def test_start_in_exit_set_draws_nothing(self, params3):
        # a horizon this long would take minutes if the paths ran; the
        # interval keeps only the stop's bias
        k = stop_level(params3, 500)
        for i, j in [(k, k), (k, 5 * k)]:
            est = one_cell(params3, i, j, m=500, t_horizon=10**9, seed=4)
            assert est.p_hat == 0.0 and est.stopped_frac == 1.0
            assert est.ci_low == 0.0 and est.ci_high == est.stop_bound

    def test_level_past_two_to_the_32_still_ends_absorbed_paths(self):
        # r/d - 1 = 1.5e-9 puts the level above 2^32; an absorbed path must
        # still end on the axis instead of walking on from it
        params = ModelParams(2.000000003, 2.0)
        assert stop_level(params, 2000) > 2**32
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est = one_cell(params, 1, 1, m=2000, t_horizon=200, seed=1)
        assert est.p_hat >= 0.9
        assert est.censored_frac <= 0.1

    def test_stop_bound_reported(self, params3):
        expected = 2.0 * (2.0 / 3.0) ** 15  # the level at M=20
        est = one_cell(params3, 2, 2, m=20, t_horizon=100, seed=1)
        lat = estimate_lattice(params3, 2, 2, m=20, t_horizon=100, seed=1)
        assert est.stop_bound == lat.stop_bound == pytest.approx(expected, rel=1e-12)
        assert est.stop_bound <= 1.0 / (10 * 20)
