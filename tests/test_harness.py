import dataclasses
import io
import math
import os
import re

import numpy as np
import pytest

from distyle import genfunc, harness, montecarlo
from distyle.grid import solve_grid
from distyle.harness import (
    ExperimentSpec,
    compare,
    convergence_series,
    fit_log_slope,
    load_spec,
    run_experiment,
    spec_from_preset,
)


GENFUNC_MAX = (
    "genfunc_max must be below 0.9124, got 0.95 (past it 200 terms leave the folded tail "
    "max(x, y)^201 above the 1e-08 quadrature budget)"
)
# a reversed range leaves the fit no N, and the fit's rule names all three
REVERSED = (
    "the convergence fit needs three N from conv_min to conv_max other than conv_reference, "
    "got 0 from 30 to 20 other than 50"
)


class TestCompare:
    def test_hand_example(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[1.0, 1.0], [3.0, 5.0]])
        rep = compare(a, b)
        # cellwise: squared and absolute differences 0, 1, 0, 1; relative
        # differences 0, 1, 0, 0.2
        for name in ("square_error", "absolute_error"):
            stats = rep.stats[name]
            assert (stats.mean, stats.min, stats.max) == (0.5, 0.0, 1.0), name
        relative = rep.stats["relative_error"]
        assert relative.mean == pytest.approx(0.3, rel=1e-12)
        assert (relative.min, relative.max) == (0.0, 1.0)
        assert rep.cells_excluded == 0
        assert rep.rqe_by_b == pytest.approx(np.sqrt(2.0 / 36.0), rel=1e-12)
        assert rep.rqe_by_a == pytest.approx(np.sqrt(2.0 / 30.0), rel=1e-12)
        # each summary is a named tuple (mean, st_dev, min, max), and its table
        # row spreads it after the metric's name
        assert rep.stats["square_error"] == (0.5, 0.5, 0.0, 1.0)
        header, rows = harness.stats_table(rep)
        assert header == ["metric", "mean", "st_dev", "min", "max"]
        assert rows[0] == ("square_error", 0.5, 0.5, 0.0, 1.0)

    def test_zero_cells_skipped_in_relative(self):
        a = np.array([[0.0, 1.0]])
        b = np.array([[1.0, 1.0]])
        rep = compare(a, b)
        assert rep.cells_excluded == 1
        # the skipped cell's relative difference would be 1
        relative = rep.stats["relative_error"]
        assert (relative.mean, relative.min, relative.max) == (0.0, 0.0, 0.0)
        # absolute stats still see every cell
        assert rep.stats["absolute_error"].max == 1.0

    def test_overlap_crop(self):
        # every cell of b differs from a by its own value, and no two alike
        a = np.zeros((3, 4))
        b = np.arange(1.0, 13.0).reshape(2, 6)
        overlap = [1, 2, 3, 4, 7, 8, 9, 10]
        # a sub-lattice above the 2x4 overlap crops nothing more
        for sub, cells in [(None, overlap), (5, overlap), (2, [1, 2, 7, 8]), (1, [1])]:
            # the field of more rows may come first or second
            for first, second in [(a, b), (b, a)]:
                rep = compare(first, second, sub=sub)
                stats = rep.stats["absolute_error"]
                assert (stats.mean, stats.min, stats.max) == (np.mean(cells), 1.0, max(cells)), sub
                assert rep.cells_excluded == len(cells), sub

    def test_empty_region_rejected(self):
        # an empty field, or a sub-lattice of side 0 or less
        for a, sub in [(np.ones((0, 2)), None), (np.ones((2, 2)), 0), (np.ones((2, 2)), -1)]:
            with pytest.raises(ValueError, match="^comparison region is empty$"):
                compare(a, np.ones((3, 3)), sub=sub)

    @pytest.mark.parametrize("sub", [True, False, 2.5, 10.0, "10"])
    def test_sub_that_is_no_integer_is_refused(self, sub):
        # sub=True used to compare the 1x1 corner, and sub=2.5 raised a
        # slicing TypeError
        with pytest.raises(ValueError, match=f"^sub must be an integer, got {sub}$"):
            compare(np.ones((3, 3)), np.ones((3, 3)), sub=sub)


class TestFit:
    def test_recovers_exact_decay(self):
        n = np.arange(10, 21)
        errors = np.exp(2.0 - 0.5 * n)
        fit = fit_log_slope(n, errors)
        assert fit.slope == pytest.approx(-0.5, rel=1e-10)
        assert fit.intercept == pytest.approx(2.0, rel=1e-8)
        assert fit.r_squared > 0.999999
        assert fit.n_used == 11

    def test_floor_filters_plateau(self):
        n = np.arange(5, 12)
        errors = np.exp(-n)
        errors[-2:] = 1e-15
        fit = fit_log_slope(n, errors)
        assert fit.n_used == 5
        assert fit.slope == pytest.approx(-1.0, rel=1e-9)

    def test_too_few_points_give_nan(self):
        # which errors clear the floor is known only once the boxes are
        # solved, so the fit reports NaN rather than failing the run late
        fit = fit_log_slope(np.array([1, 2, 3]), np.array([1e-15, 1e-14, 0.5]))
        assert all(math.isnan(value) for value in fit[:3])
        assert fit.n_used == 1

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_error_is_dropped(self, bad):
        # an inf used to be kept: log(inf) gave slope NaN with r^2 = 1 and a
        # RuntimeWarning from numpy
        n = np.arange(10, 16)
        errors = np.exp(2.0 - 0.5 * n)
        want = fit_log_slope(n[:-1], errors[:-1])
        errors[-1] = bad
        assert fit_log_slope(n, errors) == want
        fit = fit_log_slope(np.array([1, 2, 3]), np.array([1e-3, 1e-4, bad]))
        assert all(math.isnan(value) for value in fit[:3])
        assert fit.n_used == 2


class TestConvergenceSeries:
    def test_errors_shrink_toward_reference(self, params3):
        reference = solve_grid(params3, 16)
        series = convergence_series(params3, [6, 9, 12], reference.values, {})
        ns = [n for n, _ in series]
        errs = [e for _, e in series]
        assert ns == [6, 9, 12]
        assert errs[0] > errs[1] > errs[2] > 0.0
        # every box is compared on the run's corner, which crops N=12
        assert harness.SUBLATTICE == 10
        box = solve_grid(params3, 12).values
        assert errs[2] != compare(box, reference.values).rqe_by_b
        # the series' rqe is compare's, bit for bit, also where N < 10 crops
        # the corner further, and where a reference below 10 does
        for ref in (reference, solve_grid(params3, 7)):
            series = convergence_series(params3, ns, ref.values, {})
            assert [e for _, e in series] == [
                compare(solve_grid(params3, n).values, ref.values, sub=10).rqe_by_b for n in ns
            ]
        solved = {16: reference}
        assert convergence_series(params3, [16], reference.values, solved) == [(16, 0.0)]


class TestSpec:
    def test_presets(self):
        sup = spec_from_preset("supercritical")
        assert (sup.r, sup.d, sup.grid_n, sup.mc_t) == (3.0, 2.0, 50, 5000)
        near = spec_from_preset("near-critical")
        assert (near.r, near.d, near.grid_n) == (2.002, 2.0, 100)
        # near-critical absorption is diffusive, needs a much longer horizon
        assert near.mc_t == 200_000
        with pytest.raises(ValueError):
            spec_from_preset("subcritical")

    def test_preset_overrides(self):
        spec = spec_from_preset("supercritical", grid_n=12, run_mc=False)
        assert spec.grid_n == 12 and spec.run_mc is False
        # the names a refusal would show change no setting
        assert spec_from_preset("supercritical", {"grid_n": "--grid-n"}, grid_n=12,
                                run_mc=False) == spec
        # a box size that is no integer is refused by its name, not by the
        # solver once the run has started
        with pytest.raises(ValueError) as info:
            spec_from_preset("supercritical", grid_n=5.5)
        assert str(info.value) == "grid_n must be an integer, got 5.5"
        # a coordinate the quadrature cannot serve is refused by its name
        # alone, before any grid is solved
        with pytest.raises(ValueError) as info:
            spec_from_preset("supercritical", run_genfunc=True, genfunc_max=0.95)
        assert str(info.value) == GENFUNC_MAX

    def test_load_spec_roundtrip(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# comment line\n"
            "r = 3.0\n"
            "d = 2.0\n"
            "grid_n = 9\n"
            "run_mc = false\n"
            "seed = 77\n"
        )
        spec = load_spec(cfg)
        assert spec.grid_n == 9
        assert spec.run_mc is False
        assert spec.seed == 77
        spec2 = load_spec(cfg, grid_n=11)
        assert spec2.grid_n == 11

    @pytest.mark.parametrize(
        "line,message",
        [
            ("grid_n = x", "bad value for grid_n: invalid literal for int()"),
            ("genfunc_min = small", "bad value for genfunc_min: could not convert"),
            ("run_mc = maybe", "bad value for run_mc: cannot read 'maybe' as a boolean"),
            ("r = 4", "key 'r' given twice"),
            # the tolerances and the experiment solver are constants
            ("tol = 1e-12", "unknown key 'tol'"),
            ("quad_tol = 1e-08", "unknown key 'quad_tol'"),
            ("solver = direct", "unknown key 'solver'"),
            # so is the corner a run compares on
            ("sublattice = 10", "unknown key 'sublattice'"),
            # the names a refusal shows are no setting
            ("names = x", "unknown key 'names'"),
        ],
        ids=["int", "float", "bool", "twice", "tol", "quad_tol", "solver", "sublattice",
             "names"],
    )
    def test_load_spec_locates_bad_line(self, tmp_path, line, message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"r = 3\nd = 2\n{line}\nseed = 1\n")
        with pytest.raises(ValueError) as info:
            load_spec(cfg)
        assert str(info.value).startswith(f"{cfg}:3: ")
        assert message in str(info.value)

    @pytest.mark.parametrize(
        "lines,overrides,where,message",
        [
            # the message names the key on line 3
            ("grid_n = 0\nseed = 1\n", {}, ":3", "grid_n must be >= 1, got 0"),
            # the message names no key of its own
            ("conv_min = 30\nconv_max = 20\n", {}, "", REVERSED),
            # the value that fails came from an override, not from the file,
            # and is refused by its own name alone
            ("grid_n = 5\n", {"grid_n": 0}, None, "grid_n must be >= 1, got 0"),
            # every count and seed refusal starts with its key
            ("seed = -1\n", {}, ":3", "seed must lie in [0, 2^64), got -1"),
            ("run_genfunc = true\ngenfunc_max = 0.95\n", {}, ":4", GENFUNC_MAX),
            # a range refusal names both keys, and the file set one of them
            ("run_genfunc = true\ngenfunc_min = 1e-300\n", {}, "",
             "need 0 < genfunc_min <= genfunc_max < 1 and genfunc_min >= 1.4917e-154, "
             "got 1e-300 and 0.5"),
            ("mc_m = 0\n", {}, ":3", "mc_m must be >= 1, got 0"),
            # a refusal that names several keys is the file's when the file
            # set one of them; conv_reference is the default's
            ("conv_min = 30\n", {"conv_max": 20}, "", REVERSED),
            ("", {"conv_min": 30, "conv_max": 20}, None, REVERSED),
            # the file set none of the three refused values: no path
            ("", {"conv_min": 48, "conv_max": 50}, None,
             "the convergence fit needs three N from conv_min to conv_max other than "
             "conv_reference, got 2 from 48 to 50 other than 50"),
            # a conv_min the file set keeps the path, whatever the flags set
            ("conv_min = 48\n", {"conv_max": 50}, "",
             "the convergence fit needs three N from conv_min to conv_max other than "
             "conv_reference, got 2 from 48 to 50 other than 50"),
            # the range is the file's, the reference an override: the path stays
            ("conv_min = 20\nconv_max = 21\n", {"conv_reference": 50}, "",
             "the convergence fit needs three N from conv_min to conv_max other than "
             "conv_reference, got 2 from 20 to 21 other than 50"),
        ],
        ids=["grid_n", "conv_range", "override", "seed", "genfunc_max", "genfunc_min", "mc_m",
             "conv_range_mixed", "conv_range_override", "conv_fit_override",
             "conv_fit_file_min", "conv_fit_mixed"],
    )
    def test_load_spec_locates_range_error(self, tmp_path, lines, overrides, where, message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"r = 3\nd = 2\n{lines}")
        with pytest.raises(ValueError) as info:
            load_spec(cfg, **overrides)
        prefix = "" if where is None else f"{cfg}{where}: "
        assert str(info.value).startswith(f"{prefix}{message}")

    @pytest.mark.parametrize(
        "fields,message",
        [
            (dict(r=2.0), "supercritical regime"),
            (dict(d=0.0), "rates must be positive"),
            (dict(grid_n=0), "grid_n must be >= 1"),
            (dict(mc_m=0), "mc_m must be >= 1"),
            (dict(mc_t=0), "mc_t must be >= 1"),
            (dict(r=2.0**501), "rates must lie in"),
            (dict(seed=-1), "seed must lie in"),
            (dict(seed=2**64), "seed must lie in"),
            (dict(r=math.inf), "rates must be finite"),
            (dict(conv_min=0), "conv_min must be >= 1, got 0"),
            # refused by the fit's rule, which names conv_reference too
            (dict(conv_min=30, conv_max=20), "conv_reference, got 0 from 30 to 20"),
            (dict(conv_reference=0), "conv_reference must be >= 1, got 0"),
            (dict(conv_min=20, conv_max=22, conv_reference=21),
             "three N from conv_min to conv_max other than conv_reference, "
             "got 2 from 20 to 22 other than 21"),
            (dict(run_genfunc=True, genfunc_min=0.0), "0 < genfunc_min"),
            (dict(run_genfunc=True, genfunc_min=0.6), "genfunc_min <= genfunc_max"),
            (dict(run_genfunc=True, genfunc_max=1.0), "genfunc_max < 1"),
            (dict(run_genfunc=True, genfunc_count=0), "genfunc_count must be >= 1, got 0"),
            (dict(grid_n=575), "grid_n must be <= 574, got 575"),
            (dict(conv_reference=575), "conv_reference must be <= 574, got 575"),
            (dict(conv_max=575), "conv_max must be <= 574, got 575"),
            (dict(mc_m=2_097_153), "mc_m must be <= 2097152, got 2097153"),
            (dict(run_genfunc=True, genfunc_count=725), "genfunc_count must be <= 724, got 725"),
            (dict(run_genfunc=True, genfunc_max=0.95), "genfunc_max must be below 0.9124, got 0.95"),
            # a count or seed that is no integer
            (dict(grid_n=5.5), "grid_n must be an integer, got 5.5"),
            (dict(mc_t=100.0), "mc_t must be an integer, got 100.0"),
            (dict(seed=1.5), "seed must be an integer, got 1.5"),
            # a bool count, seed or rate, or a stage flag that is no bool, which
            # the manifest would write as a line that load_spec refuses
            (dict(grid_n=True), "grid_n must be an integer, got True"),
            (dict(mc_m=True), "mc_m must be an integer, got True"),
            (dict(mc_t=True), "mc_t must be an integer, got True"),
            (dict(seed=False), "seed must be an integer, got False"),
            (dict(conv_min=True), "conv_min must be an integer, got True"),
            (dict(r=True, d=0.5), "rates must be real numbers, got r=True, d=0.5"),
            (dict(d=np.True_), "rates must be real numbers, got r=3.0, d=True"),
            (dict(run_convergence=2), "run_convergence must be true or false, got 2"),
            (dict(run_mc=0), "run_mc must be true or false, got 0"),
            (dict(run_genfunc="yes"), "run_genfunc must be true or false, got yes"),
            (dict(run_mc=np.False_), "run_mc must be true or false, got False"),
            # an end of the convergence range that is no integer is refused by
            # a SpecError too, never a TypeError
            (dict(conv_max=5.5), "got 0 from 10 to 5.5 other than 50"),
            (dict(conv_max=55.5), "conv_max must be an integer, got 55.5"),
        ],
    )
    def test_bad_spec_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message.replace("^", r"\^")):
            ExperimentSpec(**{"r": 3.0, "d": 2.0, **fields})

    @pytest.mark.parametrize(
        "fields,named",
        [
            (dict(grid_n=0), ("grid_n",)),
            (dict(seed=1.5), ("seed",)),
            (dict(conv_max=575), ("conv_max",)),
            (dict(mc_m=2_097_153), ("mc_m",)),
            (dict(conv_min=30, conv_max=20), ("conv_min", "conv_max", "conv_reference")),
            (dict(conv_min=20, conv_max=22, conv_reference=21),
             ("conv_min", "conv_max", "conv_reference")),
            (dict(r=2.0), ("r", "d")),
            (dict(d=math.inf), ("r", "d")),
            (dict(r=2.0**501), ("r", "d")),
            (dict(run_genfunc=True, genfunc_min=0.6), ("genfunc_min", "genfunc_max")),
            (dict(run_genfunc=True, genfunc_max=0.95), ("genfunc_max",)),
            (dict(run_genfunc=True, genfunc_count=725), ("genfunc_count",)),
            (dict(grid_n=True), ("grid_n",)),
            (dict(r=True, d=0.5), ("r", "d")),
            (dict(run_convergence=2), ("run_convergence",)),
            (dict(mc_t=2**31), ("grid_n", "grid_n", "mc_t")),
        ],
        ids=["count", "seed", "size", "paths", "conv-order", "conv-fit", "rates",
             "rates-finite", "rates-scale", "genfunc-range", "genfunc-max", "genfunc-rows",
             "bool-count", "bool-rates", "flag", "mc-reach"],
    )
    def test_refusal_carries_the_fields_it_names(self, fields, named):
        spec = {"r": 3.0, "d": 2.0, **fields}
        with pytest.raises(harness.SpecError) as info:
            ExperimentSpec(**spec)
        assert info.value.fields == named
        text = str(info.value)
        # a name in ``names`` stands in for its own field, and for nothing else
        for field in named:
            with pytest.raises(harness.SpecError) as renamed:
                ExperimentSpec(**spec, names={field: "@"})
            assert "@" in str(renamed.value)
            assert str(renamed.value).replace("@", field) == text
        others = {f.name: "@" for f in dataclasses.fields(ExperimentSpec) if f.name not in named}
        with pytest.raises(harness.SpecError) as same:
            ExperimentSpec(**spec, names=others)
        assert str(same.value) == text

    def test_monte_carlo_state_stays_in_int32(self):
        # the box's far cell (grid_n, grid_n) and the horizon: a path moves
        # i + j by one a step, and the kernel holds it in int32
        top = 2**31 - 1 - 2 * 50
        ExperimentSpec(r=3.0, d=2.0, mc_t=top)
        with pytest.raises(harness.SpecError) as info:
            ExperimentSpec(r=3.0, d=2.0, mc_t=top + 1)
        assert str(info.value) == (
            "grid_n + grid_n + mc_t must be <= 2^31 - 1, got 50 + 50 + 2147483548"
        )
        ExperimentSpec(r=3.0, d=2.0, run_mc=False, mc_t=2**40)

    def test_rate_refusal_names_the_fields(self):
        with pytest.raises(ValueError) as info:
            ExperimentSpec(r=2.0, d=2.0)
        assert str(info.value) == "need the supercritical regime r > d, got r=2.0 <= d=2.0"

    def test_disabled_stage_skips_its_checks(self):
        ExperimentSpec(r=3.0, d=2.0, run_convergence=False, conv_min=30, conv_max=20)
        ExperimentSpec(r=3.0, d=2.0, run_convergence=False, conv_max=600, conv_reference=600)
        ExperimentSpec(r=3.0, d=2.0, genfunc_min=0.0, genfunc_count=0)
        ExperimentSpec(r=3.0, d=2.0, genfunc_max=0.95)
        ExperimentSpec(r=3.0, d=2.0, run_mc=False, mc_m=10**9, genfunc_count=10**6)
        # three fitted N besides the reference, which may lie outside the range
        ExperimentSpec(r=3.0, d=2.0, conv_min=20, conv_max=22, conv_reference=50)

    def test_load_spec_rejects_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid_m = 9\nr = 3\nd = 2\n")
        with pytest.raises(ValueError):
            load_spec(cfg)

    def test_load_spec_rejects_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("r = 3\nd = 2\njust words\n")
        with pytest.raises(ValueError):
            load_spec(cfg)


@pytest.mark.parametrize(
    "count,error",
    [
        (0, "count must be >= 1, got 0"),
        (-1, "count must be >= 1, got -1"),
        (True, "count must be an integer, got True"),
        (2.5, "count must be an integer, got 2.5"),
        (725, "count must be <= 724, got 725"),
    ],
)
def test_genfunc_table_refuses_bad_count(params3, monkeypatch, count, error):
    # 0 used to give a header-only table, True one point, 2.5 a TypeError and
    # -1 numpy's own message; the refusal comes before any query
    monkeypatch.setattr(genfunc, "query_from_grid", None)
    solution = solve_grid(params3, 8)
    with pytest.raises(ValueError, match=f"^{re.escape(error)}"):
        harness.genfunc_table(solution, 0.1, 0.5, count)


@pytest.mark.parametrize(
    "lo,hi,error",
    [
        (0.5, 0.1, "need 0 < lo <= hi < 1 and lo >= 1.4917e-154, got 0.5 and 0.1"),
        (0.5, 1.0, "need 0 < lo <= hi < 1 and lo >= 1.4917e-154, got 0.5 and 1.0"),
        (1e-200, 0.5, "need 0 < lo <= hi < 1 and lo >= 1.4917e-154, got 1e-200 and 0.5"),
        (0.1, 0.95, "hi must be below 0.9124, got 0.95 (past it 200 terms leave the folded "
         "tail max(x, y)^201 above the 1e-08 quadrature budget)"),
    ],
    ids=["descending", "reaches-1", "below-normal", "past-the-terms"],
)
def test_genfunc_table_refuses_bad_range(params3, monkeypatch, lo, hi, error):
    # a reversed range used to give a descending table, and hi = 0.95 to run
    # queries until a QuadratureError; the refusal comes before any query
    monkeypatch.setattr(genfunc, "query_from_grid", None)
    solution = solve_grid(params3, 8)
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        harness.genfunc_table(solution, lo, hi, 2)


class TestWriteCsv:
    def test_rows_match_fmt_of_each_cell(self):
        # one %-template per tuple of cell types writes what _fmt writes
        rows = [
            (1, 2, 0.5),
            (np.int64(3), np.float64(1 / 3), "name"),
            (float("nan"), float("inf"), -float("inf")),
            (-0.0, 1e16, 1e-5),
            (0.1 + 0.2, np.float64(-0.0), np.int64(-7)),
            (1, 2, 0.5),
            ["list", 4, np.float64(2.5e-300)],
        ]
        fp = io.StringIO()
        harness.write_csv(fp, ["a", "b", "c"], rows)
        want = "a,b,c\n" + "".join(",".join(map(harness._fmt, row)) + "\n" for row in rows)
        assert fp.getvalue() == want
        # and _fmt's rule itself: 12 significant digits for floats, str otherwise
        for cell in (cell for row in rows for cell in row):
            floating = isinstance(cell, (float, np.floating))
            assert harness._fmt(cell) == (f"{cell:.12g}" if floating else str(cell))

    def test_bool_cell_is_refused(self):
        with pytest.raises(TypeError):
            harness.write_csv(io.StringIO(), ["flag"], [(True,)])


def tiny_spec():
    return ExperimentSpec(
        r=3.0,
        d=2.0,
        grid_n=8,
        mc_m=10,
        mc_t=300,
        seed=5,
        conv_min=4,
        conv_max=8,
        conv_reference=8,
        run_genfunc=True,
        genfunc_min=0.2,
        genfunc_max=0.4,
        genfunc_count=2,
    )


def _fail_quadrature(monkeypatch):
    """Make the genfunc stage raise once the grid is solved."""

    def fail(params, query):
        raise genfunc.QuadratureError("broken quadrature", math.nan, math.nan)

    monkeypatch.setattr(genfunc, "eval_by_quadrature", fail)


class TestRunExperiment:
    def test_writes_full_file_set(self, tmp_path):
        written = run_experiment(tiny_spec(), tmp_path / "out")
        expected = {
            "manifest",
            "grid",
            "mc",
            "comparison_stats",
            "comparison_summary",
            "nconv",
            "nconv_fit",
            "genfunc",
        }
        assert set(written) == expected
        for path in written.values():
            assert path.exists() and path.stat().st_size > 0
        manifest = written["manifest"].read_text()
        assert "grid_n = 8" in manifest
        # the Monte-Carlo table covers the box, mirror cells alike, and the
        # stop's bias, below a tenth of a path, sits in every ci_high
        header, *rows = (line.split(",") for line in written["mc"].read_text().splitlines())
        assert header == "i,j,p_hat,ci_low,ci_high,stopped_frac,censored_frac,M,T,seed".split(",")
        cells = {(i, j): rest for i, j, *rest in rows}
        assert len(rows) == len(cells) == 8 * 8
        assert all(cells[j, i] == rest for (i, j), rest in cells.items())
        summary = dict(line.split(",") for line in
                       written["comparison_summary"].read_text().splitlines()[1:])
        bound = float(summary["mc_stop_bound"])
        assert 0.0 < bound <= 1.0 / (10 * 10)
        assert all(float(ci_high) >= min(1.0, float(p_hat) + bound)
                   for _, _, p_hat, _, ci_high, *_ in rows)

    def test_reruns_are_byte_identical(self, tmp_path):
        first = run_experiment(tiny_spec(), tmp_path / "a")
        second = run_experiment(tiny_spec(), tmp_path / "b")
        assert set(first) == set(second)
        for name in first:
            assert first[name].read_bytes() == second[name].read_bytes(), name

    def test_manifest_reads_back_as_its_spec(self, tmp_path):
        # 12 significant digits wrote r = 3 for the second spec
        specs = [tiny_spec(), dataclasses.replace(tiny_spec(), r=3.0000000000001)]
        for k, spec in enumerate(specs):
            first = run_experiment(spec, tmp_path / f"a{k}")
            again = load_spec(first["manifest"])
            assert again == spec
            second = run_experiment(again, tmp_path / f"b{k}")
            assert set(first) == set(second)
            for name in first:
                assert first[name].read_bytes() == second[name].read_bytes(), name

    def test_failed_stage_leaves_no_directory(self, tmp_path, monkeypatch):
        # the genfunc stage raises after the grid is solved; the manifest and
        # grid_p.csv used to be written by then
        _fail_quadrature(monkeypatch)
        spec = ExperimentSpec(
            r=3.0,
            d=2.0,
            grid_n=20,
            run_mc=False,
            run_convergence=False,
            run_genfunc=True,
            genfunc_min=0.5,
            genfunc_max=0.9,
            genfunc_count=2,
        )
        with pytest.raises(genfunc.QuadratureError, match="broken quadrature"):
            run_experiment(spec, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_reused_directory_holds_one_run(self, tmp_path, monkeypatch):
        # a run without the optional stages used to leave the earlier run's
        # mc_p.csv, comparison and nconv tables beside its own manifest
        out = tmp_path / "out"
        run_experiment(tiny_spec(), out)
        (out / "notes.txt").write_text("kept\n")
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        _fail_quadrature(monkeypatch)
        with pytest.raises(genfunc.QuadratureError):
            run_experiment(dataclasses.replace(tiny_spec(), run_mc=False), out)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        bare = dataclasses.replace(
            tiny_spec(), run_mc=False, run_convergence=False, run_genfunc=False
        )
        written = run_experiment(bare, out)
        assert set(written) == {"manifest", "grid"}
        assert sorted(path.name for path in out.iterdir()) == [
            "grid_p.csv",
            "manifest.txt",
            "notes.txt",
        ]
        assert (out / "notes.txt").read_text() == "kept\n"
        assert written["grid"].read_bytes() == before["grid_p.csv"]

    @pytest.mark.parametrize("run_mc", [False, True], ids=["no-mc", "mc"])
    @pytest.mark.parametrize("run_convergence", [False, True], ids=["no-conv", "conv"])
    @pytest.mark.parametrize("run_genfunc", [False, True], ids=["no-genfunc", "genfunc"])
    def test_stages_name_the_files_of_a_run(self, tmp_path, run_mc, run_convergence, run_genfunc):
        # each stage enters its own files; the run writes and returns those,
        # and deletes every other file of OUTPUTS that an earlier run left
        out = tmp_path / "out"
        run_experiment(tiny_spec(), out)
        (out / "notes.txt").write_text("kept\n")
        spec = dataclasses.replace(
            tiny_spec(), run_mc=run_mc, run_convergence=run_convergence, run_genfunc=run_genfunc
        )
        written = run_experiment(spec, out)
        stages = {
            "manifest": True,
            "grid": True,
            "nconv": run_convergence,
            "nconv_fit": run_convergence,
            "genfunc": run_genfunc,
            "mc": run_mc,
            "comparison_stats": run_mc,
            "comparison_summary": run_mc,
        }
        expected = {name for name, runs in stages.items() if runs}
        assert set(written) == expected
        assert all(written[name] == out / harness.OUTPUTS[name] for name in written)
        files = {harness.OUTPUTS[name] for name in expected}
        assert {path.name for path in out.iterdir()} == files | {"notes.txt"}
        assert (out / "notes.txt").read_text() == "kept\n"
        fresh = run_experiment(spec, tmp_path / "fresh")
        assert set(fresh) == expected
        for name in expected:
            assert written[name].read_bytes() == fresh[name].read_bytes(), name

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_stage_error_stops_the_workers(self, tmp_path, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(montecarlo, "_POOL_MIN_PATHS", 0)
        monkeypatch.setattr(montecarlo, "_workers", lambda: 2)
        running = []

        def broken(*args, **kwargs):
            running.append(len(multiprocessing.active_children()))
            raise RuntimeError("broken grid stage")

        monkeypatch.setattr(harness, "solve_grid", broken)
        # near criticality no path stops early, and a horizon this long keeps
        # the workers drawing for minutes unless they are stopped
        spec = dataclasses.replace(tiny_spec(), r=2.002, mc_t=10**9)
        with pytest.raises(RuntimeError, match="broken grid stage"):
            run_experiment(spec, tmp_path / "out")
        assert running == [2]
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "out").exists()

    def test_every_comparison_crops_through_one_corner(self, tmp_path, monkeypatch):
        calls = []
        corner = harness._corner

        def recording(a, b, sub):
            calls.append((a.shape, b.shape, sub))
            return corner(a, b, sub)

        monkeypatch.setattr(harness, "_corner", recording)
        spec = tiny_spec()
        run_experiment(spec, tmp_path / "out")
        box = (spec.grid_n, spec.grid_n)
        # each box of the series against the reference, the Monte-Carlo against
        # the grid on the whole box, then on the corner for the summary's rqe
        assert calls == [
            *(((n, n), box, harness.SUBLATTICE) for n in range(spec.conv_min, spec.conv_max + 1)),
            (box, box, None),
            (box, box, harness.SUBLATTICE),
        ]

    def test_summary_rqe_is_compare_on_the_corner(self, tmp_path, monkeypatch):
        # a box larger than the corner, so that the corner's rqe differs from
        # the whole box's; the Monte-Carlo is the reference of rqe_by_a
        calls = []
        original = harness.compare

        def recording(a, b, sub=None):
            calls.append((a, b, sub))
            return original(a, b, sub)

        monkeypatch.setattr(harness, "compare", recording)
        spec = dataclasses.replace(tiny_spec(), grid_n=12, run_genfunc=False)
        written = run_experiment(spec, tmp_path / "out")
        [(p_mc, grid, whole), (p_mc_corner, grid_corner, sub)] = calls
        assert (whole, sub) == (None, harness.SUBLATTICE)
        assert p_mc_corner is p_mc and grid_corner is grid
        corner, full = compare(p_mc, grid, harness.SUBLATTICE), compare(p_mc, grid)
        assert (corner.rqe_by_a, corner.rqe_by_b) != (full.rqe_by_a, full.rqe_by_b)
        m, g = p_mc[:10, :10], grid[:10, :10]
        assert corner.rqe_by_a == math.sqrt(((g - m) ** 2).sum() / (m * m).sum())
        assert corner.rqe_by_b == math.sqrt(((m - g) ** 2).sum() / (g * g).sum())
        summary = dict(line.split(",") for line in
                       written["comparison_summary"].read_text().splitlines()[1:])
        assert summary["rqe_sublattice_by_mc"] == harness._fmt(corner.rqe_by_a)
        assert summary["rqe_sublattice_by_grid"] == harness._fmt(corner.rqe_by_b)

    @pytest.mark.parametrize(
        "conv_min,conv_max,conv_reference",
        [(4, 8, 8), (4, 10, 7), (4, 8, 9), (9, 12, 8)],
        ids=["reference-at-max", "reference-inside", "reference-above", "reference-below"],
    )
    def test_fit_drops_the_reference_by_its_floor(
        self, tmp_path, params3, conv_min, conv_max, conv_reference
    ):
        # the reference's own row has rqe 0, below the fit's floor: the fit
        # of every row is the fit of the rows other than the reference
        spec = dataclasses.replace(
            tiny_spec(), run_mc=False, run_genfunc=False,
            conv_min=conv_min, conv_max=conv_max, conv_reference=conv_reference,
        )
        written = run_experiment(spec, tmp_path / "out")
        reference = solve_grid(params3, conv_reference).values
        series = convergence_series(params3, list(range(conv_min, conv_max + 1)), reference, {})
        ns, errors = np.array(series).T
        others = ns != conv_reference
        fit = fit_log_slope(ns[others], errors[others])
        assert fit.n_used == others.sum() == len(ns) - (conv_min <= conv_reference <= conv_max)
        rows = written["nconv_fit"].read_text().splitlines()
        assert rows[1] == ",".join(harness._fmt(x) for x in ("reference", *fit))

    def test_fit_of_too_few_points_writes_a_nan_row(self, tmp_path):
        # every error of the series lies at or below the fit's floor; the run
        # used to solve every box, then fail without writing a file
        spec = ExperimentSpec(r=20.0, d=2.0, run_mc=False, conv_min=40)
        written = run_experiment(spec, tmp_path / "out")
        assert written["nconv_fit"].read_text() == (
            "target,slope,intercept,r_squared,n_used\nreference,nan,nan,nan,0\n"
        )

    def test_convergence_solves_each_n_once(self, tmp_path, monkeypatch):
        calls = []
        solve = harness.solve_grid

        def counting(params, n, *args, **kwargs):
            calls.append(n)
            return solve(params, n, *args, **kwargs)

        monkeypatch.setattr(harness, "solve_grid", counting)
        spec = tiny_spec()
        written = run_experiment(spec, tmp_path / "out")
        # the main grid, which is also the reference, then one solve per
        # other N; the reference's own row compares it with itself
        assert calls == [spec.grid_n, *range(spec.conv_min, spec.conv_max)]
        assert written["nconv"].read_text().splitlines()[-1] == f"{spec.grid_n},0"

    def test_every_solve_uses_the_spec_options(self, tmp_path, monkeypatch):
        iterations = []
        solve = harness.solve_grid

        def recording(*args, **kwargs):
            solution = solve(*args, **kwargs)
            iterations.append(solution.iterations)
            return solution

        monkeypatch.setattr(harness, "solve_grid", recording)
        spec = dataclasses.replace(tiny_spec(), conv_reference=9)
        run_experiment(spec, tmp_path / "out")
        # the main grid, the reference and one solve per N other than the
        # main grid's, each factored by the default
        assert len(iterations) == 2 + spec.conv_max - spec.conv_min
        assert set(iterations) == {1}

    def test_stages_can_be_disabled(self, tmp_path):
        spec = ExperimentSpec(
            r=3.0, d=2.0, grid_n=6, run_mc=False, run_convergence=False
        )
        written = run_experiment(spec, tmp_path / "lean")
        assert set(written) == {"manifest", "grid"}
