import dataclasses
import io
import math
import os

import numpy as np
import pytest

from distyle import genfunc, harness, montecarlo
from distyle.grid import Method, SolveOptions, solve_grid
from distyle.harness import (
    ExperimentSpec,
    compare,
    convergence_series,
    fit_log_slope,
    load_spec,
    run_experiment,
    spec_from_preset,
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
        for sub, cells in [(None, [1, 2, 3, 4, 7, 8, 9, 10]), (2, [1, 2, 7, 8]), (1, [1])]:
            rep = compare(a, b, sub=sub)
            stats = rep.stats["absolute_error"]
            assert (stats.mean, stats.min, stats.max) == (np.mean(cells), 1.0, max(cells)), sub
            assert rep.cells_excluded == len(cells), sub

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            compare(np.ones((0, 2)), np.ones((3, 3)))


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

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_log_slope(np.array([1, 2, 3]), np.array([1e-15, 1e-14, 0.5]))


class TestConvergenceSeries:
    def test_errors_shrink_toward_reference(self, params3):
        direct = SolveOptions(method=Method.DIRECT)
        reference = solve_grid(params3, 16, direct)
        series = convergence_series(params3, [6, 9, 12], reference.values, 5, {})
        ns = [n for n, _ in series]
        errs = [e for _, e in series]
        assert ns == [6, 9, 12]
        assert errs[0] > errs[1] > errs[2] > 0.0
        solved = {16: reference}
        assert convergence_series(params3, [16], reference.values, 5, solved) == [(16, 0.0)]


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
        ],
        ids=["int", "float", "bool", "twice", "tol", "quad_tol", "solver"],
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
            ("conv_min = 30\nconv_max = 20\n", {}, "", "need conv_min <= conv_max"),
            # the value that fails came from an override, not from the file,
            # and is refused by its own name alone
            ("grid_n = 5\n", {"grid_n": 0}, None, "grid_n must be >= 1, got 0"),
            # every count and seed refusal starts with its key
            ("seed = -1\n", {}, ":3", "seed must lie in [0, 2^64), got -1"),
            ("mc_m = 0\n", {}, ":3", "mc_m must be >= 1, got 0"),
        ],
        ids=["grid_n", "conv_range", "override", "seed", "mc_m"],
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
            (dict(sublattice=0), "sublattice must be >= 1"),
            (dict(seed=-1), "seed must lie in"),
            (dict(seed=2**64), "seed must lie in"),
            (dict(r=math.inf), "rates must be finite"),
            (dict(conv_min=0), "conv_min must be >= 1, got 0"),
            (dict(conv_min=30, conv_max=20), "conv_min <= conv_max"),
            (dict(conv_reference=0), "conv_reference must be >= 1, got 0"),
            (dict(conv_min=20, conv_max=22, conv_reference=21), "three N in 20..22"),
            (dict(run_genfunc=True, genfunc_min=0.0), "0 < genfunc_min"),
            (dict(run_genfunc=True, genfunc_min=0.6), "genfunc_min <= genfunc_max"),
            (dict(run_genfunc=True, genfunc_max=1.0), "genfunc_max < 1"),
            (dict(run_genfunc=True, genfunc_count=0), "genfunc_count must be >= 1, got 0"),
            (dict(grid_n=575), "grid_n must be <= 574, got 575"),
            (dict(conv_reference=575), "conv_reference must be <= 574, got 575"),
            (dict(conv_max=575), "conv_max must be <= 574, got 575"),
            (dict(mc_m=2_097_153), "mc_m must be <= 2097152, got 2097153"),
            (dict(run_genfunc=True, genfunc_count=725), "genfunc_count must be <= 724, got 725"),
        ],
    )
    def test_bad_spec_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message.replace("^", r"\^")):
            ExperimentSpec(**{"r": 3.0, "d": 2.0, **fields})

    def test_disabled_stage_skips_its_checks(self):
        ExperimentSpec(r=3.0, d=2.0, run_convergence=False, conv_min=30, conv_max=20)
        ExperimentSpec(r=3.0, d=2.0, run_convergence=False, conv_max=600, conv_reference=600)
        ExperimentSpec(r=3.0, d=2.0, genfunc_min=0.0, genfunc_count=0)
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
        sublattice=4,
        conv_min=4,
        conv_max=8,
        conv_reference=8,
        run_genfunc=True,
        genfunc_min=0.2,
        genfunc_max=0.4,
        genfunc_count=2,
    )


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

    def test_failed_stage_leaves_no_directory(self, tmp_path):
        # the genfunc stage raises after the grid is solved; the manifest and
        # grid_p.csv used to be written by then
        spec = ExperimentSpec(
            r=3.0,
            d=2.0,
            grid_n=20,
            run_mc=False,
            run_convergence=False,
            run_genfunc=True,
            genfunc_min=0.5,
            genfunc_max=0.95,
            genfunc_count=2,
        )
        with pytest.raises(genfunc.QuadratureError, match="folded tail above the budget"):
            run_experiment(spec, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_reused_directory_holds_one_run(self, tmp_path):
        # a run without the optional stages used to leave the earlier run's
        # mc_p.csv, comparison and nconv tables beside its own manifest
        out = tmp_path / "out"
        run_experiment(tiny_spec(), out)
        (out / "notes.txt").write_text("kept\n")
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        failing = dataclasses.replace(tiny_spec(), run_mc=False, genfunc_max=0.95)
        with pytest.raises(genfunc.QuadratureError):
            run_experiment(failing, out)
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
        methods = []
        solve = harness.solve_grid

        def recording(*args, **kwargs):
            solution = solve(*args, **kwargs)
            methods.append(solution.method)
            return solution

        monkeypatch.setattr(harness, "solve_grid", recording)
        spec = dataclasses.replace(tiny_spec(), conv_reference=9)
        run_experiment(spec, tmp_path / "out")
        # the main grid, the reference and one solve per N other than the
        # main grid's, each factored by the default
        assert len(methods) == 2 + spec.conv_max - spec.conv_min
        assert set(methods) == {Method.DIRECT}

    def test_stages_can_be_disabled(self, tmp_path):
        spec = ExperimentSpec(
            r=3.0, d=2.0, grid_n=6, run_mc=False, run_convergence=False
        )
        written = run_experiment(spec, tmp_path / "lean")
        assert set(written) == {"manifest", "grid"}
