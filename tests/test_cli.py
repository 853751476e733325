import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import distyle
from distyle import cli, genfunc, grid, harness, model, montecarlo
from distyle.cli import main
from distyle.grid import solve_grid
from distyle.harness import ExperimentSpec, run_experiment, write_grid_csv, write_mc_csv
from distyle.model import ModelParams
from distyle.montecarlo import estimate_lattice


def run(argv):
    return main([str(a) for a in argv])


RATES = ["--r", 3, "--d", 2]
# the generating-function check alone: no Monte-Carlo, no convergence series
GENFUNC = ["experiment", *RATES, "--no-mc", "--no-convergence", "--genfunc"]


class TestGridCommand:
    def test_writes_csv(self, tmp_path, capsys):
        code = run(["grid", "--r", 3, "--d", 2, "--n", 6, "--out", tmp_path])
        assert code == 0
        err = capsys.readouterr().err
        assert "solved N=6 residual=" in err
        assert "closure: asymptotic" in err
        lines = (tmp_path / "grid_p.csv").read_text().splitlines()
        assert lines[0] == "i,j,p"
        assert len(lines) == 37
        sol = solve_grid(ModelParams(3.0, 2.0), 6)
        i, j, p = lines[1].split(",")
        assert (i, j) == ("1", "1")
        assert float(p) == pytest.approx(sol.values[0, 0], rel=1e-11)

    def test_stdout_by_default(self, capsys):
        assert run(["grid", "--r", 3, "--d", 2, "--n", 3]) == 0
        out = capsys.readouterr().out
        assert out.startswith("i,j,p\n")
        assert len(out.splitlines()) == 10

    def test_same_bytes_as_library(self, tmp_path, capsys):
        expected = io.StringIO()
        write_grid_csv(solve_grid(ModelParams(3.0, 2.0), 9), expected)
        assert run(["grid", "--r", 3, "--d", 2, "--n", 9, "--out", tmp_path]) == 0
        assert (tmp_path / "grid_p.csv").read_bytes() == expected.getvalue().encode()
        assert run(["grid", "--r", 3, "--d", 2, "--n", 9]) == 0
        assert capsys.readouterr().out == expected.getvalue()

    def test_rejects_empty_box(self, capsys):
        assert run(["grid", "--r", 3, "--d", 2, "--n", 0]) == 2
        captured = capsys.readouterr()
        assert "error: --n must be >= 1, got 0" in captured.err
        assert captured.out == ""


class TestMcCommand:
    def test_point_mode(self, tmp_path):
        code = run(
            ["mc", "--r", 3, "--d", 2, "--i", 1, "--j", 2,
             "--m", 40, "--t", 200, "--seed", 9, "--out", tmp_path]
        )
        assert code == 0
        lines = (tmp_path / "mc_p.csv").read_text().splitlines()
        assert lines[0] == "i,j,p_hat,ci_low,ci_high,stopped_frac,censored_frac,M,T,seed"
        cells = lines[1].split(",")
        assert cells[:2] == ["1", "2"]
        assert cells[7:] == ["40", "200", "9"]

    def test_lattice_mode(self, tmp_path):
        code = run(
            ["mc", "--r", 3, "--d", 2, "--imax", 3, "--jmax", 2,
             "--m", 20, "--t", 100, "--out", tmp_path]
        )
        assert code == 0
        lines = (tmp_path / "mc_p.csv").read_text().splitlines()
        assert len(lines) == 7

    def test_lattice_same_bytes_as_library(self, tmp_path):
        expected = io.StringIO()
        write_mc_csv(estimate_lattice(ModelParams(3.0, 2.0), 4, 3, 20, 100, 6), expected)
        code = run(
            ["mc", "--r", 3, "--d", 2, "--imax", 4, "--jmax", 3,
             "--m", 20, "--t", 100, "--seed", 6, "--out", tmp_path]
        )
        assert code == 0
        assert (tmp_path / "mc_p.csv").read_bytes() == expected.getvalue().encode()

    def test_point_row_is_the_lattice_row(self, tmp_path):
        common = ["--r", 3, "--d", 2, "--m", 40, "--t", 300, "--seed", 5]
        assert run(["mc", "--i", 3, "--j", 2, *common, "--out", tmp_path / "point"]) == 0
        assert run(["mc", "--imax", 3, "--jmax", 2, *common, "--out", tmp_path / "box"]) == 0
        assert run(["mc", "--i", 2, "--j", 3, *common, "--out", tmp_path / "mirror"]) == 0
        point = (tmp_path / "point" / "mc_p.csv").read_bytes().split(b"\n")
        box = (tmp_path / "box" / "mc_p.csv").read_bytes().split(b"\n")
        mirror = (tmp_path / "mirror" / "mc_p.csv").read_bytes().split(b"\n")
        assert point[0] == box[0]
        assert [row for row in box if row.startswith(b"3,2,")] == [point[1]]
        # the mirror cell reads the same paths
        assert mirror[1].split(b",")[2:] == point[1].split(b",")[2:]

    def test_seed_defaults_to_the_run_seed(self, tmp_path):
        common = ["mc", "--r", 3, "--d", 2, "--imax", 3, "--jmax", 2, "--m", 20, "--t", 100]
        assert run([*common, "--out", tmp_path / "default"]) == 0
        assert run([*common, "--seed", 20260816, "--out", tmp_path / "seeded"]) == 0
        default = (tmp_path / "default" / "mc_p.csv").read_bytes()
        assert default == (tmp_path / "seeded" / "mc_p.csv").read_bytes()

    def test_reports_the_stop_bound_of_a_run(self, tmp_path, capsys):
        spec = ExperimentSpec(r=3.0, d=2.0, grid_n=4, mc_m=30, mc_t=100, run_convergence=False)
        written = run_experiment(spec, tmp_path / "run")
        summary = dict(line.split(",") for line in
                       written["comparison_summary"].read_text().splitlines()[1:])
        assert run(["mc", "--r", 3, "--d", 2, "--i", 2, "--j", 1, "--m", 30, "--t", 100]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [f"M=30 stop_bound={summary['mc_stop_bound']}"]

    def test_incomplete_modes_rejected(self, capsys):
        assert run(["mc", "--r", 3, "--d", 2, "--imax", 3]) == 2
        assert run(["mc", "--r", 3, "--d", 2]) == 2
        assert run(["mc", "--r", 3, "--d", 2, "--i", 0, "--j", 4]) == 2
        # a point next to a lattice used to be dropped without a word
        assert run(["mc", "--r", 3, "--d", 2, "--i", 3, "--j", 2, "--imax", 2, "--jmax", 2]) == 2
        err = capsys.readouterr()
        assert err.err.count("error:") == 4
        assert err.out == ""

    @pytest.mark.parametrize(
        "cell,t,error",
        [
            # used to run on a wrapped int32 state and report 0.535 of the
            # paths stopped, which min(i, j) = 1 cannot do in 50 steps
            (["--i", 2**31 - 1, "--j", 1], 50,
             "--i + --j + --t must be <= 2^31 - 1, got 2147483647 + 1 + 50"),
            # used to fail in numpy with a text that named no flag
            (["--i", 2**31, "--j", 1], 50,
             "--i + --j + --t must be <= 2^31 - 1, got 2147483648 + 1 + 50"),
            (["--imax", 5, "--jmax", 5], 2**31 - 10,
             "--imax + --jmax + --t must be <= 2^31 - 1, got 5 + 5 + 2147483638"),
        ],
        ids=["i-wraps", "i-past-int32", "lattice-horizon"],
    )
    def test_state_beyond_int32_exits_2(self, tmp_path, capsys, cell, t, error):
        argv = ["mc", "--r", 2.002, "--d", 2, *cell, "--m", 200, "--t", t, "--out", tmp_path]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "mc_p.csv").exists()

    def test_cell_at_the_int32_bound_runs(self, tmp_path):
        # i + j + T = 2^31 - 1
        argv = ["mc", "--r", 2.002, "--d", 2, "--i", 2**31 - 52, "--j", 1, "--m", 200, "--t", 50]
        assert run([*argv, "--out", tmp_path]) == 0
        header, row = (tmp_path / "mc_p.csv").read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert (fields["i"], fields["stopped_frac"], fields["censored_frac"]) == (
            "2147483596", "0", "1",
        )

    def test_axis_cell_rejected(self, tmp_path, capsys):
        assert run(["mc", "--r", 3, "--d", 2, "--i", 0, "--j", 2, "--out", tmp_path]) == 2
        assert "error: --i must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "mc_p.csv").exists()


class TestCharacteristicsCommand:
    def test_curve_csv(self, tmp_path, capsys):
        code = run(
            ["characteristics", "--r", 3, "--d", 2,
             "--x0", 0.3, "--y0", 0.6, "--out", tmp_path]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "s0=" in err and "s_plus=" in err
        lines = (tmp_path / "characteristic.csv").read_text().splitlines()
        assert lines[0] == "s,x,y,integrating_factor"
        assert len(lines) == 201  # the header and 200 samples
        first = [float(v) for v in lines[1].split(",")]
        assert first == pytest.approx([0.0, 0.3, 0.6, 1.0])

    def test_start_next_to_an_axis(self, capsys):
        # Dx(0) is about 2.2e-15 here, which used to pass for a blow-up.  The
        # root's error estimate, 4 eps / ((r - d) (s - s0)) = 1.9e-8, supports
        # 7 significant digits of s_plus, which then lie within a unit of the
        # last printed digit of the 80-digit mpmath root 4.7140450893918011e-8;
        # s_minus keeps 12
        assert run(["characteristics", "--r", 3, "--d", 2, "--x0", 0.3, "--y0", 1e-15]) == 0
        fields = dict(kv.split("=") for kv in capsys.readouterr().err.split())
        mantissa, exponent = fields["s_plus"].split("e")
        unit = 10.0 ** (int(exponent) - len(mantissa.split(".")[1]))
        assert len(mantissa.replace(".", "")) == 7
        assert abs(float(fields["s_plus"]) - 4.7140450893918011e-8) <= unit
        assert fields["s_minus"] == "0.517394421181"

    def test_near_critical_corner_is_finite(self, tmp_path):
        # d s0 is about 2,400 here: e^(ds) used to overflow into NaN rows
        argv = ["characteristics", "--r", 2.002, "--d", 2, "--x0", 0.9999, "--y0", 0.9999]
        assert run([*argv, "--out", tmp_path]) == 0
        table = np.loadtxt(tmp_path / "characteristic.csv", delimiter=",", skiprows=1)
        assert np.isfinite(table).all()

    def test_large_ratio_curve_is_finite(self, tmp_path):
        # r/d = 3000: the blow-up search used to overflow expm1
        argv = ["characteristics", "--r", 3000, "--d", 1, "--x0", 0.3, "--y0", 0.6]
        assert run([*argv, "--out", tmp_path]) == 0
        table = np.loadtxt(tmp_path / "characteristic.csv", delimiter=",", skiprows=1)
        assert np.isfinite(table).all()

    def test_unresolvable_blow_up_time_exits_2(self, tmp_path, capsys):
        code = run(["characteristics", "--r", 3, "--d", 2, "--x0", 0.3, "--y0", 1e-30,
                    "--out", tmp_path])
        assert code == 2
        # no digit of the root: its relative error is about 0.6.  The text
        # used to print it as 1.51e-15
        assert capsys.readouterr().err == (
            "error: blow-up time s_plus lies too close to s0 = 6.67e-31 to resolve to 1e-6 "
            "(relative error up to 0.6): the start point is too near an axis\n"
        )
        assert not any(tmp_path.iterdir())


class TestCompareCommand:
    def test_two_grids(self, tmp_path, capsys):
        run(["grid", "--r", 3, "--d", 2, "--n", 8, "--out", tmp_path / "a"])
        run(["grid", "--r", 3, "--d", 2, "--n", 8, "--out", tmp_path / "b"])
        capsys.readouterr()
        code = run(
            ["compare", "--field-a", tmp_path / "a" / "grid_p.csv",
             "--field-b", tmp_path / "b" / "grid_p.csv", "--out", tmp_path]
        )
        assert code == 0
        assert "rqe_by_b=" in capsys.readouterr().err
        lines = (tmp_path / "comparison_stats.csv").read_text().splitlines()
        assert lines[0] == "metric,mean,st_dev,min,max"
        metrics = {line.split(",")[0] for line in lines[1:]}
        assert metrics == {"square_error", "absolute_error", "relative_error"}

    def test_stats_match_experiment(self, tmp_path, capsys):
        spec = ExperimentSpec(
            r=3.0, d=2.0, grid_n=8, mc_m=10, mc_t=300, seed=5, run_convergence=False
        )
        written = run_experiment(spec, tmp_path / "run")
        code = run(
            ["compare", "--field-a", written["mc"], "--field-b", written["grid"],
             "--out", tmp_path / "cli"]
        )
        assert code == 0
        # the command reads both fields back at 12 significant digits, so
        # its statistics agree with the experiment's to that rounding
        got = [line.split(",") for line in
               (tmp_path / "cli" / "comparison_stats.csv").read_text().splitlines()]
        want = [line.split(",") for line in
                written["comparison_stats"].read_text().splitlines()]
        assert [row[0] for row in got] == [row[0] for row in want]
        assert got[0] == want[0]
        for g, w in zip(got[1:], want[1:]):
            assert [float(v) for v in g[1:]] == pytest.approx(
                [float(v) for v in w[1:]], rel=1e-8
            )

    @pytest.mark.parametrize(
        "text,message",
        [
            ("i,j,p\n1,1,0.5\n1,2,0.25\n1,1,0.75\n", "bad.csv:4: duplicate row for (1, 1)"),
            ("i,j,p\n1,1,0.5\n1,2,inf\n", "bad.csv:3: value at (1, 2) is not finite"),
            ("i,j,p\n1,1,nan\n1,2,0.25\n", "bad.csv:2: value at (1, 1) is not finite"),
            ("i,j,p\n0,1,0.5\n1,1,0.5\n", "bad.csv:2: indices start at 1"),
            ("i,j,p\n1,1,0.5\n1,-1,0.5\n", "bad.csv:3: indices start at 1"),
            ("i,j,p\n1,1,0.5\n1,2\n", "bad.csv:3: expected integer i, j and a value"),
            ("", "bad.csv:1: expected a header row"),
            ("i,j,p\n1,1,0.5\n1,two,0.25\n", "bad.csv:3: expected integer i, j and a value"),
        ],
        ids=["duplicate", "inf", "nan", "zero-index", "negative-index",
             "two-fields", "empty-file", "non-integer-index"],
    )
    def test_rejects_malformed_field(self, tmp_path, capsys, text, message):
        good = tmp_path / "good.csv"
        good.write_text("i,j,p\n1,1,0.5\n1,2,0.25\n")
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert run(["compare", "--field-a", bad, "--field-b", good]) == 2
        assert message in capsys.readouterr().err
        assert run(["compare", "--field-a", good, "--field-b", good]) == 0

    @pytest.mark.parametrize("sub", [0, -1])
    def test_rejects_sub_below_one(self, tmp_path, capsys, sub):
        field = tmp_path / "field.csv"
        field.write_text("i,j,p\n1,1,0.5\n1,2,0.25\n")
        assert run(["compare", "--field-a", field, "--field-b", field, "--sub", sub]) == 2
        captured = capsys.readouterr()
        assert f"--sub must be >= 1, got {sub}" in captured.err
        assert captured.out == ""
        # refused before either file is opened
        missing = tmp_path / "nope.csv"
        assert run(["compare", "--field-a", missing, "--field-b", missing, "--sub", sub]) == 2
        assert capsys.readouterr().err == f"error: --sub must be >= 1, got {sub}\n"
        assert run(["compare", "--field-a", field, "--field-b", field, "--sub", 1]) == 0

    def test_missing_file(self, tmp_path, capsys):
        code = run(
            ["compare", "--field-a", tmp_path / "nope.csv",
             "--field-b", tmp_path / "nope.csv"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestExperimentCommand:
    def test_config_run(self, tmp_path, capsys):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text(
            "r = 3\nd = 2\ngrid_n = 6\nmc_m = 10\nmc_t = 100\n"
            "conv_min = 4\nconv_max = 8\nconv_reference = 8\nseed = 3\n"
        )
        code = run(["experiment", "--config", cfg, "--out", tmp_path / "run"])
        assert code == 0
        for name in ("manifest.txt", "grid_p.csv", "mc_p.csv", "nconv.csv"):
            assert (tmp_path / "run" / name).exists()
        err = capsys.readouterr().err.splitlines()
        assert f"grid -> {tmp_path / 'run' / 'grid_p.csv'}" in err

    def test_default_preset_is_supercritical(self, tmp_path):
        # without --preset the one supercritical run goes straight into --out
        code = run(["experiment", "--grid-n", 5, "--no-mc", "--no-convergence",
                    "--out", tmp_path])
        assert code == 0
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        assert "r = 3" in manifest and "grid_n = 5" in manifest
        assert sorted(p.name for p in tmp_path.iterdir()) == ["grid_p.csv", "manifest.txt"]

    def test_every_flag_reaches_the_manifest(self, tmp_path):
        code = run(
            ["experiment", "--preset", "supercritical", "--r", 2.5, "--d", 1.5,
             "--grid-n", 7, "--mc-m", 11,
             "--mc-t", 333, "--seed", 42, "--conv-min", 3,
             "--conv-max", 9, "--conv-reference", 8, "--genfunc-min", 0.2,
             "--genfunc-max", 0.4, "--genfunc-count", 3,
             "--no-mc", "--no-convergence", "--genfunc", "--out", tmp_path]
        )
        assert code == 0
        assert (tmp_path / "manifest.txt").read_text().splitlines() == [
            "r = 2.5",
            "d = 1.5",
            "grid_n = 7",
            "mc_m = 11",
            "mc_t = 333",
            "seed = 42",
            "run_mc = false",
            "run_convergence = false",
            "conv_min = 3",
            "conv_max = 9",
            "conv_reference = 8",
            "run_genfunc = true",
            "genfunc_min = 0.2",
            "genfunc_max = 0.4",
            "genfunc_count = 3",
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "genfunc.csv", "grid_p.csv", "manifest.txt"
        ]

    def test_genfunc_small_sweep(self, tmp_path):
        code = run(
            [*GENFUNC, "--grid-n", 12,
             "--genfunc-min", 0.2, "--genfunc-max", 0.3, "--genfunc-count", 2, "--out", tmp_path]
        )
        assert code == 0
        lines = (tmp_path / "genfunc.csv").read_text().splitlines()
        assert lines[0] == "x,y,P_quadrature,P_series,abs_diff"
        assert len(lines) == 5
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            assert np.isfinite(vals).all()
            assert vals[4] < 1e-2

    def test_genfunc_flags_write_the_config_bytes(self, tmp_path):
        cfg = tmp_path / "genfunc.cfg"
        cfg.write_text(
            "r = 3\nd = 2\ngrid_n = 12\nrun_mc = false\nrun_convergence = false\n"
            "run_genfunc = true\ngenfunc_min = 0.2\ngenfunc_max = 0.4\ngenfunc_count = 3\n"
        )
        assert run(["experiment", "--config", cfg, "--out", tmp_path / "cfg"]) == 0
        code = run(
            [*GENFUNC, "--grid-n", 12, "--genfunc-min", 0.2, "--genfunc-max", 0.4,
             "--genfunc-count", 3, "--out", tmp_path / "flags"]
        )
        assert code == 0
        want = (tmp_path / "cfg" / "genfunc.csv").read_bytes()
        assert (tmp_path / "flags" / "genfunc.csv").read_bytes() == want
        assert want.count(b"\n") == 10

    def test_tol_option_is_gone(self, capsys):
        # every grid is solved with the default options; the value-iteration
        # tolerance, the quadrature budget, the experiment solver and its
        # comparison corner are constants
        experiment = ["experiment", "--preset", "supercritical", "--out", "x"]
        for command, flag in [
            (["grid", "--r", 3, "--d", 2, "--n", 12], "--tol"),
            (experiment, "--tol"),
            (experiment, "--quad-tol"),
            (experiment, "--solver"),
            (experiment, "--sublattice"),
        ]:
            with pytest.raises(SystemExit) as info:
                run([*command, flag, "1"])
            assert info.value.code == 2
            assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_flags_beat_the_config_file(self, tmp_path):
        cfg = tmp_path / "spec.cfg"
        cfg.write_text("r = 3\nd = 2\ngrid_n = 5\nrun_mc = true\nrun_convergence = false\n")
        code = run(["experiment", "--config", cfg, "--grid-n", 6, "--no-mc",
                    "--out", tmp_path / "run"])
        assert code == 0
        manifest = (tmp_path / "run" / "manifest.txt").read_text().splitlines()
        assert "grid_n = 6" in manifest
        assert "run_mc = false" in manifest
        assert "r = 3" in manifest
        assert "run_convergence = false" in manifest

    @pytest.mark.parametrize("missing", ["r", "d"])
    def test_config_without_a_rate_exits_2(self, tmp_path, capsys, missing):
        # a config without r or d used to end in a TypeError traceback
        cfg = tmp_path / "c.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in
                               [("r", 3), ("d", 2), ("grid_n", 10)] if key != missing))
        out = tmp_path / "run"
        assert run(["experiment", "--config", cfg, "--out", out]) == 2
        assert f"error: {cfg}: missing key '{missing}'" in capsys.readouterr().err
        assert not out.exists()
        # a flag can give the rate the file leaves out
        flags = ["--no-mc", "--no-convergence", "--" + missing, {"r": 3, "d": 2}[missing]]
        assert run(["experiment", "--config", cfg, *flags, "--out", out]) == 0

    def test_unknown_choice_errors(self, capsys):
        for argv, message in [
            (["experiment", "--solver", "direct", "--out", "x"],
             "distyle: error: unrecognized arguments: --solver direct"),
            (["grid", "--r", 3, "--d", 2, "--n", 4, "--tol", 1e-12],
             "distyle: error: unrecognized arguments: --tol 1e-12"),
            (["experiment", "--preset", "supercritical", "--quad-tol", 1e-8, "--out", "x"],
             "distyle: error: unrecognized arguments: --quad-tol 1e-08"),
            (["grid", "--r", 3, "--d", 2, "--n", 4, "--method", "vi"],
             "distyle: error: unrecognized arguments: --method vi"),
            (["grid", "--r", 3, "--d", 2, "--n", 4, "--closure", "x"],
             "distyle grid: error: argument --closure: invalid choice: 'x' "
             "(choose from 'asymptotic', 'bounds-lower', 'bounds-upper')"),
            (["experiment", "--preset", "both", "--out", "x"],
             "distyle experiment: error: argument --preset: invalid choice: 'both' "
             "(choose from 'supercritical', 'near-critical')"),
            # the preset used to be dropped without a word
            (["experiment", "--preset", "near-critical", "--config", "F", "--out", "x"],
             "distyle experiment: error: argument --config: not allowed with argument --preset"),
            (["experiment", "--preset", "supercritical", "--config", "F", "--out", "x"],
             "distyle experiment: error: argument --config: not allowed with argument --preset"),
        ]:
            with pytest.raises(SystemExit) as info:
                run(argv)
            assert info.value.code == 2
            assert capsys.readouterr().err.splitlines()[-1] == message

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["experiment", "--preset", "supercritical", "--no-mc",
              "--conv-min", 30, "--conv-max", 20],
             "the convergence fit needs three N from --conv-min to --conv-max other than "
             "conv_reference, got 0 from 30 to 20 other than 50"),
            (["experiment", "--preset", "supercritical", "--no-mc",
              "--conv-min", 20, "--conv-max", 21, "--conv-reference", 50],
             "the convergence fit needs three N"),
            # a path of the box's far cell would leave the kernel's int32 state
            (["experiment", "--preset", "supercritical", "--mc-t", 2**31],
             "grid_n + grid_n + --mc-t must be <= 2^31 - 1, got 50 + 50 + 2147483648"),
            # a range refused by the flags that set it
            ([*GENFUNC, "--genfunc-min", 0.5, "--genfunc-max", 0.2],
             "need 0 < --genfunc-min <= --genfunc-max < 1 and --genfunc-min >= 1.4917e-154, "
             "got 0.5 and 0.2"),
            ([*GENFUNC, "--genfunc-min", 0.5, "--genfunc-max", 1.0],
             "need 0 < --genfunc-min <= --genfunc-max < 1 and --genfunc-min >= 1.4917e-154, "
             "got 0.5 and 1.0"),
            # x*y would not be a normal double
            ([*GENFUNC, "--genfunc-min", 1e-200],
             "need 0 < --genfunc-min <= genfunc_max < 1 and --genfunc-min >= 1.4917e-154, "
             "got 1e-200 and 0.5"),
            # refused by its flag before the grid is solved
            ([*GENFUNC, "--genfunc-max", 0.95],
             "--genfunc-max must be below 0.9124, got 0.95 (past it 200 terms leave the folded "
             "tail max(x, y)^201 above the 1e-08 quadrature budget)"),
        ],
        ids=["empty-convergence-range", "two-fit-points", "mc-state-int32",
             "genfunc-descending-range", "genfunc-range-reaches-1", "genfunc-range-below-normal",
             "genfunc-range-past-the-terms"],
    )
    def test_bad_spec_writes_nothing(self, tmp_path, capsys, monkeypatch, argv, message):
        _refuse_work(monkeypatch)
        out = tmp_path / "run"
        assert run([*argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config", "flag-next-to-config"])
    def test_box_above_the_budget_exits_2(self, tmp_path, capsys, monkeypatch, source):
        def fail(*args):
            raise AssertionError("a Monte-Carlo worker was started")

        monkeypatch.setattr(harness, "start_cells", fail)
        out = tmp_path / "run-big"
        if source == "flag":
            argv = ["--preset", "supercritical", "--grid-n", 575]
            where = "--grid-n"
        elif source == "flag-next-to-config":
            cfg = tmp_path / "small.cfg"
            cfg.write_text("r = 3\nd = 2\ngrid_n = 6\n")
            argv = ["--config", cfg, "--grid-n", 575]
            where = "--grid-n"
        else:
            cfg = tmp_path / "big.cfg"
            cfg.write_text("r = 3\nd = 2\ngrid_n = 575\n")
            argv = ["--config", cfg]
            where = f"{cfg}:3: grid_n"
        assert run(["experiment", *argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where} must be <= 574, got 575 (")
        assert "128 MiB" in err
        assert not out.exists()

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            run(["experiment", "--preset", "critical", "--out", "x"])

    def test_out_required(self):
        with pytest.raises(SystemExit):
            run(["experiment", "--preset", "supercritical"])


@pytest.mark.parametrize("count", [0, -1])
@pytest.mark.parametrize(
    "command,flag,error",
    [
        (["experiment", "--no-mc", "--no-convergence", "--genfunc", "--grid-n", 12],
         "--genfunc-count", "error: --genfunc-count must be >= 1, got {count}"),
        # a curve has a fixed number of samples
        (["characteristics", "--x0", 0.3, "--y0", 0.6], "--samples",
         "error: unrecognized arguments: --samples {count}"),
        (["mc", "--i", 1, "--j", 1], "--m", "error: --m must be >= 1, got {count}"),
        (["mc", "--imax", 2, "--jmax", 2], "--t", "error: --t must be >= 1, got {count}"),
        (["mc", "--j", 2], "--i", "error: --i must be >= 1, got {count}"),
        (["mc", "--i", 2], "--j", "error: --j must be >= 1, got {count}"),
        (["mc", "--jmax", 2], "--imax", "error: --imax must be >= 1, got {count}"),
        (["grid"], "--n", "error: --n must be >= 1, got {count}"),
        (["experiment", "--no-mc", "--no-convergence", "--genfunc"], "--grid-n",
         "error: --grid-n must be >= 1, got {count}"),
    ],
    ids=["genfunc-count", "characteristics-samples", "mc-m", "mc-t",
         "mc-i", "mc-j", "mc-imax", "grid-n", "genfunc-grid-n"],
)
def test_count_below_one_exits_2(tmp_path, capsys, command, flag, error, count):
    # a count of 0 used to write a header-only CSV and exit 0
    argv = [*command, "--r", 3, "--d", 2, flag, count, "--out", tmp_path]
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert error.format(count=count) in captured.err
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_u64_exits_2(tmp_path, capsys, monkeypatch, seed):
    # refused by its flag before a worker is forked or a path drawn
    _refuse_work(monkeypatch)
    argv = ["mc", "--r", 3, "--d", 2, "--i", 1, "--j", 1, "--seed", seed, "--out", tmp_path]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --seed must lie in [0, 2^64), got {seed}\n"
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


SCALE = "rates must lie in [2^-500, 2^500], got --r={}, --d={}; " \
    "p depends on d/r alone, so scale both by one factor"


@pytest.mark.parametrize(
    "rates,error",
    [
        ([2, 2], "need the supercritical regime --r > --d, got --r=2.0 <= --d=2.0"),
        ([2, 3], "need the supercritical regime --r > --d, got --r=2.0 <= --d=3.0"),
        ([3, 0], "rates must be positive, got --r=3.0, --d=0.0"),
        (["inf", 2], "rates must be finite, got --r=inf, --d=2.0"),
        # one float past either edge of the scale
        (["3.2733906078961426e+150", 2], SCALE.format("3.2733906078961426e+150", "2.0")),
        ([3, "3.0549363634996043e-151"], SCALE.format("3.0", "3.0549363634996043e-151")),
        # far past both edges, where the products overflow
        (["1e200", "2e199"], SCALE.format("1e+200", "2e+199")),
        (["1e308", "1e-308"], SCALE.format("1e+308", "1e-308")),
    ],
    ids=["r-equals-d", "r-below-d", "d-zero", "r-infinite", "r-above-2-500",
         "d-below-2-minus-500", "both-above-2-500", "both-past-the-edges"],
)
@pytest.mark.parametrize(
    "command",
    [
        ["grid", "--n", 5],
        ["mc", "--i", 1, "--j", 1],
        ["characteristics", "--x0", 0.3, "--y0", 0.6],
    ],
    ids=["grid", "mc", "characteristics"],
)
def test_rejects_bad_rates(tmp_path, capsys, monkeypatch, command, rates, error):
    # refused by the flags before any work and any file
    _refuse_work(monkeypatch)
    out = tmp_path / "out"
    assert run([*command, "--r", rates[0], "--d", rates[1], "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n"
    assert captured.out == ""
    assert not out.exists()


def test_rates_at_the_scale_edges_run(tmp_path):
    # d/r = 2^-1000: the first row is d/r times the one at d/r = 2^-400, where
    # the terms in (d/r)^2 lie below rounding too; deeper cells, of order
    # (d/r)^2, round to 0
    assert run(["grid", "--r", 2.0**500, "--d", 2.0**-500, "--n", 3, "--out", tmp_path]) == 0
    rows = (tmp_path / "grid_p.csv").read_text().splitlines()[1:]
    p = np.array([float(row.split(",")[2]) for row in rows]).reshape(3, 3)
    mild = solve_grid(ModelParams(2.0**200, 2.0**-200), 3).values
    assert p[0] == pytest.approx(mild[0] * 2.0**-600, rel=1e-11)
    assert np.all(p[1:, 1:] == 0.0)
    # the cells that underflow used to be written as -0
    assert not any(row.split(",")[2].startswith("-") for row in rows)
    assert not np.signbit(p).any()


def test_characteristics_point_outside_the_square_exits_2(tmp_path, capsys, monkeypatch):
    _refuse_work(monkeypatch)
    out = tmp_path / "out"
    argv = ["characteristics", "--r", 3, "--d", 2, "--x0", 1.5, "--y0", 0.5, "--out", out]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: (--x0, --y0) must lie in the open unit square, got (1.5, 0.5)\n"
    assert captured.out == ""
    assert not out.exists()


def test_characteristics_next_to_both_axes_exits_0(tmp_path, capsys):
    # x0 y0 = 1e-400 is no double, and s0 is a normal one all the same;
    # it used to come out 0 and be refused
    out = tmp_path / "out"
    argv = ["characteristics", "--r", 3, "--d", 2, "--x0", 1e-200, "--y0", 1e-200, "--out", out]
    assert run(argv) == 0
    assert capsys.readouterr().err.startswith("s0=3.33333333333e-201 s_plus=")
    assert (out / "characteristic.csv").exists()


@pytest.mark.parametrize("x0,y0,s0", [(0.5, 1e-323, "4.94e-324"), (1e-310, 0.5, "6.67e-311")])
def test_characteristics_arrival_time_underflow_exits_2(tmp_path, capsys, monkeypatch, x0, y0, s0):
    # within about 1e-308 of an axis s0 is no normal double: refused before
    # any curve is sampled, where the integrating factor or the blow-up
    # search failed
    def fail(*args):
        raise AssertionError("the curve was sampled")

    for name in ["critical_times", "eval_path", "integrating_factor"]:
        monkeypatch.setattr(cli, name, fail)
    out = tmp_path / "out"
    argv = ["characteristics", "--r", 3, "--d", 2, "--x0", x0, "--y0", y0, "--out", out]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: (--x0, --y0) lie too near an axis, got ({x0}, {y0}): the arrival time "
        f"s0 = {s0} underflows below the smallest normal double\n"
    )
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("config", [False, True])
@pytest.mark.parametrize(
    "flags,error",
    [
        (["--seed", -1], "--seed must lie in [0, 2^64), got -1"),
        (["--seed", 2**64], "--seed must lie in [0, 2^64), got 18446744073709551616"),
        (["--grid-n", 0], "--grid-n must be >= 1, got 0"),
        # a refusal that names several fields names each a flag set by its flag
        (["--no-mc", "--conv-min", 30, "--conv-max", 20],
         "the convergence fit needs three N from --conv-min to --conv-max other than "
         "conv_reference, got 0 from 30 to 20 other than 50"),
        (["--r", 2, "--d", 2],
         "need the supercritical regime --r > --d, got --r=2.0 <= --d=2.0"),
        (["--r", "3.2733906078961426e+150", "--d", 2],
         SCALE.format("3.2733906078961426e+150", "2.0")),
        (["--r", 3, "--d", "3.0549363634996043e-151"],
         SCALE.format("3.0", "3.0549363634996043e-151")),
        # a field written as name=value is named by its flag too
        (["--no-mc", "--conv-min", 20, "--conv-max", 21, "--conv-reference", 50],
         "the convergence fit needs three N from --conv-min to --conv-max other than "
         "--conv-reference, got 2 from 20 to 21 other than 50"),
        # conv_reference is the default's: a config file that set none of the
        # three is not named
        (["--no-mc", "--conv-min", 48, "--conv-max", 50],
         "the convergence fit needs three N from --conv-min to --conv-max other than "
         "conv_reference, got 2 from 48 to 50 other than 50"),
    ],
    ids=["seed-negative", "seed-2-64", "grid-n-0", "conv-range", "rates", "r-above-2-500",
         "d-below-2-minus-500", "conv-fit", "conv-fit-default-reference"],
)
def test_experiment_refusal_names_the_flag(tmp_path, capsys, monkeypatch, flags, error, config):
    # refused before any work and any file, by the flag, also when a config
    # file gives the other settings
    _refuse_work(monkeypatch)
    if config:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("r = 3\nd = 2\nseed = 4\ngrid_n = 6\n")
        source = ["--config", cfg]
    else:
        source = ["--preset", "supercritical"]
    out = tmp_path / "run"
    assert run(["experiment", *source, *flags, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("folder", ["d", "d=5, r"], ids=["d", "field-words"])
@pytest.mark.parametrize(
    "lines,flags,where,error",
    [
        ("", ["--d", 5], "", "need the supercritical regime r > --d, got r=3.0 <= --d=5.0"),
        ("conv_min = 20\nconv_max = 21\n", ["--conv-reference", 50], "",
         "the convergence fit needs three N from conv_min to conv_max other than "
         "--conv-reference, got 2 from 20 to 21 other than 50"),
        # a reversed range set by the file, or by the file and a flag
        ("conv_min = 30\nconv_max = 20\n", [], "",
         "the convergence fit needs three N from conv_min to conv_max other than "
         "conv_reference, got 0 from 30 to 20 other than 50"),
        ("conv_min = 30\n", ["--conv-max", 20], "",
         "the convergence fit needs three N from conv_min to --conv-max other than "
         "conv_reference, got 0 from 30 to 20 other than 50"),
        # a refusal of one key names its line
        ("grid_n = 10\ngrid_n = 20\n", [], ":4", "key 'grid_n' given twice"),
        ("grid_n = 0\n", [], ":3", "grid_n must be >= 1, got 0"),
        ("tol = 1e-12\n", [], ":3", "unknown key 'tol'"),
        # refused before any grid is solved
        ("grid_n = 20\nrun_mc = false\nrun_convergence = false\nrun_genfunc = true\n"
         "genfunc_min = 0.5\ngenfunc_max = 0.95\ngenfunc_count = 2\n", [], ":8",
         "genfunc_max must be below 0.9124, got 0.95 (past it 200 terms leave the folded "
         "tail max(x, y)^201 above the 1e-08 quadrature budget)"),
        # used to solve the grid and start the Monte-Carlo, then stop on s0 = 0
        ("grid_n = 10\nrun_genfunc = true\ngenfunc_min = 1e-300\n", [], "",
         "need 0 < genfunc_min <= genfunc_max < 1 and genfunc_min >= 1.4917e-154, "
         "got 1e-300 and 0.5"),
    ],
    ids=["rates", "conv-fit", "conv-range", "conv-range-mixed", "twice", "grid-n-0",
         "unknown-key", "genfunc-max", "genfunc-min"],
)
def test_experiment_refusal_keeps_the_config_path(
    tmp_path, capsys, monkeypatch, folder, lines, flags, where, error
):
    # a field the file set keeps its name, one a flag set is named by the
    # flag, and the path in front is kept verbatim, however its folders are
    # named
    _refuse_work(monkeypatch)
    cfg = tmp_path / folder / "exp.cfg"
    cfg.parent.mkdir()
    cfg.write_text(f"r = 3\nd = 2\n{lines}")
    out = tmp_path / "run"
    assert run(["experiment", "--config", cfg, *flags, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {cfg}{where}: {error}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["grid", "--r", 3, "--d", 2, "--n", 5, "--out", "{file}"],
        ["mc", "--r", 3, "--d", 2, "--i", 1, "--j", 1, "--m", 5, "--t", 10, "--out", "{file}/x"],
        ["compare", "--field-a", "{dir}", "--field-b", "{file}"],
        ["experiment", "--preset", "supercritical", "--no-mc", "--no-convergence",
         "--grid-n", 6, "--out", "{file}"],
    ],
    ids=["grid-out-is-a-file", "mc-out-below-a-file", "compare-field-is-a-dir",
         "experiment-out-is-a-file"],
)
def test_unusable_path_exits_2(tmp_path, capsys, command):
    # each OSError other than FileNotFoundError used to end in a traceback
    file = tmp_path / "taken"
    file.write_text("i,j,p\n1,1,0.5\n")
    argv = [str(a).format(file=file, dir=tmp_path) for a in command]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert file.read_text() == "i,j,p\n1,1,0.5\n"


@pytest.mark.parametrize(
    "command,flag",
    [(["grid", *RATES], "--n"), (GENFUNC, "--grid-n")],
    ids=["grid", "genfunc"],
)
def test_solve_above_the_budget_exits_2(tmp_path, capsys, monkeypatch, command, flag):
    # refused before any work: no Jacobi step, no system, no file
    def fail(*args):
        raise AssertionError("the box was solved")

    monkeypatch.setattr(grid, "_iterate", fail)
    monkeypatch.setattr(grid, "_fold", fail)
    out = tmp_path / "out"
    assert run([*command, flag, 575, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {flag} must be <= 574, got 575 "
        "(the largest box whose LU fits the 128 MiB budget)\n"
    )
    assert captured.out == ""
    assert not out.exists()


def _refuse_work(monkeypatch):
    """Make every kind of work the commands start fail the test."""

    def fail(*args, **kwargs):
        raise AssertionError("work started")

    for module, name in [
        (montecarlo, "_workers"),
        (montecarlo, "_run_share"),
        (grid, "_fold"),
        (genfunc, "eval_by_quadrature"),
        (cli, "make_path"),
    ]:
        monkeypatch.setattr(module, name, fail)


MC_POINT = ["mc", *RATES, "--i", 1, "--j", 1, "--t", 1, "--m"]


@pytest.mark.parametrize(
    "command,message",
    [
        ([*MC_POINT, 2_097_153], "--m must be <= 2097152, got 2097153 (at 64 bytes a path"),
        (["experiment", "--preset", "supercritical", "--mc-m", 2_097_153],
         "--mc-m must be <= 2097152, got 2097153 (at 64 bytes a path"),
        (["mc", *RATES, "--imax", 575, "--jmax", 2, "--m", 1, "--t", 1],
         "--imax must be <= 574, got 575 (the largest box"),
        (["mc", *RATES, "--imax", 2, "--jmax", 30_000, "--m", 1, "--t", 1],
         "--jmax must be <= 574, got 30000 (the largest box"),
        ([*GENFUNC, "--genfunc-count", 725],
         "--genfunc-count must be <= 724, got 725 (at 256 bytes a row"),
    ],
    ids=["mc-m", "experiment-mc-m", "mc-imax", "mc-jmax", "genfunc-count"],
)
def test_request_above_the_budget_exits_2(tmp_path, capsys, monkeypatch, command, message):
    # refused before any work: no worker forked, no path drawn, no box
    # solved, no quadrature, no file
    _refuse_work(monkeypatch)
    out = tmp_path / "out"
    assert run([*command, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.endswith(" the 128 MiB budget)\n")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def test_mc_m_above_the_budget_is_refused_before_the_cells(tmp_path, capsys, monkeypatch):
    # the largest box lists 329,476 cells; the M is refused by its flag first
    def fail(*args):
        raise AssertionError("the cells were listed")

    _refuse_work(monkeypatch)
    monkeypatch.setattr(cli, "box_cells", fail)
    out = tmp_path / "out"
    argv = ["mc", *RATES, "--imax", 574, "--jmax", 574, "--m", 400_000_000, "--t", 1]
    assert run([*argv, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --m must be <= 2097152, got 400000000 (")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "module,rate,command,largest",
    [
        (montecarlo, "_BYTES_PER_PATH", MC_POINT, 1000),
        (montecarlo, "_BYTES_PER_PATH",
         ["experiment", "--preset", "supercritical", "--grid-n", 4, "--no-convergence",
          "--mc-t", 1, "--mc-m"], 1000),
        (harness, "_BYTES_PER_ROW", [*GENFUNC, "--grid-n", 10, "--genfunc-count"], 3),
    ],
    ids=["mc-m", "experiment-mc-m", "genfunc-count"],
)
def test_largest_admitted_request_runs(tmp_path, capsys, monkeypatch, module, rate, command,
                                       largest):
    # the rate raised so that the budget admits a small request, and no more;
    # the generating-function table holds count^2 rows
    units = largest**2 if module is harness else largest
    monkeypatch.setattr(module, rate, model._BUDGET // units)
    out = tmp_path / "out"
    assert run([*command, largest, "--out", out]) == 0
    assert any(out.iterdir())
    capsys.readouterr()
    assert run([*command, largest + 1, "--out", tmp_path / "over"]) == 2
    assert f"must be <= {largest}, got {largest + 1} (" in capsys.readouterr().err
    assert not (tmp_path / "over").exists()


@pytest.mark.parametrize("extents", [(574, 1), (1, 574)])
def test_largest_admitted_lattice_runs(tmp_path, extents):
    # the largest box the grid solves, one step a path
    imax, jmax = extents
    out = tmp_path / "out"
    assert run(["mc", *RATES, "--imax", imax, "--jmax", jmax, "--m", 1, "--t", 1,
                "--out", out]) == 0
    assert len((out / "mc_p.csv").read_text().splitlines()) == 575


def test_solver_failures_exit_cleanly(tmp_path, capsys, monkeypatch):
    # a QuadratureError is a RuntimeError and used to end in a traceback
    monkeypatch.setattr(genfunc, "_MAX_PANELS", 2)
    monkeypatch.setattr(genfunc, "QUAD_TOL", 1e-18)
    code = run(
        [*GENFUNC, "--grid-n", 12, "--genfunc-min", 0.6, "--genfunc-max", 0.6,
         "--genfunc-count", 1, "--out", tmp_path / "run"]
    )
    assert code == 2
    assert "error: quadrature did not meet its budget" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_import_leaves_scipy_optimize_out(tmp_path):
    # scipy.optimize adds about 0.15 s to the import, and the blow-up times
    # that ``characteristics`` prints are found by bisection without it
    src = str(Path(distyle.__file__).resolve().parents[1])
    argv = ["characteristics", "--r", "3", "--d", "2", "--x0", "0.5", "--y0", "0.3",
            "--out", str(tmp_path)]
    code = (
        "import sys, distyle.cli; print('scipy.optimize' in sys.modules); "
        f"assert distyle.cli.main({argv!r}) == 0; print('scipy.optimize' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "False\nFalse\n"
    assert "s_plus=" in done.stderr


def _assert_csv_close(a: Path, b: Path, atol: float, rtol: float) -> None:
    """Two CSV files of one layout whose numbers differ by at most ``atol``
    or by at most ``rtol`` of the larger; every other field is equal."""
    rows_a, rows_b = a.read_text().splitlines(), b.read_text().splitlines()
    assert len(rows_a) == len(rows_b)
    for row_a, row_b in zip(rows_a, rows_b):
        for x, y in zip(row_a.split(","), row_b.split(","), strict=True):
            assert x == y or math.isclose(
                float(x), float(y), rel_tol=rtol, abs_tol=atol
            ), (a.name, x, y)


@pytest.mark.parametrize(
    "argv, same, close",
    [
        # Measured on an AVX-512 machine, the Monte-Carlo, grid, comparison
        # and manifest files keep their bytes; the quadrature's abs_diff
        # moves by up to 2.8e-16, the rounding-level rows of nconv.csv by
        # 3.2e-17 and the fit's intercept by 2.0e-6 (its slope by 9.8e-8)
        (
            ["experiment", "--preset", "supercritical", "--genfunc"],
            ["mc_p.csv", "grid_p.csv", "manifest.txt", "comparison_stats.csv",
             "comparison_summary.csv"],
            [("genfunc.csv", 1e-15, 0.0), ("nconv.csv", 1e-16, 0.0), ("nconv_fit.csv", 1e-5, 0.0)],
        ),
        # the near-critical LU: 373 to 708 of its 90,000 rows moved, by at
        # most 1.7e-12 relative; 1e-11 is one unit in the 12th significant
        # digit written
        (["grid", "--r", "2.002", "--d", "2", "--n", "300"], [], [("grid_p.csv", 0.0, 1e-11)]),
    ],
    ids=["experiment", "near-critical-grid"],
)
def test_outputs_under_other_cpu_kernels(tmp_path, argv, same, close):
    # the kernels another CPU would get, chosen for a child process: OpenBLAS
    # for a Prescott core and numpy without its AVX-512 loops
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    avx512 = [
        name for name in _multiarray_umath.__cpu_dispatch__
        if name == "X86_V4" or name.startswith("AVX512")
    ]
    src = str(Path(distyle.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    for name in ["OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES"]:
        env.pop(name, None)
    other = {**env, "OPENBLAS_CORETYPE": "Prescott", "NPY_DISABLE_CPU_FEATURES": " ".join(avx512)}
    runs = [
        subprocess.Popen(
            [sys.executable, "-m", "distyle", *argv, "--out", tmp_path / name],
            env=child, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        for name, child in [("here", env), ("other", other)]
    ]
    for child in runs:
        err = child.communicate(timeout=60)[1]
        assert child.returncode == 0, err
    here, other = tmp_path / "here", tmp_path / "other"
    assert sorted(path.name for path in other.iterdir()) == sorted(
        path.name for path in here.iterdir()
    )
    for name in same:
        assert (other / name).read_bytes() == (here / name).read_bytes(), name
    for name, atol, rtol in close:
        _assert_csv_close(here / name, other / name, atol, rtol)


def test_subcommand_required():
    with pytest.raises(SystemExit):
        main([])


def test_greens_is_an_unknown_command(capsys):
    # the generating-function check runs as `experiment --genfunc`
    with pytest.raises(SystemExit) as info:
        run(["greens", *RATES])
    assert info.value.code == 2
    assert "argument command: invalid choice: 'greens'" in capsys.readouterr().err
