"""Command line front end.

Every subcommand emits CSV through :func:`distyle.harness.write_csv` (comma
separated, header row, 12 significant digits, LF line endings) either to
stdout or, with ``--out DIR``, into that directory under a fixed file name.
Run ``distyle <command> --help`` for the flags of each command.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import characteristics, genfunc, harness
from .characteristics import _check_point, critical_times, eval_path, integrating_factor, make_path
from .grid import CLOSURES, DEFAULT_CLOSURE, _check_size, solve_grid
from .harness import OUTPUTS, write_csv, write_grid_csv, write_mc_csv
from .model import ModelParams, _check_count, _check_rates, _check_seed
from .montecarlo import _check_paths, _check_reach, box_cells, start_cells

# Points of the curve that ``characteristics`` writes, evenly spaced in
# time from the start to just short of the arrival s0.
_SAMPLES = 200


def _add_rates(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--r", type=float, required=True, help="birth rate (r > d)")
    parser.add_argument("--d", type=float, required=True, help="death rate (d > 0)")


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out", type=Path, default=None, help="output directory (default: stdout)"
    )


def _params(args) -> ModelParams:
    """The rates of ``--r`` and ``--d``, refused by their flags."""
    _check_rates("--r", args.r, "--d", args.d)
    return ModelParams(args.r, args.d)


def _check_counts(args, *names: str) -> None:
    """Reject a count flag below 1, naming the flag; an unset flag passes."""
    for name in names:
        if getattr(args, name) is not None:
            _check_count(f"--{name}", getattr(args, name))


def _output(args, filename: str):
    """Where a command writes its table: stdout, or ``--out DIR/filename``."""
    if args.out is None:
        return contextlib.nullcontext(sys.stdout)
    args.out.mkdir(parents=True, exist_ok=True)
    return open(args.out / filename, "w", newline="")


def _cmd_grid(args) -> int:
    params = _params(args)
    _check_size("--n", args.n)
    solution = solve_grid(params, args.n, closure=args.closure)
    with _output(args, OUTPUTS["grid"]) as fp:
        write_grid_csv(solution, fp)
    print(
        f"solved N={args.n} residual={solution.residual:.3e} closure: {solution.closure}",
        file=sys.stderr,
    )
    return 0


def _cmd_mc(args) -> int:
    params = _params(args)
    # each count, size and the seed is refused by its flag before the cells
    # are listed; the budget check refuses an --m below 1 too
    _check_counts(args, "t", "i", "j", "imax", "jmax")
    _check_seed("--seed", args.seed)
    _check_paths("--m", args.m)
    if args.imax is not None or args.jmax is not None:
        if args.i is not None or args.j is not None:
            raise ValueError("give either --i/--j (point mode) or --imax/--jmax (lattice mode)")
        if args.imax is None or args.jmax is None:
            raise ValueError("lattice mode needs both --imax and --jmax")
        # a lattice is at most the largest box `distyle grid` solves, so that
        # the two stay comparable
        for name in ("imax", "jmax"):
            _check_size(f"--{name}", getattr(args, name))
        _check_reach("--imax", args.imax, "--jmax", args.jmax, "--t", args.t)
        cells = box_cells(args.imax, args.jmax)
    elif args.i is None or args.j is None:
        raise ValueError("point mode needs --i and --j (or --imax/--jmax for a lattice)")
    else:
        _check_reach("--i", args.i, "--j", args.j, "--t", args.t)
        cells = [(args.i, args.j)]
    with start_cells(params, cells, args.m, args.t, args.seed) as finish:
        result = finish()
    with _output(args, OUTPUTS["mc"]) as fp:
        write_mc_csv(result, fp)
    print(f"M={result.m} stop_bound={result.stop_bound:.12g}", file=sys.stderr)
    return 0


def _cmd_greens(args) -> int:
    params = _params(args)
    _check_size("--n", args.n)
    genfunc._check_range("--min", args.min, "--max", args.max)
    genfunc._check_served("--max", args.max)
    harness._check_rows("--count", args.count)
    solution = solve_grid(params, args.n)
    table = harness.genfunc_table(solution, args.min, args.max, args.count)
    with _output(args, OUTPUTS["genfunc"]) as fp:
        write_csv(fp, *table)
    return 0


def _cmd_characteristics(args) -> int:
    params = _params(args)
    _check_point("--x0", args.x0, "--y0", args.y0)
    path = make_path(params, args.x0, args.y0)
    if path.s0 < np.finfo(float).tiny:  # within about 1e-308 of an axis: no curve to sample
        raise ValueError(
            f"(--x0, --y0) lie too near an axis, got ({args.x0}, {args.y0}): the arrival "
            f"time s0 = {path.s0:.3g} underflows below the smallest normal double"
        )
    s_plus, s_minus = critical_times(path)
    times = np.linspace(0.0, path.s0 * (1.0 - 1e-9), _SAMPLES)
    x, y = eval_path(path, times)
    factor = integrating_factor(path, times)
    with _output(args, "characteristic.csv") as fp:
        write_csv(fp, ["s", "x", "y", "integrating_factor"], zip(times, x, y, factor))
    errors = [characteristics._root_error(path, s) for s in (s_plus, s_minus)]
    # each blow-up time to the significant digits its error estimate supports, at most 12
    sp, sm = (min(12, math.floor(-math.log10(e))) for e in errors)
    print(
        f"s0={path.s0:.12g} s_plus={s_plus:.{sp}g} s_minus={s_minus:.{sm}g} "
        f"kappa={path.kappa:.12g}",
        file=sys.stderr,
    )
    return 0


def _read_field(path: Path) -> np.ndarray:
    """Load an ``i,j,value`` CSV (extra columns ignored) into a dense array.

    Indices start at 1, each (i, j) appears once and every value is finite.
    """
    values: dict[tuple[int, int], float] = {}
    with open(path, newline="") as fp:
        reader = csv.reader(fp)
        if next(reader, None) is None:
            raise ValueError(f"{path}:1: expected a header row, the file is empty")
        for line_no, row in enumerate(reader, 2):
            where = f"{path}:{line_no}"
            try:
                i, j, v = int(row[0]), int(row[1]), float(row[2])
            except (IndexError, ValueError):
                raise ValueError(f"{where}: expected integer i, j and a value, got {row}") from None
            if i < 1 or j < 1:
                raise ValueError(f"{where}: indices start at 1, got ({i}, {j})")
            if not math.isfinite(v):
                raise ValueError(f"{where}: value at ({i}, {j}) is not finite: {row[2]}")
            if (i, j) in values:
                raise ValueError(f"{where}: duplicate row for ({i}, {j})")
            values[i, j] = v
    if not values:
        raise ValueError(f"{path} holds no data rows")
    rows = max(i for i, _ in values)
    cols = max(j for _, j in values)
    if len(values) != rows * cols:
        raise ValueError(f"{path} does not cover the full {rows}x{cols} box")
    field = np.empty((rows, cols))
    for (i, j), v in values.items():
        field[i - 1, j - 1] = v
    return field


def _cmd_compare(args) -> int:
    _check_counts(args, "sub")
    a = _read_field(args.field_a)
    b = _read_field(args.field_b)
    report = harness.compare(a, b, sub=args.sub)
    with _output(args, OUTPUTS["comparison_stats"]) as fp:
        write_csv(fp, *harness.stats_table(report))
    print(
        f"cells_excluded={report.cells_excluded} "
        f"rqe_by_a={report.rqe_by_a:.12g} rqe_by_b={report.rqe_by_b:.12g}",
        file=sys.stderr,
    )
    return 0


def _cmd_experiment(args) -> int:
    # every flag stores into its ExperimentSpec field and defaults to None
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(harness.ExperimentSpec)
        if getattr(args, f.name, None) is not None
    }
    # a refusal names each field a flag set by that flag
    flags = {name: "--" + name.replace("_", "-") for name in overrides}
    if args.config is not None:
        spec = harness.load_spec(args.config, flags, **overrides)
    else:
        spec = harness.spec_from_preset(args.preset or "supercritical", flags, **overrides)
    written = harness.run_experiment(spec, args.out)
    for key, path in sorted(written.items()):
        print(f"{key} -> {path}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distyle",
        description="extinction probabilities of a two-morph flower population",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # mc's --m, --t and --seed and greens' --min, --max, --count and --n
    # default to the experiment's settings
    spec = {f.name: f.default for f in dataclasses.fields(harness.ExperimentSpec)}

    p = sub.add_parser("grid", help="solve the truncated recurrence on an NxN box")
    _add_rates(p)
    p.add_argument("--n", type=int, required=True, help="box size N")
    p.add_argument(
        "--closure",
        choices=list(CLOSURES),
        default=DEFAULT_CLOSURE,
    )
    _add_out(p)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("mc", help="Monte-Carlo absorption frequencies")
    _add_rates(p)
    p.add_argument("--i", type=int, default=None, help="initial pins (point mode)")
    p.add_argument("--j", type=int, default=None, help="initial thrums (point mode)")
    p.add_argument("--imax", type=int, default=None, help="lattice mode: sweep i = 1..imax")
    p.add_argument("--jmax", type=int, default=None, help="lattice mode: sweep j = 1..jmax")
    p.add_argument("--m", type=int, default=spec["mc_m"], help="paths per initial state")
    p.add_argument("--t", type=int, default=spec["mc_t"], help="time horizon")
    p.add_argument("--seed", type=int, default=spec["seed"], help="stream seed (u64)")
    _add_out(p)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("greens", help="generating function: quadrature vs series")
    _add_rates(p)
    p.add_argument("--min", type=float, default=spec["genfunc_min"], help="lowest x and y")
    p.add_argument("--max", type=float, default=spec["genfunc_max"], help="highest x and y")
    p.add_argument("--count", type=int, default=spec["genfunc_count"], help="points per axis")
    p.add_argument(
        "--n", type=int, default=spec["grid_n"], help="grid size for the series reference"
    )
    _add_out(p)
    p.set_defaults(func=_cmd_greens)

    p = sub.add_parser("characteristics", help="sample one characteristic curve")
    _add_rates(p)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--y0", type=float, required=True)
    _add_out(p)
    p.set_defaults(func=_cmd_characteristics)

    p = sub.add_parser("compare", help="compare two i,j,value CSV fields")
    p.add_argument("--field-a", type=Path, required=True)
    p.add_argument("--field-b", type=Path, required=True)
    p.add_argument("--sub", type=int, default=None, help="restrict to the sub-lattice 1..sub")
    _add_out(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("experiment", help="run a full reproducible pipeline")
    source = p.add_mutually_exclusive_group()
    # None, not the name, is the default: argparse tells a given value from the
    # default by identity, and would miss --preset supercritical next to --config
    source.add_argument(
        "--preset", choices=list(harness.PRESETS), default=None,
        help="named parameter set (default: supercritical)",
    )
    source.add_argument("--config", type=Path, default=None, help="key = value spec file")
    for name in ("r", "d", "grid_n", "mc_m", "mc_t", "seed",
                 "conv_min", "conv_max", "conv_reference"):
        p.add_argument("--" + name.replace("_", "-"), type=harness._FIELD_TYPES[name], default=None)
    p.add_argument("--no-mc", dest="run_mc", action="store_false", default=None)
    p.add_argument("--no-convergence", dest="run_convergence", action="store_false", default=None)
    p.add_argument(
        "--genfunc", dest="run_genfunc", action="store_true", default=None,
        help="add the quadrature cross-check",
    )
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError, genfunc.QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
