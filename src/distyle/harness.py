"""Cross-method comparison and reproducible experiment runs.

Two probability fields (grid vs Monte-Carlo, or two grids of different
truncation) are compared cellwise through squared, absolute and relative
differences, plus the relative quadratic error

    rqe = sqrt( sum (a - b)^2 / sum b^2 )

over a chosen sub-lattice.  ``run_experiment`` wires the solvers together
for a parameter set, writes every table as CSV, and is deterministic: the
same spec writes byte-identical files.

This module owns all table output; the solver modules do no I/O.  Every
table goes through :func:`write_csv`: a header row, then one line per row
with each cell formatted by ``_fmt`` (12 significant digits for floats),
comma separated with LF line endings.  The command line writes the same
tables through the same functions.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from . import genfunc
from .grid import GridSolution, _check_size, solve_grid
from .model import ModelParams, _check_budget, _check_count, _check_seed
# estimate_lattice stays a name of this module: perfbench/tracing.py wraps it
from .montecarlo import McEstimate, _check_paths, box_cells, estimate_lattice, start_cells  # noqa: F401

# Bytes a row of genfunc_table holds until the table is written, about 200
# measured (tracemalloc, 6,400 rows); genfunc_count^2 rows must fit
# model._BUDGET, so at most 724 points a side.
_BYTES_PER_ROW = 256


def _check_range(low_name: str, low: float, high_name: str, high: float) -> None:
    """Reject a range of generating-function coordinates outside
    0 < low <= high < 1, naming both ends as the caller set them."""
    if not 0.0 < low <= high < 1.0:
        raise ValueError(f"need 0 < {low_name} <= {high_name} < 1, got {low} and {high}")


def _check_rows(name: str, count: int) -> None:
    """Reject a point count below 1 or one whose count^2 rows of
    :func:`genfunc_table` would not fit the budget."""
    _check_budget(
        name, count, lambda k: _BYTES_PER_ROW * k * k,
        f"at {_BYTES_PER_ROW} bytes a row of {name}^2, the most that fit",
    )


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    st_dev: float
    min: float
    max: float

    @classmethod
    def of(cls, values: np.ndarray) -> "SummaryStats":
        if values.size == 0:
            nan = float("nan")
            return cls(nan, nan, nan, nan)
        return cls(
            float(values.mean()),
            float(values.std()),
            float(values.min()),
            float(values.max()),
        )


@dataclass(frozen=True)
class ComparisonReport:
    cells_excluded: int
    stats: dict[str, SummaryStats]
    rqe_by_a: float
    rqe_by_b: float


def compare(a: np.ndarray, b: np.ndarray, sub: int | None = None) -> ComparisonReport:
    """Cellwise comparison of two fields sharing the origin cell (1, 1).

    Fields of different extent are compared on their overlap, further cropped
    to the square sub-lattice 1 <= i, j <= ``sub`` when given.  Relative
    differences use ``b`` as the reference and skip cells where either field
    vanishes (Monte-Carlo zeros would otherwise produce infinities); the
    skipped count is reported.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rows = min(a.shape[0], b.shape[0])
    cols = min(a.shape[1], b.shape[1])
    if sub is not None:
        rows, cols = min(rows, sub), min(cols, sub)
    if rows < 1 or cols < 1:
        raise ValueError("comparison region is empty")
    a = a[:rows, :cols]
    b = b[:rows, :cols]

    diff = a - b
    square = diff * diff
    absolute = np.abs(diff)
    included = (a != 0.0) & (b != 0.0)
    relative = absolute[included] / np.abs(b[included])

    def rqe(reference: np.ndarray) -> float:
        denom = float((reference * reference).sum())
        return math.sqrt(float(square.sum()) / denom) if denom > 0.0 else float("nan")

    return ComparisonReport(
        cells_excluded=int(included.size - included.sum()),
        stats={
            "square_error": SummaryStats.of(square.ravel()),
            "absolute_error": SummaryStats.of(absolute.ravel()),
            "relative_error": SummaryStats.of(relative),
        },
        rqe_by_a=rqe(a),
        rqe_by_b=rqe(b),
    )


class FitResult(NamedTuple):
    slope: float
    intercept: float
    r_squared: float
    n_used: int


def fit_log_slope(n_values: np.ndarray, errors: np.ndarray) -> FitResult:
    """Least-squares slope of log(error) against N, skipping values at or
    below 1e-12 (solver precision, not truncation, dominates there)."""
    n_values = np.asarray(n_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = errors > 1e-12
    if keep.sum() < 3:
        raise ValueError("need at least three points above the floor to fit")
    x, y = n_values[keep], np.log(errors[keep])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return FitResult(float(slope), float(intercept), r2, int(keep.sum()))


def convergence_series(
    params: ModelParams,
    n_values: list[int],
    reference: np.ndarray,
    sublattice: int,
    solved: dict[int, GridSolution],
) -> list[tuple[int, float]]:
    """Rows (N, rqe of the N-grid against ``reference`` on the sub-lattice),
    one for every N of ``n_values``, in that order.  An N-grid in ``solved``
    (keyed by N) is taken as it is; any other is solved by
    :func:`solve_grid`'s default."""
    rows = []
    for n in n_values:
        box = solved[n] if n in solved else solve_grid(params, n)
        rows.append((n, compare(box.values, reference, sub=sublattice).rqe_by_b))
    return rows


# ---------------------------------------------------------------------------
# experiment specification and runner


@dataclass(frozen=True)
class ExperimentSpec:
    """The settings of one run, as ``manifest.txt`` and a config file list
    them.  No solver or tolerance is among them: every grid is solved by
    the default of :func:`solve_grid`, as ``distyle grid`` and ``distyle
    greens`` solve it, and the quadrature keeps :data:`genfunc.QUAD_TOL`."""

    r: float
    d: float
    grid_n: int = 50
    mc_m: int = 200
    mc_t: int = 5000
    seed: int = 20260816
    sublattice: int = 10
    run_mc: bool = True
    run_convergence: bool = True
    conv_min: int = 10
    conv_max: int = 50
    conv_reference: int = 50
    run_genfunc: bool = False
    genfunc_min: float = 0.1
    genfunc_max: float = 0.5
    genfunc_count: int = 5

    def __post_init__(self) -> None:
        """Reject a spec the run would fail on, before it writes any file.

        The rates are checked by building ModelParams.
        """
        ModelParams(self.r, self.d)
        for name in ("grid_n", "mc_m", "mc_t", "sublattice"):
            _check_count(name, getattr(self, name))
        _check_seed("seed", self.seed)
        if self.run_convergence:
            for name in ("conv_min", "conv_reference"):
                _check_count(name, getattr(self, name))
            if self.conv_min > self.conv_max:
                raise ValueError(
                    f"need conv_min <= conv_max, got {self.conv_min} and {self.conv_max}"
                )
            ns = range(self.conv_min, self.conv_max + 1)
            fitted = len(ns) - (self.conv_reference in ns)
            if fitted < 3:
                raise ValueError(
                    f"the convergence fit needs three N in {self.conv_min}..{self.conv_max} "
                    f"other than conv_reference={self.conv_reference}, got {fitted}"
                )
        sizes = ("grid_n", "conv_reference", "conv_max") if self.run_convergence else ("grid_n",)
        for name in sizes:
            _check_size(name, getattr(self, name))
        if self.run_mc:
            _check_paths("mc_m", self.mc_m)
        if self.run_genfunc:
            _check_range("genfunc_min", self.genfunc_min, "genfunc_max", self.genfunc_max)
            _check_rows("genfunc_count", self.genfunc_count)


PRESETS: dict[str, dict] = {
    # comfortably supercritical rates: fast absorption, tight MC agreement
    "supercritical": dict(r=3.0, d=2.0, grid_n=50),
    # near-critical rates: slow mixing; absorption from deep cells happens on
    # the diffusive scale (i+j)^2 steps, so the horizon must be much longer
    # than in the supercritical run or censoring dominates the comparison
    "near-critical": dict(r=2.002, d=2.0, grid_n=100, mc_t=200_000),
}


def spec_from_preset(name: str, **overrides) -> ExperimentSpec:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}, choose from {sorted(PRESETS)}")
    merged = dict(PRESETS[name])
    merged.update(overrides)
    return ExperimentSpec(**merged)


_FIELD_TYPES = get_type_hints(ExperimentSpec)


def _coerce(name: str, raw: str):
    """A config value read as its field's type (int, float or bool)."""
    kind = _FIELD_TYPES[name]
    if kind is not bool:
        return kind(raw)
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"cannot read {raw!r} as a boolean")


def load_spec(path: Path, **overrides) -> ExperimentSpec:
    """Read a flat ``key = value`` config file; later overrides win.

    Recognised keys are exactly the ExperimentSpec fields, each given at
    most once; ``r`` and ``d`` are required unless an override gives them.
    A value its field's type cannot read fails with its ``path:line``, and
    so does a value the spec rejects when the message starts with its key,
    as every refusal of a count, a seed or a size does; a missing key and
    any other rejection of the spec carry the ``path``.  A refusal that
    starts with the key of an override is raised as the spec raised it:
    the caller set that value, not the file.
    Lines starting with ``#`` and blank lines are ignored.
    """
    values: dict = {}
    lines: dict[str, int] = {}
    for line_no, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{line_no}: key {key!r} given twice")
        try:
            values[key] = _coerce(key, raw.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: bad value for {key}: {exc}") from None
        lines[key] = line_no
    values.update(overrides)
    for f in dataclasses.fields(ExperimentSpec):
        if f.default is dataclasses.MISSING and f.name not in values:
            raise ValueError(f"{path}: missing key {f.name!r}")
    try:
        return ExperimentSpec(**values)
    except ValueError as exc:
        key = str(exc).split(" ", 1)[0]
        if key in overrides:
            raise
        where = f"{path}:{lines[key]}" if key in lines else path
        raise ValueError(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# tables


def _spec(kind: type) -> str:
    """The %-format of a table cell of type ``kind``: floats to 12
    significant digits, anything else by ``str``.  A bool has none."""
    if issubclass(kind, (bool, np.bool_)):
        raise TypeError("a bool is written as true/false, which no %-format gives")
    return "%.12g" if issubclass(kind, (float, np.floating)) else "%s"


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return _spec(type(value)) % (value,)


def write_csv(fp, header: list[str], rows) -> None:
    """The header row, then one line per row with every cell as ``_fmt``
    writes it, through one %-template per tuple of cell types.  Tables hold
    numbers and strings; a bool cell raises TypeError."""
    fp.write(",".join(header) + "\n")
    templates: dict[tuple, str] = {}
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join(map(_spec, kinds)) + "\n"
        fp.write(template % row)


def write_grid_csv(solution: GridSolution, fp) -> None:
    """Rows ``i,j,p`` over the solved box."""
    rows = (
        (i, j, p)
        for i, row in enumerate(solution.values.tolist(), 1)
        for j, p in enumerate(row, 1)
    )
    write_csv(fp, ["i", "j", "p"], rows)


def write_mc_csv(estimate: McEstimate, fp) -> None:
    """Rows ``i,j,p_hat,ci_low,ci_high,stopped_frac,censored_frac,M,T,seed``,
    one per estimated cell."""
    names = ["p_hat", "ci_low", "ci_high", "stopped_frac", "censored_frac"]
    tail = (estimate.m, estimate.t_horizon, estimate.seed)
    columns = (getattr(estimate, name).tolist() for name in names)
    rows = ((*cell, *values, *tail) for cell, *values in zip(estimate.cells, *columns))
    write_csv(fp, ["i", "j", *names, "M", "T", "seed"], rows)


def stats_table(report: ComparisonReport) -> tuple[list[str], list[tuple]]:
    """Header and rows of the summary statistics of each error measure."""
    rows = [(name, s.mean, s.st_dev, s.min, s.max) for name, s in report.stats.items()]
    return ["metric", "mean", "st_dev", "min", "max"], rows


def genfunc_table(
    solution: GridSolution, lo: float, hi: float, count: int
) -> tuple[list[str], list[tuple]]:
    """Header and rows of the quadrature-vs-series check of the generating
    function at every point (x, y) with both coordinates from
    ``linspace(lo, hi, count)``."""
    points = np.linspace(lo, hi, count)
    rows = []
    for x0 in points:
        for y0 in points:
            query = genfunc.query_from_grid(solution, float(x0), float(y0))
            quad = genfunc.eval_by_quadrature(solution.params, query)
            series = genfunc.eval_from_grid(solution, float(x0), float(y0))
            rows.append((x0, y0, quad, series.value, abs(quad - series.value)))
    return ["x", "y", "P_quadrature", "P_series", "abs_diff"], rows


# Every file a run may write, under the name run_experiment returns it by;
# the command line writes its tables under the same file names.
OUTPUTS = {
    "manifest": "manifest.txt",
    "grid": "grid_p.csv",
    "mc": "mc_p.csv",
    "nconv": "nconv.csv",
    "nconv_fit": "nconv_fit.csv",
    "genfunc": "genfunc.csv",
    "comparison_stats": "comparison_stats.csv",
    "comparison_summary": "comparison_summary.csv",
}


def run_experiment(spec: ExperimentSpec, out_dir: Path) -> dict[str, Path]:
    """Execute the requested pipeline and write its tables under ``out_dir``.

    Always writes the solved grid and a manifest of the resolved spec; the
    Monte-Carlo table, comparison summaries, truncation-convergence series
    with its fitted decay slope, and the generating-function cross-check are
    optional stages.  They run in this order: the Monte-Carlo workers are
    forked first and draw while this process solves the grid, runs the
    convergence series (each box solved once: the series is handed the main
    grid and the reference as already solved) and the quadrature; then the
    Monte-Carlo counts are collected and compared with the grid.  Every
    stage runs before ``out_dir`` is created, so a stage that raises leaves
    no partial run behind, and no worker process either.  Once every stage
    has succeeded, the files of :data:`OUTPUTS` that this run does not
    write are deleted from ``out_dir``, so a reused directory holds one run
    only; no other file there is touched.  Output is a name -> path map.
    """
    manifest = []
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        text = _fmt(value)
        if isinstance(value, float) and float(text) != value:
            text = repr(value)  # 12 digits would read back as another spec
        manifest.append(f"{f.name} = {text}\n")

    params = ModelParams(spec.r, spec.d)
    tables: dict[str, tuple] = {}  # name -> (header, rows)
    drawing = (
        start_cells(params, box_cells(spec.grid_n, spec.grid_n), spec.mc_m, spec.mc_t, spec.seed)
        if spec.run_mc
        else contextlib.nullcontext()
    )
    with drawing as finish_mc:
        solution = solve_grid(params, spec.grid_n)

        if spec.run_convergence:
            solved = {spec.grid_n: solution}
            if spec.conv_reference not in solved:
                solved[spec.conv_reference] = solve_grid(params, spec.conv_reference)
            series = convergence_series(
                params,
                list(range(spec.conv_min, spec.conv_max + 1)),
                solved[spec.conv_reference].values,
                spec.sublattice,
                solved,
            )
            tables["nconv"] = (["n", "rqe_vs_reference"], series)

            ns, errors = np.array(series, dtype=float).T
            not_self = ns != spec.conv_reference
            fit = fit_log_slope(ns[not_self], errors[not_self])
            tables["nconv_fit"] = (
                ["target", "slope", "intercept", "r_squared", "n_used"],
                [("reference", *fit)],
            )

        if spec.run_genfunc:
            tables["genfunc"] = genfunc_table(
                solution, spec.genfunc_min, spec.genfunc_max, spec.genfunc_count
            )

        mc = finish_mc() if spec.run_mc else None

    if mc is not None:
        p_mc = mc.p_hat.reshape(spec.grid_n, spec.grid_n)
        full = compare(p_mc, solution.values)
        sub = compare(p_mc, solution.values, sub=spec.sublattice)
        tables["comparison_stats"] = stats_table(full)
        tables["comparison_summary"] = (
            ["name", "value"],
            [
                ("cells_excluded", full.cells_excluded),
                ("rqe_sublattice_by_mc", sub.rqe_by_a),
                ("rqe_sublattice_by_grid", sub.rqe_by_b),
                ("grid_residual", solution.residual),
                ("mc_stop_bound", mc.stop_bound),
            ],
        )

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = ["manifest", "grid", *(["mc"] if mc is not None else []), *tables]
    written = {name: out_dir / OUTPUTS[name] for name in names}
    for name in OUTPUTS.keys() - written.keys():
        (out_dir / OUTPUTS[name]).unlink(missing_ok=True)  # left by an earlier run
    with open(written["manifest"], "w", newline="") as fp:
        fp.writelines(manifest)
    with open(written["grid"], "w", newline="") as fp:
        write_grid_csv(solution, fp)
    if mc is not None:
        with open(written["mc"], "w", newline="") as fp:
            write_mc_csv(mc, fp)
    for name, (header, rows) in tables.items():
        with open(written[name], "w", newline="") as fp:
            write_csv(fp, header, rows)
    return written
