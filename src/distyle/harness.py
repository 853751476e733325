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
from .grid import GridSolution, Method, SolveOptions, solve_grid
from .model import ModelParams
# estimate_lattice stays a name of this module: perfbench/tracing.py wraps it
from .montecarlo import McEstimate, estimate_lattice, start_lattice  # noqa: F401


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
    square: np.ndarray
    absolute: np.ndarray
    relative: np.ndarray  # NaN at excluded cells
    included: np.ndarray
    cells_excluded: int
    stats: dict[str, SummaryStats]
    rqe_by_a: float
    rqe_by_b: float


def compare(a: np.ndarray, b: np.ndarray, sub: tuple[int, int] | None = None) -> ComparisonReport:
    """Cellwise comparison of two fields sharing the origin cell (1, 1).

    Fields of different extent are compared on their overlap, further cropped
    to ``sub`` when given.  Relative differences use ``b`` as the reference
    and skip cells where either field vanishes (Monte-Carlo zeros would
    otherwise produce infinities); the skipped count is reported.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rows = min(a.shape[0], b.shape[0])
    cols = min(a.shape[1], b.shape[1])
    if sub is not None:
        rows, cols = min(rows, sub[0]), min(cols, sub[1])
    if rows < 1 or cols < 1:
        raise ValueError("comparison region is empty")
    a = a[:rows, :cols]
    b = b[:rows, :cols]

    diff = a - b
    square = diff * diff
    absolute = np.abs(diff)
    included = (a != 0.0) & (b != 0.0)
    relative = np.full_like(absolute, np.nan)
    relative[included] = absolute[included] / np.abs(b[included])

    def rqe(reference: np.ndarray) -> float:
        denom = float((reference * reference).sum())
        return math.sqrt(float(square.sum()) / denom) if denom > 0.0 else float("nan")

    return ComparisonReport(
        square=square,
        absolute=absolute,
        relative=relative,
        included=included,
        cells_excluded=int(included.size - included.sum()),
        stats={
            "square_error": SummaryStats.of(square.ravel()),
            "absolute_error": SummaryStats.of(absolute.ravel()),
            "relative_error": SummaryStats.of(relative[included].ravel()),
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
    sublattice: int = 10,
    options: SolveOptions = SolveOptions(method=Method.DIRECT),
) -> list[tuple[int, float]]:
    """Rows (N, rqe of the N-grid against ``reference`` on the sub-lattice),
    each N-grid solved with ``options``."""
    sub = (sublattice, sublattice)
    return [
        (n, compare(solve_grid(params, n, options).values, reference, sub=sub).rqe_by_b)
        for n in n_values
    ]


# ---------------------------------------------------------------------------
# experiment specification and runner


@dataclass(frozen=True)
class ExperimentSpec:
    r: float
    d: float
    grid_n: int = 50
    solver: Method = Method.DIRECT
    tol: float = 1e-12
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
    quad_tol: float = 1e-8

    def __post_init__(self) -> None:
        """Reject a spec the run would fail on, before it writes any file.

        The rates and ``tol`` are checked by building ModelParams and
        SolveOptions, which also reads a solver name as a Method.
        """
        ModelParams(self.r, self.d)
        options = SolveOptions(method=self.solver, tol=self.tol)
        object.__setattr__(self, "solver", options.method)
        for name in ("grid_n", "mc_m", "mc_t", "sublattice"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")
        if not self.quad_tol > 0.0:
            raise ValueError(f"quad_tol must be positive, got {self.quad_tol}")
        if self.run_convergence:
            if not (1 <= self.conv_min <= self.conv_max and self.conv_reference >= 1):
                raise ValueError(
                    "need 1 <= conv_min <= conv_max and conv_reference >= 1, got "
                    f"{self.conv_min}, {self.conv_max} and {self.conv_reference}"
                )
            ns = range(self.conv_min, self.conv_max + 1)
            fitted = len(ns) - (self.conv_reference in ns)
            if fitted < 3:
                raise ValueError(
                    f"the convergence fit needs three N in {self.conv_min}..{self.conv_max} "
                    f"other than conv_reference={self.conv_reference}, got {fitted}"
                )
        if self.run_genfunc:
            if not (0.0 < self.genfunc_min <= self.genfunc_max < 1.0 and self.genfunc_count >= 1):
                raise ValueError(
                    "need 0 < genfunc_min <= genfunc_max < 1 and genfunc_count >= 1, got "
                    f"{self.genfunc_min}, {self.genfunc_max} and {self.genfunc_count}"
                )


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
    """A config value read as its field's type (int, float, bool or Method)."""
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
    most once; ``solver`` takes the method names direct or vi.  A value its
    field's type cannot read fails with its ``path:line``, and so does a
    value the spec rejects when the message names its key; any other
    rejection of the spec carries the ``path``.  Lines starting with ``#``
    and blank lines are ignored.
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
    try:
        return ExperimentSpec(**values)
    except ValueError as exc:
        key = str(exc).split(" ", 1)[0]
        where = f"{path}:{lines[key]}" if key in lines and key not in overrides else path
        raise ValueError(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# tables


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{value:.12g}"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


def write_csv(fp, header: list[str], rows) -> None:
    """The header row, then one line per row with every cell through ``_fmt``."""
    fp.write(",".join(header) + "\n")
    for row in rows:
        fp.write(",".join(map(_fmt, row)) + "\n")


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
    columns = (np.ravel(getattr(estimate, name)).tolist() for name in names)
    rows = ((*cell, *values, *tail) for cell, *values in zip(estimate.cells, *columns))
    write_csv(fp, ["i", "j", *names, "M", "T", "seed"], rows)


def stats_table(report: ComparisonReport) -> tuple[list[str], list[tuple]]:
    """Header and rows of the summary statistics of each error measure."""
    rows = [(name, s.mean, s.st_dev, s.min, s.max) for name, s in report.stats.items()]
    return ["metric", "mean", "st_dev", "min", "max"], rows


def genfunc_table(
    solution: GridSolution, xs, ys, tol: float
) -> tuple[list[str], list[tuple]]:
    """Header and rows of the quadrature-vs-series check of the generating
    function at every point of ``xs`` x ``ys``; quadrature budget ``tol``."""
    rows = []
    for x0 in xs:
        for y0 in ys:
            query = genfunc.query_from_grid(solution, float(x0), float(y0), tol)
            quad = genfunc.eval_by_quadrature(solution.params, query)
            series = genfunc.eval_from_grid(solution, float(x0), float(y0))
            rows.append((x0, y0, quad, series.value, abs(quad - series.value)))
    return ["x", "y", "P_quadrature", "P_series", "abs_diff"], rows


def run_experiment(spec: ExperimentSpec, out_dir: Path) -> dict[str, Path]:
    """Execute the requested pipeline and write its tables under ``out_dir``.

    Always writes the solved grid and a manifest of the resolved spec; the
    Monte-Carlo table, comparison summaries, truncation-convergence series
    with its fitted decay slope, and the generating-function cross-check are
    optional stages.  They run in this order: the Monte-Carlo workers are
    forked first and draw while this process solves the grid, runs the
    convergence series (each box solved once: the rows of the main grid and
    of the reference reuse their solves) and the quadrature; then the
    Monte-Carlo counts are collected and compared with the grid.  Every
    stage runs before ``out_dir`` is created, so a stage that raises leaves
    no partial run behind, and no worker process either.  Output is a
    name -> path map.
    """
    manifest = []
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        text = _fmt(value)
        if isinstance(value, float) and float(text) != value:
            text = repr(value)  # 12 digits would read back as another spec
        manifest.append(f"{f.name} = {text}\n")

    params = ModelParams(spec.r, spec.d)
    options = SolveOptions(method=spec.solver, tol=spec.tol)
    tables: dict[str, tuple] = {}  # name -> (filename, header, rows)
    drawing = (
        start_lattice(params, spec.grid_n, spec.grid_n, spec.mc_m, spec.mc_t, spec.seed)
        if spec.run_mc
        else contextlib.nullcontext()
    )
    with drawing as finish_mc:
        solution = solve_grid(params, spec.grid_n, options)

        if spec.run_convergence:
            solved = {spec.grid_n: solution}
            if spec.conv_reference not in solved:
                solved[spec.conv_reference] = solve_grid(params, spec.conv_reference, options)
            reference = solved[spec.conv_reference].values
            boxes = range(spec.conv_min, spec.conv_max + 1)
            series = convergence_series(
                params,
                [n for n in boxes if n not in solved],
                reference,
                sublattice=spec.sublattice,
                options=options,
            )
            series += [
                (n, compare(box.values, reference, sub=(spec.sublattice,) * 2).rqe_by_b)
                for n, box in solved.items()
                if n in boxes
            ]
            series.sort()
            tables["nconv"] = ("nconv.csv", ["n", "rqe_vs_reference"], series)

            ns, errors = np.array(series, dtype=float).T
            not_self = ns != spec.conv_reference
            fit = fit_log_slope(ns[not_self], errors[not_self])
            tables["nconv_fit"] = (
                "nconv_fit.csv",
                ["target", "slope", "intercept", "r_squared", "n_used"],
                [("reference", *fit)],
            )

        if spec.run_genfunc:
            points = np.linspace(spec.genfunc_min, spec.genfunc_max, spec.genfunc_count)
            table = genfunc_table(solution, points, points, spec.quad_tol)
            tables["genfunc"] = ("genfunc.csv", *table)

        mc = finish_mc() if spec.run_mc else None

    if mc is not None:
        full = compare(mc.p_hat, solution.values)
        sub = compare(mc.p_hat, solution.values, sub=(spec.sublattice, spec.sublattice))
        tables["comparison_stats"] = ("comparison_stats.csv", *stats_table(full))
        tables["comparison_summary"] = (
            "comparison_summary.csv",
            ["name", "value"],
            [
                ("cells_excluded", full.cells_excluded),
                ("rqe_sublattice_by_mc", sub.rqe_by_a),
                ("rqe_sublattice_by_grid", sub.rqe_by_b),
                ("grid_residual", solution.residual),
                ("grid_iterations", solution.iterations),
                ("mc_stop_bound", mc.stop_bound),
            ],
        )

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}

    def output(name: str, filename: str):
        written[name] = out_dir / filename
        return open(written[name], "w", newline="")

    with output("manifest", "manifest.txt") as fp:
        fp.writelines(manifest)
    with output("grid", "grid_p.csv") as fp:
        write_grid_csv(solution, fp)
    if mc is not None:
        with output("mc", "mc_p.csv") as fp:
            write_mc_csv(mc, fp)
    for name, (filename, header, rows) in tables.items():
        with output(name, filename) as fp:
            write_csv(fp, header, rows)
    return written
