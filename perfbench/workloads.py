"""The three benchmark workloads: their job lists and their output checks.

Every workload is a closed loop: one client in one process runs its jobs one
after the other, each call waiting for the previous one.  Jobs call only
distyle's public functions with default options, always through the module
attribute (``grid.solve_grid``), so a traced pass can wrap them.

``run`` executes the job list and is what a pass times (it also records the
client's own timings of single jobs in ``job_s``); ``check`` runs after
the timed part and turns the outputs into operations (one solve, one
Monte-Carlo estimate set or one quadrature point), each passed or failed,
plus observations that feed the per-layer metrics and a digest of every
output for the repeat check.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from distyle import cli, extinction_bounds, genfunc, grid, harness, montecarlo
from distyle.model import ModelParams

RESIDUAL_LIMIT = 1e-10
SYMMETRY_LIMIT = 1e-10
# Values may sit below the lower envelope by what the solver tolerance
# (1e-12) allows; at r=3, N=200 the deepest cells underflow to ~1e-70.
ENVELOPE_SLACK = 1e-12
VI_SLACK = 1e-11  # 10 * tol, as in acceptance 03
QUAD_LIMIT = 1e-3  # acceptance 08
SUPERCRITICAL_BAND = (1e-4, 2e-2)  # acceptance 10
NEAR_CRITICAL_BAND = (1e-2, 2e-1)  # acceptance 10

# Checks that fail at this commit because of a known defect of the program,
# not of the benchmark.  They still count in ``failed``; they do not make a
# run incorrect.  See perfbench/README.md ("Known miss").
KNOWN_MISSES = {"grid-default": {"quad r=3 (0.9, 0.9)"}}


@dataclass
class Outcome:
    ops: list[tuple[str, bool, str]] = field(default_factory=list)
    observations: dict[str, float] = field(default_factory=dict)
    digest: str = ""

    def op(self, name: str, ok: bool, detail: str = "") -> None:
        self.ops.append((name, bool(ok), detail))


# ---------------------------------------------------------------------------
# shared checks


def _envelope(params: ModelParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    lo = np.empty((n, n))
    hi = np.empty((n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            lo[i - 1, j - 1], hi[i - 1, j - 1] = extinction_bounds(params, i, j)
    return lo, hi


def _field_problems(params: ModelParams, values: np.ndarray, residual: float) -> list[str]:
    """Residual, envelope and transpose-symmetry checks of one solved field."""
    problems = []
    if not residual <= RESIDUAL_LIMIT:
        problems.append(f"residual {residual:.3e} > {RESIDUAL_LIMIT:g}")
    lo, hi = _envelope(params, values.shape[0])
    outside = max(float(np.max(lo - values)), float(np.max(values - hi)))
    if not outside <= ENVELOPE_SLACK:
        problems.append(f"outside the envelope by {outside:.3e}")
    asym = float(np.max(np.abs(values - values.T)))
    if not asym <= SYMMETRY_LIMIT:
        problems.append(f"|P - P^T| = {asym:.3e}")
    return problems


def _csv_residual(params: ModelParams, values: np.ndarray) -> float:
    """max |T p - b| of a field read back from CSV, default closure."""
    n = values.shape[0]
    up, right, _ = grid.closure_arrays(params, n)
    t, b = grid.assemble_system(params, n, up, right)
    return float(np.max(np.abs(t @ values.reshape(-1) - b)))


def _read_table(path: Path) -> dict[str, list[str]]:
    with open(path, newline="") as fp:
        rows = list(csv.reader(fp))
    return {name: [row[k] for row in rows[1:]] for k, name in enumerate(rows[0])}


def _field(table: dict[str, list[str]], column: str) -> np.ndarray:
    i = np.array(table["i"], dtype=int)
    j = np.array(table["j"], dtype=int)
    out = np.full((i.max(), j.max()), np.nan)
    out[i - 1, j - 1] = np.array(table[column], dtype=float)
    return out


def _check_csv_grid(out: Outcome, name: str, params: ModelParams, path: Path) -> np.ndarray:
    values = _field(_read_table(path), "p")
    problems = _field_problems(params, values, _csv_residual(params, values))
    out.op(name, not problems, "; ".join(problems))
    return values


def _digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(Path(p) for p in paths):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _output_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


# ---------------------------------------------------------------------------
# workloads


class Supercritical:
    """``distyle experiment --preset supercritical --genfunc`` as one call."""

    pass_s = 50.0  # nominal pass length on a 2-core VM; sets the pass count

    def __init__(self, seed: int, smoke: bool) -> None:
        overrides = dict(run_genfunc=True, seed=seed)
        if smoke:
            overrides.update(grid_n=12, mc_t=1000, conv_min=6, conv_max=12,
                             conv_reference=12, genfunc_count=3)
        self.spec = harness.spec_from_preset("supercritical", **overrides)
        self.params = ModelParams(self.spec.r, self.spec.d)

    def run(self, out_dir: Path, job_s: dict) -> dict:
        return harness.run_experiment(self.spec, out_dir)

    def check(self, written: dict) -> Outcome:
        out = Outcome()
        spec = self.spec
        values = _check_csv_grid(out, "grid solve", self.params, written["grid"])

        mc = _read_table(written["mc"])
        p_hat = _field(mc, "p_hat")
        ci_low = np.array(mc["ci_low"], dtype=float)
        ci_high = np.array(mc["ci_high"], dtype=float)
        flat = np.array(mc["p_hat"], dtype=float)
        err = float(np.mean(np.abs(p_hat - values)))
        lo, hi = SUPERCRITICAL_BAND
        in_ci = bool(np.all((ci_low <= flat) & (flat <= ci_high)))
        # One pass fills a run, so the repeat check recomputes a 5x5 sample
        # of cells, which must match the lattice bit for bit.
        ks = np.unique(np.linspace(1, spec.grid_n, 5).round().astype(int))
        cells = [(int(i), int(j)) for i in ks for j in ks]
        again = montecarlo.estimate_cells(self.params, cells, spec.mc_m, spec.mc_t, spec.seed)
        repeats = bool(np.array_equal(again, [p_hat[i - 1, j - 1] for i, j in cells]))
        out.op("mc lattice", lo <= err <= hi and in_ci and repeats,
               f"mean |p_hat - grid| = {err:.3e} in [{lo:g}, {hi:g}]; ci ordered: {in_ci}; "
               f"{len(cells)} cells repeat: {repeats}")
        out.observations["montecarlo.mean_abs_err"] = err

        table = _read_table(written["nconv"])
        for n, ref in zip(table["n"], table["rqe_vs_reference"]):
            value = float(ref)
            ok = math.isfinite(value) and value >= 0.0
            if int(n) == spec.conv_reference:
                ok = ok and value == 0.0
            out.op(f"convergence solve n={n} vs reference", ok, f"rqe {value:.3e}")
        for n, vs_mc in zip(table["n"], table.get("rqe_vs_mc", [])):
            value = float(vs_mc)
            out.op(f"convergence solve n={n} vs mc", math.isfinite(value) and value >= 0.0,
                   f"rqe {value:.3e}")

        table = _read_table(written["genfunc"])
        gaps = []
        for x, y, quad, series in zip(table["x"], table["y"], table["P_quadrature"],
                                      table["P_series"]):
            gap = abs(float(quad) - float(series))
            gaps.append(gap)
            out.op(f"quad r={spec.r:g} ({float(x):.3g}, {float(y):.3g})",
                   gap <= QUAD_LIMIT, f"|quad - series| = {gap:.3e}")
        out.observations["genfunc.max_gap"] = max(gaps)
        out.observations["harness.output_bytes"] = _output_bytes(written.values())
        out.digest = _digest_files(written.values())
        return out


class NearCritical:
    """Monte-Carlo at r=2.002 on the diagonal of the acceptance-10 stride-10
    cells, checked against the near-critical preset's grid."""

    pass_s = 10.0

    def __init__(self, seed: int, smoke: bool) -> None:
        overrides = dict(run_mc=False, run_convergence=False, seed=seed)
        stop = 101
        if smoke:
            overrides.update(grid_n=20, mc_m=100, mc_t=20_000)
            stop = 11
        self.spec = harness.spec_from_preset("near-critical", **overrides)
        self.params = ModelParams(self.spec.r, self.spec.d)
        self.cells = [(k, k) for k in range(10, stop, 10)]

    def run(self, out_dir: Path, job_s: dict) -> tuple[dict, np.ndarray]:
        spec = self.spec
        written = harness.run_experiment(spec, out_dir)
        p_hat = montecarlo.estimate_cells(self.params, self.cells, spec.mc_m, spec.mc_t, spec.seed)
        return written, p_hat

    def check(self, result: tuple[dict, np.ndarray]) -> Outcome:
        written, p_hat = result
        out = Outcome()
        values = _check_csv_grid(out, "reference grid solve", self.params, written["grid"])
        ref = np.array([values[i - 1, j - 1] for i, j in self.cells])
        err = float(np.mean(np.abs(p_hat - ref)))
        counts = p_hat * self.spec.mc_m
        frequencies = bool(np.all((p_hat >= 0.0) & (p_hat <= 1.0))
                           and np.allclose(counts, np.round(counts), rtol=0.0, atol=1e-9))
        lo, hi = NEAR_CRITICAL_BAND
        out.op("mc cells", lo <= err <= hi and frequencies,
               f"mean |p_hat - grid| = {err:.3e} in [{lo:g}, {hi:g}]; frequencies: {frequencies}")
        out.observations["montecarlo.mean_abs_err"] = err
        out.observations["harness.output_bytes"] = _output_bytes(written.values())
        h = hashlib.sha256(_digest_files(written.values()).encode())
        h.update(np.ascontiguousarray(p_hat, dtype="<f8").tobytes())
        out.digest = h.hexdigest()
        return out


RATES = {"r3": ModelParams(3.0, 2.0), "rc": ModelParams(2.002, 2.0)}
GRID_CASES = {
    "r3-n50": ("r3", 50),
    "r3-n100": ("r3", 100),
    "r3-n200": ("r3", 200),
    "rc-n30": ("rc", 30),
    "rc-n50": ("rc", 50),
    "rc-n60": ("rc", 60),
}


class GridDefault:
    """Default grid solves, the value-iteration bracket of acceptance 03, one
    ``distyle grid`` command and 18x18 quadrature points; no Monte-Carlo."""

    pass_s = 17.0

    def __init__(self, seed: int, smoke: bool) -> None:
        # No job draws random numbers, so the seed changes nothing here.
        self.cases = {name: (RATES[rate], n) for name, (rate, n) in GRID_CASES.items()}
        self.vi_n, self.cli_n, top, points = 20, 100, 0.9, 18
        if smoke:
            self.cases = {name: (p, min(n, 16)) for name, (p, n) in self.cases.items()}
            self.vi_n, self.cli_n, top, points = 6, 16, 0.5, 3
        # r3-n100 is what the grid command must reproduce and what the
        # quadrature is checked against.
        self.reference = "r3-n100"
        self.points = [float(v) for v in np.linspace(0.05, top, points)]

    def run(self, out_dir: Path, job_s: dict) -> dict:
        solutions = {}
        for name, (params, n) in self.cases.items():
            start = perf_counter()
            solutions[name] = _attempt(grid.solve_grid, params, n)
            job_s[f"grid.solve_s.{name}"] = perf_counter() - start

        start = perf_counter()
        vi = grid.SolveOptions(method=grid.Method.VALUE_ITERATION)
        bracket = {}
        for rate, params in RATES.items():
            bracket[rate] = (
                params,
                _attempt(grid.solve_grid, params, self.vi_n, vi, closure="bounds-lower"),
                _attempt(grid.solve_grid, params, self.vi_n),
                _attempt(grid.solve_grid, params, self.vi_n, vi, closure="bounds-upper"),
            )
        job_s["grid.vi_bracket_s"] = perf_counter() - start

        cli_dir = out_dir / "cli"
        argv = ["grid", "--r", "3", "--d", "2", "--n", str(self.cli_n), "--out", str(cli_dir)]
        start = perf_counter()
        status = _attempt(cli.main, argv)
        job_s["cli.grid_s"] = perf_counter() - start

        quad = []
        base = solutions[self.reference]
        for x in self.points:
            for y in self.points:
                if isinstance(base, Exception):
                    quad.append((x, y, base, None))
                    continue
                query = genfunc.query_from_grid(base, x, y)
                value = _attempt(genfunc.eval_by_quadrature, base.params, query)
                quad.append((x, y, value, genfunc.eval_from_grid(base, x, y).value))
        return {"solutions": solutions, "bracket": bracket, "cli": (status, cli_dir),
                "quad": quad}

    def check(self, result: dict) -> Outcome:
        out = Outcome()
        h = hashlib.sha256()
        for name, sol in result["solutions"].items():
            if isinstance(sol, Exception):
                out.op(f"solve {name}", False, f"raised {sol!r}")
                continue
            problems = _field_problems(sol.params, sol.values, sol.residual)
            out.op(f"solve {name}", not problems, "; ".join(problems))
            out.observations[f"grid.iterations.{name}"] = sol.iterations
            out.observations[f"grid.residual.{name}"] = sol.residual
            h.update(sol.values.tobytes())

        for rate, (params, low, default, high) in result["bracket"].items():
            for label, sol in (("lower", low), ("default", default), ("upper", high)):
                name = f"vi bracket {rate} {label}"
                if isinstance(sol, Exception):
                    out.op(name, False, f"raised {sol!r}")
                    continue
                problems = _field_problems(params, sol.values, sol.residual)
                if label != "default" and not isinstance(default, Exception):
                    gap = (default.values - sol.values if label == "lower"
                           else sol.values - default.values)
                    if not float(np.min(gap)) + VI_SLACK >= 0.0:
                        problems.append(f"misses the default by {-float(np.min(gap)):.3e}")
                out.op(name, not problems, "; ".join(problems))
                h.update(sol.values.tobytes())

        status, cli_dir = result["cli"]
        csv_path = cli_dir / "grid_p.csv"
        if status != 0 or not csv_path.exists():
            out.op("cli grid", False, f"exit status {status!r}")
        else:
            params = RATES["r3"]
            values = _field(_read_table(csv_path), "p")
            problems = _field_problems(params, values, _csv_residual(params, values))
            same = result["solutions"][self.reference]
            if not isinstance(same, Exception):
                gap = float(np.max(np.abs(values - same.values)))
                if not gap <= RESIDUAL_LIMIT:
                    problems.append(f"differs from the library solve by {gap:.3e}")
            out.op("cli grid", not problems, "; ".join(problems))
            h.update(csv_path.read_bytes())

        gaps = []
        for x, y, value, series in result["quad"]:
            name = f"quad r=3 ({x:.3g}, {y:.3g})"
            if isinstance(value, Exception):
                out.op(name, False, f"raised {value!r}")
                continue
            gap = abs(value - series)
            gaps.append(gap)
            out.op(name, gap <= QUAD_LIMIT, f"|quad - series| = {gap:.3e}")
            h.update(np.array([value, series]).tobytes())
        if gaps:
            out.observations["genfunc.max_gap"] = max(gaps)
        out.digest = h.hexdigest()
        return out


def _attempt(fn, *args, **kwargs):
    """Call ``fn``; an exception becomes the result, so its operation fails
    in the check instead of ending the pass."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
        return exc


WORKLOADS = {
    "supercritical": Supercritical,
    "near-critical": NearCritical,
    "grid-default": GridDefault,
}
