"""One benchmark process: a set-up probe, or the timed passes of a workload.

``run.py`` starts this file in fresh interpreters; it is not meant to be
run by hand.  Modes:

* ``--probe``: time from before ``import distyle`` to the first job being
  ready, print ``{"setup_s": ...}``.
* ``--trace 0``: run ``--seconds`` / (the workload's nominal pass length)
  untraced passes, rounded and at least one, check every pass, print the
  pass times, operation counts, digests, peak RSS and the machine.
* ``--trace 1``: one pass with the wrappers of ``tracing.py`` installed;
  print the per-layer metrics and write the spans.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("asymptotics", "grid", "montecarlo", "characteristics", "genfunc", "harness", "cli")
GRID_CASES = ("r3-n50", "r3-n100", "r3-n200", "rc-n30", "rc-n50", "rc-n60")

# Per-layer metrics, name -> unit, in print order.  Layers a workload does
# not exercise report 0: no calls, no time.
PER_LAYER = {
    **{f"grid.solve_s.{c}": "s" for c in GRID_CASES},
    **{f"grid.iterations.{c}": "count" for c in GRID_CASES},
    **{f"grid.residual.{c}": "1" for c in GRID_CASES},
    "grid.vi_bracket_s": "s",
    "grid.solve_calls": "count",
    "grid.solve_s": "s",
    "grid.assemble_system_s": "s",
    "asymptotics.closure_s": "s",
    "asymptotics.closure_value_calls": "count",
    "montecarlo.estimate_s": "s",
    "montecarlo.cells": "count",
    "montecarlo.paths": "count",
    "montecarlo.nominal_path_steps_per_s": "1/s",
    "montecarlo.absorbed_frac": "1",
    "montecarlo.zero_cells": "count",
    "montecarlo.buffer_mb_computed": "MiB",
    "montecarlo.mean_abs_err": "1",
    "genfunc.quad_ms_per_point": "ms",
    "genfunc.points": "count",
    "genfunc.n_terms_mean": "count",
    "genfunc.max_gap": "1",
    "characteristics.weighted_coords_calls": "count",
    "harness.convergence_s": "s",
    "harness.compare_s": "s",
    "harness.csv_write_s": "s",
    "harness.output_bytes": "bytes",
    "cli.grid_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}


def import_distyle() -> None:
    """Import the package from this checkout's ``src``, never another copy."""
    src = ROOT / "src"
    if not (src / "distyle" / "__init__.py").is_file():
        raise SystemExit(f"no distyle sources under {src}")
    sys.path.insert(0, str(src))
    import distyle

    if Path(distyle.__file__).resolve().parent != (src / "distyle").resolve():
        raise SystemExit(f"imported distyle from {distyle.__file__}, expected {src}")


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(p, value) for the highest of p90/p95/p99/p99.9 with at least ten
    samples beyond it, or None when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in (90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10.0:
            k = min(n - 1, max(0, int(round(p / 100.0 * (n - 1)))))
            best = (p, ordered[k])
    return best


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS library loaded into this process."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as fp:
        paths = {line.split()[-1] for line in fp if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


@dataclass
class Pass:
    start: float
    wall_s: float
    job_s: dict
    outcome: object


def run_pass(workload, work_dir: Path, tracer=None, modules=None) -> Pass:
    """One timed pass over the job list, then its check, outside the timing."""
    pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=work_dir))
    try:
        job_s: dict[str, float] = {}
        with tracer.installed(modules) if tracer else nullcontext():
            start = perf_counter()
            result = workload.run(pass_dir, job_s)
            wall_s = perf_counter() - start
        return Pass(start, wall_s, job_s, workload.check(result))
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


def _span_sum(spans, *names) -> tuple[int, float]:
    durations = [end - start for name, _, start, end, _ in spans if name in names]
    return len(durations), float(sum(durations))


def layer_metrics(traced: Pass, tracer) -> tuple[dict, dict]:
    """Per-layer metrics and text-only extras from one traced pass."""
    from tracing import self_times, wrapper_cost

    spans, notes = tracer.spans, tracer.notes
    obs, job_s = traced.outcome.observations, traced.job_s
    m: dict[str, float] = {}
    for case in GRID_CASES:
        m[f"grid.solve_s.{case}"] = job_s.get(f"grid.solve_s.{case}", 0.0)
        m[f"grid.iterations.{case}"] = obs.get(f"grid.iterations.{case}", 0)
        m[f"grid.residual.{case}"] = obs.get(f"grid.residual.{case}", 0.0)
    m["grid.vi_bracket_s"] = job_s.get("grid.vi_bracket_s", 0.0)
    m["grid.solve_calls"], m["grid.solve_s"] = _span_sum(
        spans, "harness.solve_grid", "grid.solve_grid", "cli.solve_grid")
    m["grid.assemble_system_s"] = _span_sum(spans, "grid.assemble_system")[1]
    m["asymptotics.closure_value_calls"], m["asymptotics.closure_s"] = _span_sum(
        spans, "asymptotics.closure_value")

    estimate_s = float(sum(
        end - start
        for _, layer, start, end, parent in spans
        if layer == "montecarlo" and (parent < 0 or spans[parent][1] != "montecarlo")
    ))
    calls = [notes[k] for k, span in enumerate(spans) if span[0] == "montecarlo.estimate_cells"]
    paths = sum(c["cells"] * c["m"] for c in calls)
    steps = sum(c["cells"] * c["m"] * c["t_horizon"] for c in calls)
    m["montecarlo.estimate_s"] = estimate_s
    m["montecarlo.cells"] = sum(c["cells"] for c in calls)
    m["montecarlo.paths"] = paths
    m["montecarlo.nominal_path_steps_per_s"] = steps / estimate_s if estimate_s else 0.0
    m["montecarlo.absorbed_frac"] = sum(c["absorbed"] for c in calls) / paths if paths else 0.0
    m["montecarlo.zero_cells"] = sum(c["zero_cells"] for c in calls)
    m["montecarlo.buffer_mb_computed"] = max(
        (128 * min(c["cells"], 512) * c["m"] * 8 / 2**20 for c in calls), default=0.0)
    m["montecarlo.mean_abs_err"] = obs.get("montecarlo.mean_abs_err", 0.0)

    quad = [(k, end - start) for k, (name, _, start, end, _) in enumerate(spans)
            if name == "genfunc.eval_by_quadrature"]
    quad_ms = [1e3 * d for _, d in quad]
    m["genfunc.quad_ms_per_point"] = statistics.median(quad_ms) if quad_ms else 0.0
    m["genfunc.points"] = len(quad)
    m["genfunc.n_terms_mean"] = (
        statistics.fmean(notes[k]["n_terms"] for k, _ in quad) if quad else 0.0)
    m["genfunc.max_gap"] = obs.get("genfunc.max_gap", 0.0)
    m["characteristics.weighted_coords_calls"] = _span_sum(
        spans, "characteristics.weighted_coords")[0]

    m["harness.convergence_s"] = _span_sum(spans, "harness.convergence_series")[1]
    m["harness.compare_s"] = _span_sum(spans, "harness.compare")[1]
    m["harness.csv_write_s"] = _span_sum(spans, "harness.write_grid_csv", "harness.write_mc_csv")[1]
    m["harness.output_bytes"] = obs.get("harness.output_bytes", 0)
    m["cli.grid_s"] = job_s.get("cli.grid_s", 0.0)

    self_s = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    cost = wrapper_cost()
    m["trace.overhead_s"] = len(spans) * cost

    extras = {
        "trace.wall_s": (traced.wall_s, "s"),
        "trace.spans": (len(spans), "count"),
        "trace.wrapper_cost_us": (1e6 * cost, "us"),
        "trace.outside_spans_s": (traced.wall_s - sum(self_s.values()), "s"),
    }
    if quad_ms:
        extras["genfunc.quad_ms_per_point.samples"] = (len(quad_ms), "count")
        tail = tail_percentile(quad_ms)
        if tail is not None:
            extras[f"genfunc.quad_ms_per_point.p{tail[0]:g}"] = (tail[1], "ms")
    return m, extras


def _pass_summary(passes: list[Pass], known: set[str]) -> dict:
    ops = [op for p in passes for op in p.outcome.ops]
    failures = sorted({f"{name}: {detail}" for name, ok, detail in ops if not ok})
    unexpected = sorted({name for name, ok, _ in ops if not ok} - known)
    digests = {p.outcome.digest for p in passes}
    return {
        "wall_s": [p.wall_s for p in passes],
        "attempted": len(ops),
        "failed": sum(1 for _, ok, _ in ops if not ok),
        "failures": failures,
        "unexpected": unexpected,
        "digests_equal": len(digests) == 1,
        "digest": sorted(digests)[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    if args.probe:
        start = perf_counter()
        import_distyle()
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, args.smoke)
        print(json.dumps({"setup_s": perf_counter() - start}))
        return 0

    import_distyle()
    from distyle import asymptotics, characteristics, cli, genfunc, grid, harness, montecarlo
    from tracing import Tracer, write_spans
    from workloads import KNOWN_MISSES, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    known = KNOWN_MISSES.get(args.workload, set())
    args.out.mkdir(parents=True, exist_ok=True)

    if args.trace == 0:
        # The pass count follows from the nominal pass length, not from a
        # clock, so a slow phase of the host cannot change how a run averages.
        count = max(1, round(args.seconds / workload.pass_s))
        passes = [run_pass(workload, args.out) for _ in range(count)]
        report = _pass_summary(passes, known)
        report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        report["machine"] = machine()
    else:
        modules = {
            "asymptotics": asymptotics, "characteristics": characteristics, "cli": cli,
            "genfunc": genfunc, "grid": grid, "harness": harness, "montecarlo": montecarlo,
        }
        tracer = Tracer()
        traced = run_pass(workload, args.out, tracer, modules)
        write_spans(args.out / "spans.json", tracer.spans, traced.start)
        report = _pass_summary([traced], known)
        metrics, extras = layer_metrics(traced, tracer)
        report["metrics"] = metrics
        report["extras"] = extras
        report["spans_file"] = str(args.out / "spans.json")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
