"""distyle benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload supercritical --seed 20260816 --seconds 35 --trace 0

Workloads: ``supercritical`` and ``grid-default``, which BENCHMARK.json
lists, and ``near-critical``, which only runs by hand (see
perfbench/README.md).  With ``--trace 0`` the run times set-up in fresh
interpreters.  It then runs untraced passes of the workload in one more
fresh interpreter: ``--seconds`` divided by the workload's nominal pass
length, rounded, and at least one.  It reports ``wall_s``, ``setup_s``,
``peak_rss_mb`` and ``failed_frac``.  With
``--trace 1`` it runs one traced pass and reports the per-layer metrics; the
spans go to ``perfbench/out/``.  ``--smoke`` shrinks
every size so a run takes seconds.

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without the package sources under ``src/`` the
run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("supercritical", "near-critical", "grid-default")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
SETUP_PROBES = 5
DEADLINE_S = 175.0  # a run must end within 180 s


def _child(argv: list[str], timeout: float) -> dict:
    """Run ``worker.py`` in a fresh interpreter; return its last JSON line."""
    done = subprocess.run(
        [sys.executable, str(WORKER), *argv],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(timeout, 1.0),
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(argv)} exited with status {done.returncode}")
    return json.loads(lines[-1])


def _show(name: str, value, unit: str) -> None:
    print(f"{name:44s} {value!r:>24} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20260816)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, a few seconds")
    args = parser.parse_args(argv)
    start = perf_counter()

    if not (ROOT / "src" / "distyle" / "__init__.py").is_file():
        print(f"error: no distyle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = []
        if args.trace == 0:
            for _ in range(2 if args.smoke else SETUP_PROBES):
                setups.append(_child([*common, "--probe"], 60.0)["setup_s"])
        report = _child(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", str(out_dir)],
            DEADLINE_S - (perf_counter() - start),
        )
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}")
    for failure in report["failures"]:
        print(f"failed: {failure}")
    if report["unexpected"]:
        print(f"unexpected failures: {', '.join(report['unexpected'])}")
    print(f"digest {report['digest']}")
    if not report["digests_equal"]:
        print("outputs differ between passes of one run")
    correct = not report["unexpected"] and report["digests_equal"]

    if args.trace == 0:
        metrics = {
            "wall_s": statistics.median(report["wall_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": report["maxrss_kb"] / 1024.0,
        }
        units = END_TO_END
        extras = {
            "wall_s.samples": (len(report["wall_s"]), "count"),
            "setup_s.samples": (len(setups), "count"),
            "failed_frac": (report["failed"] / report["attempted"], "1"),
        }
        (out_dir / "machine.json").write_text(json.dumps(report["machine"], indent=1))
    else:
        from worker import PER_LAYER

        metrics, units = report["metrics"], PER_LAYER
        extras = {k: tuple(v) for k, v in report["extras"].items()}
        extras["failed_frac"] = (report["failed"] / report["attempted"], "1")
        print(f"spans written to {Path(report['spans_file']).relative_to(ROOT)}")

    for name, value in metrics.items():
        _show(name, value, units[name])
    for name, (value, unit) in extras.items():
        _show(name, value, unit)
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
