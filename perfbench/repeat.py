"""Run the benchmark several times on one workload and report the spread.

    python3 perfbench/repeat.py --workload near-critical --runs 10 --first-seed 1

Each run uses its own seed (``--first-seed``, ``--first-seed + 1``, ...).
For every metric this prints the median, the first and third quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(q3 - q1) / median.  ``--record FILE`` merges the summary, keyed by
workload, into a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    runs = []
    for k in range(args.runs):
        seed = args.first_seed + k
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=600,
        )
        if done.returncode != 0:
            print(f"seed {seed}: exit status {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
                          if args.trace == 0)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {values}", flush=True)

    summary = {
        "seeds": [args.first_seed, args.first_seed + args.runs - 1],
        "seconds": seconds,
        "correct": all(r["correct"] for r in runs),
        "attempted": runs[0]["attempted"],
        "failed": runs[0]["failed"],
        "failed_frac": runs[0]["failed"] / runs[0]["attempted"],
        "metrics": {
            name: {"unit": metric["unit"],
                   **summarize([r["metrics"][name]["value"] for r in runs])}
            for name, metric in runs[0]["metrics"].items()
        },
    }
    for name, s in summary["metrics"].items():
        if "spread" in s:
            print(f"{name:44s} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {100 * s['spread']:.2f}% {s['unit']}")
        else:
            print(f"{name:44s} {s['median']:.6g} {s['unit']}")
    if args.record is not None:
        recorded = json.loads(args.record.read_text()) if args.record.exists() else {}
        if args.trace == 0:
            machine = HERE / "out" / f"{args.workload}-seed{seed}-trace0" / "machine.json"
            recorded["machine"] = json.loads(machine.read_text())
        key = "per_layer" if args.trace else "end_to_end"
        recorded.setdefault(key, {})[args.workload] = summary
        args.record.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
