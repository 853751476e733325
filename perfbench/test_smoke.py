"""Smoke runs of the benchmark at tiny sizes, a few seconds each.

    python3 -m pytest -q perfbench

Every metric must print by name with its unit, the JSON line must match
BENCHMARK.json, a traced run must write its spans, and a directory without
the package sources must fail without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, WORKLOADS  # noqa: E402
from worker import LAYERS, PER_LAYER  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = HERE.parent, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def _printed(lines: list[str]) -> dict[str, tuple[float, str]]:
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3:
            try:
                out[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    return out


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    expected = END_TO_END if trace == 0 else PER_LAYER
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = _printed(lines[:-1])
    for name, unit in expected.items():
        assert printed[name][1] == unit, name
    assert printed["failed_frac"] == (0.0, "1")

    if trace == 1:
        spans_file = HERE / "out" / f"{workload}-seed1-trace1" / "spans.json"
        spans = json.loads(spans_file.read_text())
        assert spans and all(len(span) == 5 for span in spans)
        assert all(start <= end for _, _, start, end, _ in spans)
        self_total = sum(printed[f"{layer}.self_s"][0] for layer in LAYERS)
        assert 0.0 < self_total <= printed["trace.wall_s"][0]


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("grid-default", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert "correct" not in done.stdout
