import ast
import importlib
from pathlib import Path

import distyle
from distyle import grid
from distyle.model import ModelParams

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_exported_name_resolves():
    assert [name for name in distyle.__all__ if not hasattr(distyle, name)] == []


def test_value_iteration_is_not_exported():
    # value iteration is the grid's reference for the tests and the benchmark
    assert not {"Method", "SolveOptions"} & set(distyle.__all__)
    assert not hasattr(distyle, "Method") and not hasattr(distyle, "SolveOptions")


def test_names_the_benchmark_calls_resolve():
    # the benchmark wraps these (module, attribute) pairs by name in a traced
    # pass; it is read, not imported, so that nothing of it runs here
    (wrapped,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(TRACING.read_text()).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "WRAPPED"
    ]
    assert wrapped
    missing = [
        (module, name)
        for module, name in wrapped
        if not hasattr(importlib.import_module(f"distyle.{module}"), name)
    ]
    assert missing == []
    # its grid workload brackets the default solve by value iteration, reads
    # the Jacobi steps, and rebuilds T p = b from the closure's triple
    params = ModelParams(3.0, 2.0)
    vi = grid.SolveOptions(method=grid.Method.VALUE_ITERATION)
    assert grid.solve_grid(params, 4, vi, closure="bounds-lower").iterations > 1
    up, right, desc = grid.closure_arrays(params, 4)
    assert up.shape == right.shape == (4,) and isinstance(desc, str)
    t, b = grid.assemble_system(params, 4, up, right)
    assert t.shape == (16, 16) and b.shape == (16,)
