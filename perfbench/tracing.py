"""Spans around the calls into each distyle layer, installed from outside.

A traced pass replaces chosen module attributes with thin wrappers before
the pass and restores them after it.  The program looks these names up at
call time (``genfunc`` calls ``characteristics.weighted_coords``, ``harness``
calls its imported ``solve_grid``), so every call through them opens a span.
An untraced run never installs anything.

A span is ``(name, layer, start, end, parent)``: ``name`` is the site the
wrapper sits at (``harness.solve_grid``), ``layer`` the module that defines
the function (``grid``), ``parent`` the index of the enclosing span or -1.
Spans stay in memory until :func:`write_spans` writes them out.
"""

from __future__ import annotations

import inspect
import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (module, attribute) pairs wrapped in a traced pass.  The first block are the
# names the package itself looks up at call time; the second are the entry
# points the benchmark client calls, so its own calls open spans too.
WRAPPED = (
    ("harness", "solve_grid"),
    ("harness", "estimate_lattice"),
    ("harness", "convergence_series"),
    ("harness", "compare"),
    ("harness", "write_grid_csv"),
    ("harness", "write_mc_csv"),
    ("genfunc", "eval_by_quadrature"),
    ("characteristics", "make_path"),
    ("characteristics", "weighted_coords"),
    ("grid", "assemble_system"),
    ("asymptotics", "closure_value"),
    ("montecarlo", "estimate_cells"),
    ("cli", "solve_grid"),
    ("cli", "write_grid_csv"),
    # client entry points
    ("harness", "run_experiment"),
    ("grid", "solve_grid"),
    ("genfunc", "query_from_grid"),
    ("genfunc", "eval_from_grid"),
    ("cli", "main"),
)


def _note_quadrature(bound: inspect.BoundArguments, result) -> dict:
    return {"n_terms": bound.arguments["query"].n_terms}


def _note_cells(bound: inspect.BoundArguments, result) -> dict:
    m = bound.arguments["m"]
    return {
        "cells": len(bound.arguments["cells"]),
        "m": m,
        "t_horizon": bound.arguments["t_horizon"],
        "absorbed": int(round(float(result.sum()) * m)),
        "zero_cells": int((result == 0.0).sum()),
    }


# Attributes whose arguments or result the per-layer metrics need.
_NOTES = {
    "genfunc.eval_by_quadrature": _note_quadrature,
    "montecarlo.estimate_cells": _note_cells,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.notes: dict[int, dict] = {}
        self._stack: list[int] = []

    def wrap(self, site: str, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{site}.{fn.__name__}"
        note = _NOTES.get(f"{layer}.{fn.__name__}")
        signature = inspect.signature(fn) if note else None
        spans, stack, notes = self.spans, self._stack, self.notes

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, layer, perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][3] = perf_counter()
                stack.pop()
            if note is not None:
                notes[index] = note(signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every ``WRAPPED`` attribute of ``modules`` for the duration."""
        saved = []
        try:
            for site, attr in WRAPPED:
                module = modules[site]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(site, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def wrapper_cost(calls: int = 10_000, repeats: int = 5) -> float:
    """Seconds one wrapper adds to a call: wrapped minus bare no-op calls,
    the median of ``repeats`` timings of ``calls`` calls each."""

    def noop():
        return None

    wrapped = Tracer().wrap("calibration", noop)
    costs = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((perf_counter() - start - bare) / calls)
    return max(0.0, statistics.median(costs))


def self_times(spans: list[list]) -> dict[str, float]:
    """Per-layer self time: span duration minus the time its children cover."""
    child_time = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}
    for (_, layer, start, end, _), covered in zip(spans, child_time):
        totals[layer] = totals.get(layer, 0.0) + (end - start) - covered
    return totals


def write_spans(path: Path, spans: list[list], origin: float) -> None:
    """One JSON list of ``[name, layer, start_s, end_s, parent]``, times
    relative to ``origin``."""
    rows = [[n, layer, s - origin, e - origin, p] for n, layer, s, e, p in spans]
    path.write_text(json.dumps(rows, separators=(",", ":")))
