"""Extinction probabilities of a two-morph flower population.

A nearest-neighbour random walk on the positive quadrant models the counts
of the two floral morphs; hitting an axis means the mating system dies out.
The package computes the extinction probabilities p_{i,j} three ways and
cross-checks them:

* :mod:`distyle.montecarlo`      path simulation with confidence intervals,
* :mod:`distyle.grid`            truncated recurrence with asymptotic closure,
* :mod:`distyle.genfunc`         characteristic-curve quadrature for the
                                 generating function; it takes the grid's
                                 first column p_{i,1} as input, so it checks
                                 the rest of the grid against that column,

with :mod:`distyle.harness` tying them into reproducible experiments.
"""

from .asymptotics import closure_value
from .characteristics import (
    CharacteristicPath,
    critical_times,
    eval_path,
    integrating_factor,
    make_path,
)
from .genfunc import GenFuncQuery, eval_by_quadrature, eval_from_grid, query_from_grid
from .grid import GridSolution, assemble_system, solve_grid
from .harness import ExperimentSpec, compare, fit_log_slope, run_experiment
from .model import ModelParams, extinction_bounds
from .montecarlo import box_cells, estimate_cells, estimate_lattice, start_cells

__version__ = "0.1.0"

__all__ = [
    "CharacteristicPath",
    "ExperimentSpec",
    "GenFuncQuery",
    "GridSolution",
    "ModelParams",
    "assemble_system",
    "box_cells",
    "closure_value",
    "compare",
    "critical_times",
    "estimate_cells",
    "estimate_lattice",
    "eval_by_quadrature",
    "eval_from_grid",
    "eval_path",
    "extinction_bounds",
    "fit_log_slope",
    "integrating_factor",
    "make_path",
    "query_from_grid",
    "run_experiment",
    "solve_grid",
    "start_cells",
]
