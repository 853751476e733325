"""Shared fixtures: parameter sets and the expensive solver runs.

Session scope keeps the N=50/N=100 solves and the lattice Monte-Carlo runs
to one execution each; everything downstream reads them.
"""

import numpy as np
import pytest

from distyle.grid import Method, SolveOptions, solve_grid
from distyle.model import ModelParams


@pytest.fixture(scope="session")
def params3():
    return ModelParams(r=3.0, d=2.0)


@pytest.fixture(scope="session")
def paramsc():
    return ModelParams(r=2.002, d=2.0)


@pytest.fixture(scope="session")
def grid50(params3):
    return solve_grid(params3, 50)


@pytest.fixture(scope="session")
def grid100c(paramsc):
    return solve_grid(paramsc, 100, SolveOptions(method=Method.DIRECT))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260816)
