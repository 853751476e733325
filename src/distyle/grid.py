"""Finite-grid solver for the extinction probabilities p_{i,j}.

First-step analysis gives the interior recurrence

    p_{i,j} = d i / ((r+d)(i+j)) p_{i-1,j} + d j / ((r+d)(i+j)) p_{i,j-1}
            + r / (2 (r+d)) (p_{i,j+1} + p_{i+1,j}),

with p_{i,0} = p_{0,j} = 1 on the axes.  The quadrant is truncated to the
box 1 <= i, j <= N and the unknown values just outside, p_{i,N+1} and
p_{N+1,j}, are closed with asymptotic estimates.  Unknowns are stacked
row-major, k = (i-1) N + (j-1), producing a banded system T p = b with
bandwidth N.

The walk treats the two morphs alike, so one edge array closes both sides,
p~_{k,N+1} = p~_{N+1,k}.  The solution is then transpose-symmetric,
p_{i,j} = p_{j,i}, and the system is folded onto the N(N+1)/2 unknowns with
i <= j: A q = c keeps those rows of T and merges each column into its
mirror.

The recurrence is written down once, as a coupling table: for each of the
five neighbours, in T's column order, its offset in the field padded by
one cell and its coefficient at every cell.  The rest reads that table.
T (:func:`assemble_system`) and A are its rows as sparse matrices, A with
the columns taken through the mirror index, and b is minus the table
applied to the boundary values.  The residual max |T p - b| is the table
applied to the padded field, minus b, so the solvers never form T.

The solver is a sparse LU of A q = c (SuperLU, minimum-degree ordering on
A + A^T).  Value iteration stays in this module as the reference that the
tests and the benchmark check the LU against, not as a solver for users;
``SolveOptions(method=Method.VALUE_ITERATION)`` selects it.  It is Jacobi
iteration q <- (A + I) q - c from zero, one sparse mat-vec per step, which
increases monotonically toward the minimal solution and stops at its
floating-point fixed point.  Each step calls scipy's CSR kernel
``csr_matvec`` itself, the kernel ``(A + I) @ q`` ends in, so the iterates
are those of ``@`` bit for bit without its dispatch.

One size rule holds for every box, whichever method solves it: the factors
predicted for the box must fit the request budget ``model._BUDGET``
(128 MiB).  :func:`closure_arrays`, which every solve calls first, and
:func:`assemble_system` refuse a larger box with a ValueError before any
work is done (:func:`_check_size`).  The prediction is ``_FILL`` N^2 ln N
nonzeros of L + U at ``_BYTES_PER_NONZERO`` each, an upper bound on the
measured fill, so every box up to N=574 is factored.  The folded LU has
2.6-2.8 times less fill than the full one (141k against 371k nonzeros at
N=100).  At r=3, N=200 a fresh interpreter peaks at 73 MiB for it, 62 MiB
of which is the import, and factors in about 0.06 s where value iteration
takes 4,224 steps to its fixed point.

The constant field 1 satisfies the interior recurrence, so value iteration
must start below the solution (from zero) to select the probabilistic
solution rather than the trivial one.  It stops at the first checked
step that leaves the iterate unchanged (:func:`_iterate`).  Near
criticality it needs about 17-20 N^2 steps (19.6 N^2 at N=100 and N=142),
so from N=143 at r=2.002 it exhausts the iteration cap ``_MAX_ITER``
(400,000) and raises ``ConvergenceError``.

The module only computes; :func:`distyle.harness.write_grid_csv` writes a
solved field as CSV.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import asymptotics
from .model import ModelParams, _check_budget, extinction_bounds


class Method(enum.Enum):
    DIRECT = "direct"
    VALUE_ITERATION = "vi"


# A fresh interpreter peaks about 15 bytes above its import per nonzero of
# L + U (r=3: N=400 at 113 MiB, N=600 at 183 MiB, after 60 MiB for the
# import).  16 N^2 bytes of that peak are the death coefficients and b,
# which a solve keeps through the LU for its residual.
_BYTES_PER_NONZERO = 16
# Nonzeros of L + U per N^2 max(ln N, 1).  The measured ratio is 2.0-2.6
# up to N=10 and then rises slowly: 2.73 at N=50, 3.30 at N=200, 3.64 at
# N=600 for r = 3, 5, 20 and 1000, and a little more near criticality
# (r=2.002: 3.33 at N=200, 3.70 at N=600, 3.74 at N=660), so it bounds the
# fill beyond the largest box the budget admits, N=574.
_FILL = 4.0


def _lu_nonzeros(n: int) -> int:
    """Upper bound on the nonzeros of L + U of the folded N-box system."""
    return math.ceil(_FILL * n * n * max(math.log(n), 1.0))


def _check_size(name: str, n: int) -> None:
    """Reject an N-box below 1 or one whose predicted LU would not fit
    ``model._BUDGET``, naming ``name`` and the largest N the budget admits
    (574): the one size rule of every box, whichever method solves it."""
    _check_budget(
        name, n, lambda m: _BYTES_PER_NONZERO * _lu_nonzeros(m), "the largest box whose LU fits"
    )


# Value iteration compares an iterate with the one before it at every
# _CHECK_EVERY-th Jacobi step only.
_CHECK_EVERY = 32
# Most Jacobi steps value iteration takes before it raises ConvergenceError.
_MAX_ITER = 400_000


@dataclass(frozen=True)
class SolveOptions:
    """``method`` is a :class:`Method`, ``DIRECT`` (the LU) by default.
    ``VALUE_ITERATION`` is the reference the tests and the benchmark use; it
    stops at its floating-point fixed point, or raises after ``_MAX_ITER``
    steps."""

    method: Method = Method.DIRECT

    def __post_init__(self) -> None:
        if not isinstance(self.method, Method):
            raise TypeError(f"method must be a Method, got {self.method!r}")


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class GridSolution:
    """Solved box: ``values[i-1, j-1]`` approximates p_{i,j} for 1 <= i,j <= N."""

    params: ModelParams
    n: int
    values: np.ndarray
    closure: str
    closure_edge: np.ndarray = field(repr=False)  # p~_{k,N+1} = p~_{N+1,k}, k = 1..N
    residual: float
    iterations: int  # 1 for the LU; value iteration's Jacobi steps otherwise


# ---------------------------------------------------------------------------
# closure policies


# The named closure policies: name -> (description, p~_{k,N+1} as a
# function of (params, k, N+1)).  The one list of the policy names; the
# asymptotic entry looks ``closure_value`` up on its module at call time.
CLOSURES = {
    "asymptotic": (
        f"asymptotic ({asymptotics.CLOSURE_DESCRIPTION})",
        lambda params, k, m: asymptotics.closure_value(params, k, m),
    ),
    "bounds-lower": (
        "rigorous lower bound (d/r)^(i+j)",
        lambda params, k, m: extinction_bounds(params, k, m)[0],
    ),
    "bounds-upper": (
        "rigorous upper bound (d/r)^i + (d/r)^j - (d/r)^(i+j)",
        lambda params, k, m: extinction_bounds(params, k, m)[1],
    ),
}


DEFAULT_CLOSURE = "asymptotic"  # the policy wherever the caller names none


def closure_arrays(
    params: ModelParams, n: int, closure=DEFAULT_CLOSURE
) -> tuple[np.ndarray, np.ndarray, str]:
    """Resolve a closure policy to the edge arrays (p~_{i,N+1}, p~_{N+1,j}).

    ``closure`` names one of :data:`CLOSURES` or is one explicit edge array
    of shape (N,) and finite values, which is copied.  By symmetry
    p~_{N+1,k} = p~_{k,N+1}, so both returned edges are that one array.
    Every solve calls this first, so a box whose predicted LU would not fit
    ``model._BUDGET`` is refused here, before any work (:func:`_check_size`).
    """
    _check_size("n", n)
    if isinstance(closure, str):
        if closure not in CLOSURES:
            raise ValueError(f"unknown closure policy {closure!r}")
        desc, value = CLOSURES[closure]
        edge = np.array([value(params, k, n + 1) for k in range(1, n + 1)])
        return edge, edge, desc
    edge = np.array(closure, dtype=float)
    if edge.shape != (n,):
        raise ValueError(f"an explicit closure is one edge array of shape ({n},)")
    bad = np.flatnonzero(~np.isfinite(edge))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"an explicit closure must be finite, got {edge[k]} at k = {k + 1}")
    return edge, edge, "explicit array"


# ---------------------------------------------------------------------------
# linear system


def _stencil(params: ModelParams, n: int) -> tuple:
    """The coupling table, the one statement of the recurrence: row (i, j)
    of T as one ((di, dj), coefficient) pair per neighbour, in T's column
    order (i-1, j), (i, j-1), (i, j), (i, j+1), (i+1, j).  The neighbour
    sits at [i + di, j + dj] of the field padded by one cell, whose rows
    and columns 0 and N+1 hold the axes and the closure.  The coefficients
    are d i / ((r+d)(i+j)) as an (N, N) array indexed [i-1, j-1] and its
    transpose, d j / ((r+d)(i+j)) bit for bit, then -1 and the birth step
    r / (2(r+d)) twice, the same at every cell."""
    i = np.arange(1, n + 1)[:, None]
    scale = params.d / ((params.r + params.d) * (i + i.T))
    death = scale * i
    birth = params.birth_step
    return (
        ((-1, 0), death),
        ((0, -1), death.T),  # one array for the two death terms
        ((0, 0), -1.0),
        ((0, 1), birth),
        ((1, 0), birth),
    )


def _apply(table: tuple, padded: np.ndarray) -> np.ndarray:
    """The table applied to an (N+2, N+2) padded field, as an (N, N)
    array: each cell's five terms summed in T's column order."""
    n = padded.shape[0] - 2
    total = np.zeros((n, n))
    for (di, dj), coef in table:
        total += coef * padded[1 + di : n + 1 + di, 1 + dj : n + 1 + dj]
    return total


def _rhs(table: tuple, closure_up: np.ndarray, closure_right: np.ndarray) -> np.ndarray:
    """b of T p = b as an (N, N) array: the table applied to minus the
    boundary values, 1 on the axes and the closure beyond column and row
    N, with the box itself 0."""
    n = closure_up.size
    boundary = np.zeros((n + 2, n + 2))
    boundary[0, :] = boundary[:, 0] = -1.0
    boundary[1:-1, -1] = -closure_up
    boundary[-1, 1:-1] = -closure_right
    return _apply(table, boundary)


def _matrix(
    table: tuple, index: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> scipy.sparse.csr_matrix:
    """The table's rows at the cells (rows, cols), zero-based, as a square
    CSR matrix with int32 indices and ascending columns.  The neighbour at
    cell (i', j') of the box takes the column ``index[i'-1, j'-1]``, one
    outside the box is dropped, and neighbours that share a column are
    summed."""
    n = index.shape[0]
    columns = np.full((n + 2, n + 2), -1, dtype=np.int32)
    columns[1:-1, 1:-1] = index
    at = (rows + 1) * (n + 2) + cols + 1  # the cells in the padded field
    neighbour = np.stack(
        [columns.reshape(-1)[at + di * (n + 2) + dj] for (di, dj), _ in table], axis=1
    )
    value = np.stack([np.broadcast_to(coef, (n, n))[rows, cols] for _, coef in table], axis=1)
    present = neighbour >= 0
    indptr = np.zeros(rows.size + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=1), out=indptr[1:])
    matrix = scipy.sparse.csr_matrix(
        (value[present], neighbour[present], indptr), shape=(rows.size, rows.size)
    )
    matrix.sum_duplicates()
    return matrix


def assemble_system(
    params: ModelParams, n: int, closure_up: np.ndarray, closure_right: np.ndarray
) -> tuple[scipy.sparse.csr_matrix, np.ndarray]:
    """Banded system T p = b for the stacked interior unknowns.

    Row k = (i-1) N + (j-1) is the coupling table at (i, j): -1 on the
    diagonal and the in-box couplings off it, with b collecting the
    boundary and closure terms with a minus sign.  The solvers do not
    build T; it states the system they solve.  A box the solvers refuse
    (N > 574, :func:`_check_size`) is refused here too, before any work.
    """
    _check_size("n", n)
    table = _stencil(params, n)
    rows, cols = np.indices((n, n)).reshape(2, -1)
    t = _matrix(table, np.arange(n * n).reshape(n, n), rows, cols)
    return t, _rhs(table, closure_up, closure_right).reshape(-1)


# ---------------------------------------------------------------------------
# solvers


def _folded_system(
    table: tuple, b: np.ndarray
) -> tuple[scipy.sparse.csr_matrix, np.ndarray, np.ndarray]:
    """The folded system A q = c the solvers work on, read from the
    coupling table ``table`` and b of T p = b as an (N, N) array.

    q holds the N(N+1)/2 cells i <= j, row by row, and ``pos[i-1, j-1]``
    is the index in q of p_{i,j} and of p_{j,i}.  A is the table's rows
    i <= j with each neighbour's column taken through ``pos``, so that the
    two neighbours of a diagonal cell (i, i) that mirror each other are
    summed into one column; no cell neighbours its own mirror, so A keeps
    the diagonal -1.  c is b at those rows.  Returns (A, c, pos).
    """
    n = b.shape[0]
    rows, cols = np.triu_indices(n)
    pos = np.empty((n, n), dtype=np.int32)
    pos[rows, cols] = pos[cols, rows] = np.arange(rows.size)
    return _matrix(table, pos, rows, cols), b[rows, cols], pos


def _iterate(a: scipy.sparse.csr_matrix, c: np.ndarray) -> tuple[np.ndarray, int | None]:
    """Value iteration q <- K q - c from zero, with K = A + I of the
    folded system A q = c: one sparse mat-vec per Jacobi step.

    Each step zeroes a buffer, accumulates K q into it with scipy's
    ``csr_matvec`` and adds -c.  ``K @ q`` runs the same kernel into a fresh
    zeroed array after its dispatch checks, so every iterate equals
    ``(K @ q) - c`` bit for bit; two buffers take turns as q and its image.

    K is nonnegative, and so is -c for nonnegative closures, so the
    iterates rise monotonically toward the minimal solution.  Every
    ``_CHECK_EVERY``-th step compares its image with q, and iteration
    stops at the first such step that leaves q unchanged: a floating-point
    fixed point, which every later step keeps.

    Returns the iterate and its step count, ``None`` when ``_MAX_ITER``
    steps ran out.
    """
    # scipy's private kernel behind ``k @ q``; imported here, so that a
    # rename in scipy breaks value iteration only, and not ``import distyle``
    from scipy.sparse._sparsetools import csr_matvec

    k = a + scipy.sparse.identity(a.shape[0], format="csr")
    n, indptr, indices, data = k.shape[0], k.indptr, k.indices, k.data
    source = -c
    q, image = np.zeros_like(source), np.empty_like(source)
    for step in range(1, _MAX_ITER + 1):
        image.fill(0.0)
        csr_matvec(n, n, indptr, indices, data, q, image)
        image += source
        if step % _CHECK_EVERY == 0 and np.array_equal(image, q):
            return image, step
        q, image = image, q
    return q, None


def _residual(table: tuple, b: np.ndarray, values: np.ndarray) -> float:
    """max |T p - b| for the field ``values``, the coupling table ``table``
    and b as an (N, N) array: the table applied to the field padded with
    zeros, minus b, equal bit for bit to the residual through
    :func:`assemble_system`."""
    n = values.shape[0]
    padded = np.zeros((n + 2, n + 2))
    padded[1:-1, 1:-1] = values
    tp = _apply(table, padded)
    tp -= b
    return float(np.max(np.abs(tp)))


def solve_grid(
    params: ModelParams,
    n: int,
    options: SolveOptions | None = None,
    closure=DEFAULT_CLOSURE,
) -> GridSolution:
    """Solve the closed box system and return the probability field.

    ``closure`` is a named policy (a key of :data:`CLOSURES`) or one
    explicit edge array p~_{k,N+1} = p~_{N+1,k}, k = 1..N.  The box is
    factored; :func:`closure_arrays` refuses one whose predicted LU would
    not fit the 128 MiB budget (N > 574) before any work is done.
    ``options`` selects value iteration, the reference of the tests and the
    benchmark, on the same boxes.  The residual max |T p - b| is taken on
    the full system, also for a :class:`ConvergenceError`.
    """
    edge, _, desc = closure_arrays(params, n, closure)
    # the table and b of one solve, shared by its system and its residual
    table = _stencil(params, n)
    b = _rhs(table, edge, edge)
    a, c, pos = _folded_system(table, b)
    if (options or SolveOptions()).method is Method.VALUE_ITERATION:
        q, iterations = _iterate(a, c)
    else:
        a = a.tocsc()  # the CSR copy goes before the factors are made,
        lu = scipy.sparse.linalg.splu(a, permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1)
        q, iterations = lu.solve(c), 1
        del lu  # and the factors before the residual's arrays
    values = q[pos]
    values += 0.0  # a p that underflows to -0 becomes +0; no other bit moves
    residual = _residual(table, b, values)
    if iterations is None:
        raise ConvergenceError(f"no convergence within {_MAX_ITER} iterations", residual)
    return GridSolution(
        params=params,
        n=n,
        values=values,
        closure=desc,
        closure_edge=edge,
        residual=residual,
        iterations=iterations,
    )
