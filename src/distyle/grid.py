"""Finite-grid solver for the extinction probabilities p_{i,j}.

First-step analysis gives the interior recurrence

    p_{i,j} = d i / ((r+d)(i+j)) p_{i-1,j} + d j / ((r+d)(i+j)) p_{i,j-1}
            + r / (2 (r+d)) (p_{i,j+1} + p_{i+1,j}),

with p_{i,0} = p_{0,j} = 1 on the axes.  The probabilities are its minimal
nonnegative solution (Norris, *Markov Chains*, 1997, Thm 1.3.2).

One private solve, :func:`_solve_cells`, takes the recurrence on a set of
cells of the box 1 <= i, j <= N, given as an (N, N) mask, with the values
outside the set given: on the axes, at the cells of the box left out of
the set, and in row and column N+1.  They come as padded (N+2, N+2) boundary
fields indexed [i, j], one per right-hand side, and one LU serves them all.
By the strong Markov property a field that lies below p (above p) outside
the set gives a solution below p (above p) on it, so two fields that hold
the rigorous envelopes of :func:`distyle.model.extinction_bounds` outside
a set bracket p on it.

:func:`solve_grid` is the box case.  The set is the whole N-box, and the
field holds 1 on the axes and, in row and column N+1, the unknown values
just outside the box, p~_{i,N+1} and p~_{N+1,j}, closed with asymptotic
estimates.  Unknowns are stacked row-major, k = (i-1) N + (j-1), producing a
banded system T p = b with bandwidth N (:func:`assemble_system`).

The walk treats the two morphs alike, so one edge array closes both sides,
p~_{k,N+1} = p~_{N+1,k}, and a set and its fields are transpose-symmetric
too.  The solution is then transpose-symmetric, p_{i,j} = p_{j,i}, and the
system is folded onto the cells of the set with i <= j: A q = c keeps the
rows of those cells and merges each column into its mirror.  On the box
these are the N(N+1)/2 unknowns with i <= j.

The recurrence is written down once, as a coupling table: for each of the
five neighbours, in T's column order, its offset in the field padded by
one cell and its coefficient at every cell.  The rest reads that table.
T and A are its rows as sparse matrices, A with the columns taken through
the mirror index and the neighbours outside the set dropped, and b is
minus the table applied to the boundary field, zeroed on the set.  The
residual max |T p - b| over the set is the table applied to the solved
field, zeroed outside the set, minus b, so the solvers never form T.

The solver is a sparse LU of A q = c (SuperLU, minimum-degree ordering on
A + A^T), with the fields' right-hand sides as the columns of one solve.
Value iteration stays in this module as the reference that the tests and
the benchmark check the LU against on the box, not as a solver for users;
``SolveOptions(method=Method.VALUE_ITERATION)`` selects it.  It is Jacobi
iteration q <- (A + I) q - c from zero, one sparse mat-vec per step, which
increases monotonically toward the minimal solution and stops at its
floating-point fixed point.  Each step calls scipy's CSR kernel
``csr_matvec`` itself, the kernel ``(A + I) @ q`` ends in, so the iterates
are those of ``@`` bit for bit without its dispatch.

One size rule holds for every box, whichever method solves it: the factors
predicted for the box must fit the request budget ``model._BUDGET``
(128 MiB).  :func:`closure_arrays`, which every :func:`solve_grid` calls
first, and :func:`assemble_system` refuse a larger box with a ValueError
before any work is done (:func:`_check_size`); a caller of
:func:`_solve_cells` holds its box to the rule itself.  The prediction is
``_FILL`` N^2 ln N nonzeros of L + U at ``_BYTES_PER_NONZERO`` each, an
upper bound on the measured fill, so every box up to N=574 is factored.  The folded LU has
2.6-2.8 times less fill than the full one (141k against 371k nonzeros at
N=100).  At r=3, N=200 a fresh interpreter peaks at 74 MiB for it, 62 MiB
of which is the import; ``splu`` factors in about 0.03 s and the whole
solve takes 0.03-0.05 s, where value iteration takes 4,224 steps to its
fixed point.

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
from dataclasses import dataclass

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

    ``closure`` names one of :data:`CLOSURES`; anything else, an edge array
    too, is refused with a ValueError that lists the policies.  By symmetry
    p~_{N+1,k} = p~_{k,N+1}, so both returned edges are that one array.
    Every solve calls this first, so a box whose predicted LU would not fit
    ``model._BUDGET`` is refused here, before any work (:func:`_check_size`).
    A caller with an edge of its own solves the box through
    :func:`_solve_cells` with the field ``_box_field(edge, edge)[None]``.
    """
    _check_size("n", n)
    if not (isinstance(closure, str) and closure in CLOSURES):
        raise ValueError(f"closure must be one of {', '.join(CLOSURES)}, got {closure!r}")
    desc, value = CLOSURES[closure]
    edge = np.array([value(params, k, n + 1) for k in range(1, n + 1)])
    return edge, edge, desc


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
    """The table applied to padded (..., N+2, N+2) fields, as (..., N, N)
    arrays: each cell's five terms summed in T's column order."""
    n = padded.shape[-1] - 2
    total = np.zeros(padded.shape[:-2] + (n, n))
    for (di, dj), coef in table:
        total += coef * padded[..., 1 + di : n + 1 + di, 1 + dj : n + 1 + dj]
    return total


def _pad(x: np.ndarray, value=0) -> np.ndarray:
    """``x`` padded by one cell of ``value`` on each side of its last two
    axes, in its own dtype (``np.pad`` does the same some 10 us slower)."""
    out = np.full(x.shape[:-2] + (x.shape[-2] + 2, x.shape[-1] + 2), value, dtype=x.dtype)
    out[..., 1:-1, 1:-1] = x
    return out


def _box_field(closure_up: np.ndarray, closure_right: np.ndarray) -> np.ndarray:
    """The padded (N+2, N+2) boundary field of the N-box: 1 on the axes,
    row and column 0, the closure p~_{i,N+1} in column N+1 and p~_{N+1,j}
    in row N+1, and 0 in the box itself."""
    n = closure_up.size
    field = _pad(np.zeros((n, n)), 1.0)
    field[1:-1, -1] = closure_up
    field[-1, 1:-1] = closure_right
    return field


def _matrix(table: tuple, index: np.ndarray, cells: np.ndarray) -> scipy.sparse.csr_matrix:
    """The table's rows at the cells of the (N, N) mask ``cells``, in
    row-major order, as a square CSR matrix with ascending columns and the
    dtype of the int32 array ``index`` for its indices.  The neighbour at
    cell (i', j') of the box takes the column ``index[i'-1, j'-1]``, one
    outside the box or at a negative index is dropped, and neighbours that
    share a column are summed."""
    n = index.shape[0]
    rows, cols = np.divmod(np.flatnonzero(cells), n)  # contiguous, unlike np.nonzero's
    columns = _pad(index, -1)
    at = (rows + 1) * (n + 2) + cols + 1  # the cells in the padded field
    neighbour = np.stack(
        [columns.reshape(-1)[at + di * (n + 2) + dj] for (di, dj), _ in table], axis=1
    )
    value = np.stack([np.broadcast_to(coef, (n, n))[cells] for _, coef in table], axis=1)
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
    t = _matrix(table, np.arange(n * n, dtype=np.int32).reshape(n, n), np.ones((n, n), dtype=bool))
    return t, _apply(table, -_box_field(closure_up, closure_right)).reshape(-1)


# ---------------------------------------------------------------------------
# solvers


def _iterate(a: scipy.sparse.csr_matrix, c: np.ndarray) -> tuple[np.ndarray, int | None]:
    """Value iteration q <- K q - c from zero, with K = A + I of the
    folded system A q = c of one field, c of shape (1, len(q)): one sparse
    mat-vec per Jacobi step.

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
    [source] = -c  # the reference solves one field
    q, image = np.zeros_like(source), np.empty_like(source)
    for step in range(1, _MAX_ITER + 1):
        image.fill(0.0)
        csr_matvec(n, n, indptr, indices, data, q, image)
        image += source
        if step % _CHECK_EVERY == 0 and np.array_equal(image, q):
            return image, step
        q, image = image, q
    return q, None


def _residual(cells: np.ndarray, table: tuple, b: np.ndarray, values: np.ndarray) -> float:
    """max |T p - b| over the cells of the (N, N) mask ``cells`` and the
    (..., N, N) fields ``values``, for the coupling table ``table`` and b
    of the same shape: the table applied to the fields zeroed off the set
    and padded with zeros, minus b.  On the box it equals bit for bit the
    residual through :func:`assemble_system`."""
    tp = _apply(table, _pad(np.where(cells, values, 0.0)))
    tp -= b
    return float(np.max(np.abs(tp), where=cells, initial=0.0))


def _fold(params: ModelParams, cells: np.ndarray, fields: np.ndarray) -> tuple:
    """The folded system A q = c on the cells of the (N, N) bool mask
    ``cells``, indexed [i-1, j-1], for each padded (N+2, N+2) boundary field
    of the (M, N+2, N+2) array ``fields``.

    A field gives p off the set: on the axes, row and column 0, at the
    cells of the box left out of the set, and in row and column N+1.  Its
    values on the set are not read, and b, (M, N, N), is the table applied
    to minus the field, zeroed on the set.  The set and every field must be
    transpose-symmetric.  q holds the cells of the set with i <= j, row by
    row, and ``pos[i-1, j-1]`` is the index in q of p_{i,j} and of
    p_{j,i}, -1 off the set.  A is the table's rows at those cells with
    each neighbour's column taken through ``pos``: a neighbour off the set
    is dropped, and the two neighbours of a diagonal cell (i, i) that mirror
    each other are summed into one column.  No cell neighbours its own
    mirror, so A keeps the diagonal -1.  c, (M, len(q)), is b at those
    rows.  Returns the table, b, A, c and ``pos``.
    """
    table = _stencil(params, cells.shape[0])
    b = _apply(table, np.where(_pad(cells, False), 0.0, -fields))
    upper = np.triu(cells)
    pos = np.full(cells.shape, -1, dtype=np.int32)
    pos[upper] = pos.T[upper] = np.arange(np.count_nonzero(upper))
    return table, b, _matrix(table, pos, upper), np.stack([field[upper] for field in b]), pos


def _solve_cells(params: ModelParams, cells: np.ndarray, fields: np.ndarray, options=None) -> tuple:
    """Solve the recurrence on the cells of the (N, N) bool mask ``cells``
    once for each padded boundary field of the (M, N+2, N+2) array
    ``fields``, through the folded system of :func:`_fold`.

    One LU of A serves all M fields.  ``options``, a :class:`SolveOptions`,
    selects value iteration instead, the box reference, which solves one
    field only.  Returns (values, residual, iterations): ``values[m]`` is
    the (N, N) field solved with ``fields[m]``, equal to it off the set,
    the residual is the largest max |T p - b| over the set and the fields,
    and ``iterations`` is as in :class:`GridSolution`.  Raises
    :class:`ConvergenceError` when value iteration runs out of steps.
    """
    # the table and b of one solve, shared by its system and its residual
    table, b, a, c, pos = _fold(params, cells, fields)
    if (options or SolveOptions()).method is Method.VALUE_ITERATION:
        q, iterations = _iterate(a, c)
    else:
        a = a.tocsc()  # the CSR copy goes before the factors are made,
        lu = scipy.sparse.linalg.splu(a, permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1)
        q, iterations = lu.solve(c.T).T, 1
        del lu  # and the factors before the residual's arrays
    values = np.where(cells, q[..., pos], fields[:, 1:-1, 1:-1])
    values += 0.0  # a p that underflows to -0 becomes +0; no other bit moves
    residual = _residual(cells, table, b, values)
    if iterations is None:
        raise ConvergenceError(f"no convergence within {_MAX_ITER} iterations", residual)
    return values, residual, iterations


def solve_grid(
    params: ModelParams,
    n: int,
    options: SolveOptions | None = None,
    closure=DEFAULT_CLOSURE,
) -> GridSolution:
    """Solve the closed box system and return the probability field.

    The box case of :func:`_solve_cells`: the set is the whole N-box, and
    its boundary field holds 1 on the axes and the closure on row and
    column N+1.  ``closure`` names a policy, a key of :data:`CLOSURES`, and
    :func:`closure_arrays` refuses any other value, and a box whose predicted
    LU would not fit the 128 MiB budget (N > 574), before any work is done.
    Boundary values of the caller's own go through :func:`_solve_cells`.
    ``options`` selects value iteration, the reference of the tests and the
    benchmark, on the same boxes.  The residual max |T p - b| is taken on
    the full system, also for a :class:`ConvergenceError`.
    """
    edge, _, desc = closure_arrays(params, n, closure)
    box = np.ones((n, n), dtype=bool)
    fields = _box_field(edge, edge)[None]
    [values], residual, iterations = _solve_cells(params, box, fields, options)
    return GridSolution(
        params=params,
        n=n,
        values=values,
        closure=desc,
        residual=residual,
        iterations=iterations,
    )
