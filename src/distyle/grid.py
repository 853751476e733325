"""Finite-grid solver for the extinction probabilities p_{i,j}.

First-step analysis gives the interior recurrence

    p_{i,j} = d i / ((r+d)(i+j)) p_{i-1,j} + d j / ((r+d)(i+j)) p_{i,j-1}
            + r / (2 (r+d)) (p_{i,j+1} + p_{i+1,j}),

with p_{i,0} = p_{0,j} = 1 on the axes.  The quadrant is truncated to the
box 1 <= i, j <= N and the unknown values just outside, p_{i,N+1} and
p_{N+1,j}, are closed with asymptotic estimates.  Unknowns are stacked
row-major, k = (i-1) N + (j-1), producing a banded system T p = b with
bandwidth N that two solvers handle:

* ``DIRECT``           sparse LU of T (SuperLU, minimum-degree ordering on
                       T + T^T), with no size cap,
* ``VALUE_ITERATION``  Jacobi iteration from zero, which increases
                       monotonically toward the minimal solution.

When the caller names no method, the box size picks it: ``DIRECT`` for
N <= ``_DIRECT_MAX_N`` (150), ``VALUE_ITERATION`` above.

When the two closure edges are equal (every named policy), the solution is
transpose-symmetric, p_{i,j} = p_{j,i}, and ``DIRECT`` solves for the
N(N+1)/2 unknowns with i <= j only: it keeps those rows of T and merges
each column into its mirror.  The folded LU has 2.6-2.8 times less fill
than the full one (141k against 371k nonzeros at N=100).  The cap exists
for memory: at r=3, N=200 even the folded LU holds 700k nonzeros, and a
fresh interpreter peaks at 78 MiB for it against 63 MiB for value
iteration (70 MiB for the folded LU at N=150).  Explicit asymmetric
closures are factored unfolded.

The constant field 1 satisfies the interior recurrence, so value iteration
must start below the solution (from zero) to select the probabilistic
solution rather than the trivial one.  Its stopping rule extrapolates the
geometric tail of the update sequence: iteration halts only once the
projected remaining change, update * rate / (1 - rate), drops under tol/2,
so the returned field is within tol of the exact solution of the closed
system, not merely quasi-stationary.

Near criticality value iteration needs about 20 N^2 steps: at r=2.002 it
takes 68,889 at N=60 and 399,323 at N=142, the largest box within the
default ``max_iter``.  Boxes up to N=150 factor by default, but from
N=151 the default is value iteration and such near-critical boxes raise
``ConvergenceError``; solve them with ``Method.DIRECT``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import asymptotics
from .model import ModelParams, extinction_bounds


class Method(enum.Enum):
    DIRECT = "direct"
    VALUE_ITERATION = "vi"


# Largest box the default method factors; above it value iteration keeps
# the memory bounded.
_DIRECT_MAX_N = 150


@dataclass(frozen=True)
class SolveOptions:
    """``method=None`` picks ``DIRECT`` for N <= 150, value iteration above."""

    method: Method | None = None
    tol: float = 1e-12
    max_iter: int = 400_000

    def __post_init__(self) -> None:
        if self.tol <= 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


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
    closure_up: np.ndarray = field(repr=False)  # p~_{i,N+1}, i = 1..N
    closure_right: np.ndarray = field(repr=False)  # p~_{N+1,j}, j = 1..N
    residual: float = float("nan")
    iterations: int = 0
    method: Method = Method.VALUE_ITERATION

    def p(self, i: int, j: int) -> float:
        """Value at (i, j) including the absorbing boundary, which is 1."""
        if i < 0 or j < 0 or i > self.n or j > self.n:
            raise IndexError(f"({i}, {j}) outside the solved box 0..{self.n}")
        if i == 0 or j == 0:
            return 1.0
        return float(self.values[i - 1, j - 1])


# ---------------------------------------------------------------------------
# field layout and kernel


def padded_field(
    n: int,
    closure_up: np.ndarray,
    closure_right: np.ndarray,
    interior: float | np.ndarray = 0.0,
) -> np.ndarray:
    """(N+2)x(N+2) array: row/col 0 hold the boundary 1, row/col N+1 the closure.

    The four corners are never read by the kernel and are set to NaN so that
    any accidental use surfaces immediately.
    """
    f = np.empty((n + 2, n + 2))
    f[1 : n + 1, 1 : n + 1] = interior
    f[0, :] = 1.0
    f[:, 0] = 1.0
    f[1 : n + 1, n + 1] = closure_up
    f[n + 1, 1 : n + 1] = closure_right
    f[0, 0] = f[0, n + 1] = f[n + 1, 0] = f[n + 1, n + 1] = np.nan
    return f


def apply_kernel(params: ModelParams, field_arr: np.ndarray, i: int, j: int) -> float:
    """One application of the recurrence right-hand side at interior cell (i, j).

    ``field_arr`` uses the :func:`padded_field` layout; a fixed point of this
    map on every interior cell solves the closed system.
    """
    n = field_arr.shape[0] - 2
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"({i}, {j}) is not an interior cell of the {n}x{n} box")
    r, d = params.r, params.d
    loss = d / ((r + d) * (i + j))
    return float(
        loss * i * field_arr[i - 1, j]
        + loss * j * field_arr[i, j - 1]
        + params.birth_step * (field_arr[i, j + 1] + field_arr[i + 1, j])
    )


def _loss_coeffs(params: ModelParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Left and down coefficients on the interior, indexed [i-1, j-1]."""
    ii, jj = np.meshgrid(np.arange(1, n + 1), np.arange(1, n + 1), indexing="ij")
    scale = params.d / ((params.r + params.d) * (ii + jj))
    return scale * ii, scale * jj


def _kernel_image(
    params: ModelParams, f: np.ndarray, cl: np.ndarray, cd: np.ndarray
) -> np.ndarray:
    n = f.shape[0] - 2
    a = params.birth_step
    return (
        cl * f[0:n, 1 : n + 1]
        + cd * f[1 : n + 1, 0:n]
        + a * (f[1 : n + 1, 2 : n + 2] + f[2 : n + 2, 1 : n + 1])
    )


# ---------------------------------------------------------------------------
# closure policies


def closure_arrays(
    params: ModelParams, n: int, closure="asymptotic"
) -> tuple[np.ndarray, np.ndarray, str]:
    """Resolve a closure policy to the two edge arrays (p~_{i,N+1}, p~_{N+1,j}).

    By symmetry p_{N+1,j} = p_{j,N+1}, so the named policies fill both edges
    from the same sequence; an explicit pair of arrays may break symmetry.
    """
    if isinstance(closure, str):
        if closure == "asymptotic":
            edge = np.array(
                [asymptotics.closure_value(params, k, n + 1) for k in range(1, n + 1)]
            )
            desc = f"asymptotic ({asymptotics.CLOSURE_DESCRIPTION})"
        elif closure == "bounds-lower":
            edge = np.array(
                [extinction_bounds(params, k, n + 1)[0] for k in range(1, n + 1)]
            )
            desc = "rigorous lower bound (d/r)^(i+j)"
        elif closure == "bounds-upper":
            edge = np.array(
                [extinction_bounds(params, k, n + 1)[1] for k in range(1, n + 1)]
            )
            desc = "rigorous upper bound (d/r)^i + (d/r)^j - (d/r)^(i+j)"
        elif closure == "ones":
            edge = np.ones(n)
            desc = "constant 1"
        else:
            raise ValueError(f"unknown closure policy {closure!r}")
        return edge, edge.copy(), desc
    up, right = closure
    up = np.asarray(up, dtype=float)
    right = np.asarray(right, dtype=float)
    if up.shape != (n,) or right.shape != (n,):
        raise ValueError(f"explicit closure arrays must have shape ({n},)")
    return up, right, "explicit arrays"


# ---------------------------------------------------------------------------
# linear system


def assemble_system(
    params: ModelParams, n: int, closure_up: np.ndarray, closure_right: np.ndarray
) -> tuple[scipy.sparse.csr_matrix, np.ndarray]:
    """Banded system T p = b for the stacked interior unknowns.

    Row k = (i-1) N + (j-1) states the recurrence at (i, j) as
    (K p)_k - p_k = -b_k contributions, i.e. T has -1 on the diagonal, the
    in-box kernel couplings off it, and b collects boundary and closure terms
    with a minus sign.
    """
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    size = n * n
    ivec = np.repeat(np.arange(1, n + 1), n)
    jvec = np.tile(np.arange(1, n + 1), n)
    scale = params.d / ((params.r + params.d) * (ivec + jvec))
    left = scale * ivec
    down = scale * jvec
    a = params.birth_step

    if n == 1:  # single unknown; the diagonal offsets below would collide
        b = np.array([-(left[0] + down[0]) - a * (closure_up[0] + closure_right[0])])
        return scipy.sparse.csr_matrix(np.array([[-1.0]])), b

    up_diag = np.where(jvec[:-1] < n, a, 0.0)  # (i,j) -> (i,j+1), kills block seams
    down_diag = np.where(jvec[1:] > 1, down[1:], 0.0)
    right_diag = np.full(size - n, a)  # (i,j) -> (i+1,j)
    left_diag = left[n:]
    t = scipy.sparse.diags(
        [np.full(size, -1.0), up_diag, down_diag, right_diag, left_diag],
        [0, 1, -1, n, -n],
        format="csr",
    )

    b = np.zeros(size)
    b[ivec == 1] -= left[ivec == 1]  # p_{0,j} = 1
    b[jvec == 1] -= down[jvec == 1]  # p_{i,0} = 1
    b[jvec == n] -= a * closure_up[ivec[jvec == n] - 1]
    b[ivec == n] -= a * closure_right[jvec[ivec == n] - 1]
    return t, b


# ---------------------------------------------------------------------------
# solvers


def _iterate(
    params: ModelParams,
    n: int,
    closure_up: np.ndarray,
    closure_right: np.ndarray,
    options: SolveOptions,
) -> tuple[np.ndarray, int, float]:
    """Value iteration: Jacobi steps from zero.

    Convergence is geometric; the observed update ratio feeds the tail bound
    used for stopping.  The residual max |K p - p| of the returned field is
    max |T p - b| of the assembled system, taken from one more kernel image.
    """
    cl, cd = _loss_coeffs(params, n)
    f = padded_field(n, closure_up, closure_right)
    interior = f[1 : n + 1, 1 : n + 1]
    ratios = []
    prev_delta = None
    for it in range(1, options.max_iter + 1):
        image = _kernel_image(params, f, cl, cd)
        delta = float(np.max(np.abs(image - interior)))
        interior[:] = image
        if delta == 0.0:
            break
        if prev_delta is not None and prev_delta > 0.0:
            ratios.append(delta / prev_delta)
        prev_delta = delta
        if len(ratios) >= 3:
            rate = min(max(ratios[-3:]), 1.0 - 1e-9)
            if delta * rate / (1.0 - rate) <= 0.5 * options.tol:
                break
    else:
        raise ConvergenceError(
            f"no convergence within {options.max_iter} iterations",
            float(np.max(np.abs(_kernel_image(params, f, cl, cd) - interior))),
        )
    residual = float(np.max(np.abs(_kernel_image(params, f, cl, cd) - interior)))
    return interior.copy(), it, residual


def _direct(
    params: ModelParams, n: int, closure_up: np.ndarray, closure_right: np.ndarray
) -> tuple[np.ndarray, float]:
    """Sparse LU; folded onto the unknowns with i <= j for equal closure edges.

    The fold keeps the rows i <= j of T and adds each column (i, j) with
    i > j into its mirror (j, i), i.e. solves T[half] M q = b[half] with the
    0/1 matrix M that copies q to both (i, j) and (j, i).  Returns the field
    and max |T p - b| on the full system.
    """
    t, b = assemble_system(params, n, closure_up, closure_right)
    if np.array_equal(closure_up, closure_right):
        rows, cols = np.triu_indices(n)
        half = rows * n + cols
        pos = np.empty((n, n), dtype=np.int64)
        pos[rows, cols] = pos[cols, rows] = np.arange(half.size)
        mirror = scipy.sparse.csr_matrix(
            (np.ones(n * n), (np.arange(n * n), pos.reshape(-1))),
            shape=(n * n, half.size),
        )
        lu = scipy.sparse.linalg.splu(
            (t[half] @ mirror).tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            relax=1,
            panel_size=1,
        )
        p = mirror @ lu.solve(b[half])
    else:
        p = scipy.sparse.linalg.splu(t.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(b)
    return p.reshape(n, n), float(np.max(np.abs(t @ p - b)))


def solve_grid(
    params: ModelParams,
    n: int,
    options: SolveOptions | None = None,
    closure="asymptotic",
) -> GridSolution:
    """Solve the closed box system and return the probability field.

    ``closure`` is a named policy ("asymptotic", "bounds-lower",
    "bounds-upper", "ones") or an explicit pair of edge arrays.  Without an
    explicit ``options.method`` the box size picks the solver (see the
    module docstring); ``GridSolution.method`` reports the choice.
    """
    options = options or SolveOptions()
    method = options.method
    if method is None:
        method = Method.DIRECT if n <= _DIRECT_MAX_N else Method.VALUE_ITERATION
    closure_up, closure_right, desc = closure_arrays(params, n, closure)
    if method is Method.DIRECT:
        values, residual = _direct(params, n, closure_up, closure_right)
        iterations = 1
    else:
        values, iterations, residual = _iterate(
            params, n, closure_up, closure_right, options
        )
    return GridSolution(
        params=params,
        n=n,
        values=values,
        closure=desc,
        closure_up=closure_up,
        closure_right=closure_right,
        residual=residual,
        iterations=iterations,
        method=method,
    )


# ---------------------------------------------------------------------------
# diagnostics and export


def column_recursion_check(solution: GridSolution) -> float:
    """Maximum defect of the rearranged recurrence

        p_{i,j+1} = 2(r+d)/r p_{i,j} - 2di/(r(i+j)) p_{i-1,j}
                  - 2dj/(r(i+j)) p_{i,j-1} - p_{i+1,j}

    over 1 <= i, j <= N-1.  Diagnostic only: marching this recursion is
    numerically unstable (the 2(r+d)/r factor amplifies solver noise
    geometrically), so it serves as a consistency check, never as a solver.
    """
    params, n = solution.params, solution.n
    if n < 2:
        raise ValueError("defect check needs N >= 2")
    r, d = params.r, params.d
    v = np.ones((n + 1, n + 1))
    v[1:, 1:] = solution.values
    ii, jj = np.meshgrid(np.arange(1, n), np.arange(1, n), indexing="ij")
    predicted = (
        2.0 * (r + d) / r * v[1:n, 1:n]
        - 2.0 * d * ii / (r * (ii + jj)) * v[0 : n - 1, 1:n]
        - 2.0 * d * jj / (r * (ii + jj)) * v[1:n, 0 : n - 1]
        - v[2 : n + 1, 1:n]
    )
    return float(np.max(np.abs(predicted - v[1:n, 2 : n + 1])))


def write_grid_csv(solution: GridSolution, fp) -> None:
    """Rows ``i,j,p`` over the solved box, 12 significant digits, LF endings."""
    fp.write("i,j,p\n")
    for i in range(1, solution.n + 1):
        for j in range(1, solution.n + 1):
            fp.write(f"{i},{j},{solution.values[i - 1, j - 1]:.12g}\n")
