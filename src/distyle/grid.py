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
mirror.  Both solvers work on A q = c:

* ``DIRECT``           sparse LU of A (SuperLU, minimum-degree ordering on
                       A + A^T), with no size cap,
* ``VALUE_ITERATION``  Jacobi iteration q <- (A + I) q - c from zero, one
                       sparse mat-vec per step, which increases
                       monotonically toward the minimal solution.

When the caller names no method, the box size picks it: ``DIRECT`` for
N <= ``_DIRECT_MAX_N`` (150), ``VALUE_ITERATION`` above.  The folded LU
has 2.6-2.8 times less fill than the full one (141k against 371k nonzeros
at N=100).  The cap exists for memory: at r=3, N=200 even the folded LU
holds 700k nonzeros, and a fresh interpreter peaks at 79 MiB for it
against 71 MiB for value iteration, whose peak comes from assembling and
folding T (71 MiB for the folded LU at N=150).

The constant field 1 satisfies the interior recurrence, so value iteration
must start below the solution (from zero) to select the probabilistic
solution rather than the trivial one.  Its stopping rule extrapolates the
geometric tail of the update sequence: iteration halts only once the
projected remaining change, update * rate / (1 - rate), drops under
``_TOL``/2, so the returned field is within ``_TOL`` of the exact solution
of the closed system, not merely quasi-stationary.  The rule is tested
once per block of ``_CHECK_EVERY`` (32) steps, on the updates of the
block's last four steps; the other steps are bare mat-vecs, about half the
cost of a measured one.
The rate is the larger of the largest one-step update ratio and the
per-step ratio of the update across the whole block.  At the rounding
level the one-step ratios are noise, but the block ratio is about 1, so
noise cannot stop the iteration early.  ``GridSolution.rate`` reports the
last estimate, the one the stop used unless it met an exact fixed point.

Near criticality value iteration needs about 17-19 N^2 steps: at r=2.002
it takes 69,053 at N=60 and 396,029 at N=142, where it lands 5.9e-13 from
the direct solve.  Boxes up to N=150 factor by default, but from N=151 the
default is value iteration, and such near-critical boxes exhaust the
iteration cap ``_MAX_ITER`` (400,000) and raise ``ConvergenceError``
(N=150 does too, with ``Method.VALUE_ITERATION``); solve them with
``Method.DIRECT``.

The module only computes; :func:`distyle.harness.write_grid_csv` writes a
solved field as CSV.
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

    def __str__(self) -> str:
        return self.value


# Largest box the default method factors; above it value iteration keeps
# the memory bounded.
_DIRECT_MAX_N = 150

# Value iteration runs in blocks of this many Jacobi steps and measures the
# update only in the last _CHECKED of them.
_CHECK_EVERY = 32
_CHECKED = 4
# Most Jacobi steps value iteration takes before it raises ConvergenceError.
_MAX_ITER = 400_000
# Value iteration's accuracy target: the distance its stop allows between
# the returned field and the solution of the closed system.
_TOL = 1e-12


@dataclass(frozen=True)
class SolveOptions:
    """``method`` is a :class:`Method` or its name ("direct", "vi");
    ``None`` picks ``DIRECT`` for N <= 150, value iteration above.  Value
    iteration stops within ``_TOL`` of the solution, or raises after
    ``_MAX_ITER`` steps."""

    method: Method | None = None

    def __post_init__(self) -> None:
        if self.method is not None:
            object.__setattr__(self, "method", Method(self.method))


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
    iterations: int
    method: Method
    rate: float  # value iteration's last contraction estimate; NaN when direct

    def p(self, i: int, j: int) -> float:
        """Value at (i, j) including the absorbing boundary, which is 1."""
        if i < 0 or j < 0 or i > self.n or j > self.n:
            raise IndexError(f"({i}, {j}) outside the solved box 0..{self.n}")
        if i == 0 or j == 0:
            return 1.0
        return float(self.values[i - 1, j - 1])


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
    of shape (N,).  By symmetry p~_{N+1,k} = p~_{k,N+1}, so both returned
    edges are that one array.
    """
    if isinstance(closure, str):
        if closure not in CLOSURES:
            raise ValueError(f"unknown closure policy {closure!r}")
        desc, value = CLOSURES[closure]
        edge = np.array([value(params, k, n + 1) for k in range(1, n + 1)])
        return edge, edge, desc
    edge = np.asarray(closure, dtype=float)
    if edge.shape != (n,):
        raise ValueError(f"an explicit closure is one edge array of shape ({n},)")
    return edge, edge, "explicit array"


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


def _folded_system(
    params: ModelParams, n: int, edge: np.ndarray
) -> tuple[
    scipy.sparse.csr_matrix,
    np.ndarray,
    scipy.sparse.csr_matrix,
    np.ndarray,
    scipy.sparse.csr_matrix,
]:
    """The full system T p = b and the folded system A q = c the solvers
    work on, for the closure ``edge`` on both sides of the box.

    The fold keeps the rows i <= j of T and adds each column (i, j) with
    i > j into its mirror (j, i): A = T[half] M and c = b[half], with the
    0/1 mirror matrix M that copies q to both (i, j) and (j, i), so that
    p = M q.  No cell neighbours its own mirror, so A keeps the diagonal -1.
    Returns (T, b, A, c, M).
    """
    t, b = assemble_system(params, n, edge, edge)
    rows, cols = np.triu_indices(n)
    half = rows * n + cols
    pos = np.empty((n, n), dtype=np.int64)
    pos[rows, cols] = pos[cols, rows] = np.arange(half.size)
    mirror = scipy.sparse.csr_matrix(
        (np.ones(n * n), (np.arange(n * n), pos.reshape(-1))),
        shape=(n * n, half.size),
    )
    return t, b, t[half] @ mirror, b[half], mirror


def _iterate(
    a: scipy.sparse.csr_matrix, c: np.ndarray
) -> tuple[np.ndarray, int | None, float]:
    """Value iteration q <- K q - c from zero, with K = A + I of the
    folded system A q = c: one sparse mat-vec per Jacobi step.

    K is nonnegative, and so is -c for nonnegative closures, so the
    iterates rise monotonically.  The steps run in blocks of
    ``_CHECK_EVERY``, clipped at ``_MAX_ITER``.  Only the last
    ``_CHECKED`` steps of a block measure their update max|K q - c - q|;
    the others are bare, and a block shorter than ``_CHECKED`` tests
    nothing.  At a block's last step the geometric tail of the updates
    is extrapolated: the rate is the largest of the three one-step update
    ratios and, from the second block on, of the per-step ratio of the
    update to the one at the previous check, capped at 1 - 1e-9.  The
    block ratio is about 1 once the updates reach the rounding level, so
    noise in the one-step ratios cannot fake convergence.  Iteration stops
    when update * rate / (1 - rate) <= ``_TOL``/2, or at an update of
    exactly 0.

    Returns the iterate, its step count (``None`` when ``_MAX_ITER`` ran
    out) and the last rate estimate (NaN before the first check).
    """
    k = a + scipy.sparse.identity(a.shape[0], format="csr")
    source = -c
    q = np.zeros_like(source)
    done = 0
    rate = float("nan")
    check_delta, check_step = 0.0, 0  # update at the previous block's check
    while done < _MAX_ITER:
        size = min(_CHECK_EVERY, _MAX_ITER - done)
        checked = _CHECKED if size >= _CHECKED else 0
        for _ in range(size - checked):
            q = k @ q
            q += source
        done += size - checked
        deltas = []
        for _ in range(checked):
            image = k @ q
            image += source
            deltas.append(float(np.max(np.abs(image - q))))
            q = image
            done += 1
            if deltas[-1] == 0.0:
                return q, done, rate
        if not checked:
            continue
        rate = max(now / before for before, now in zip(deltas, deltas[1:]))
        if check_delta > 0.0:
            rate = max(rate, (deltas[-1] / check_delta) ** (1.0 / (done - check_step)))
        rate = min(rate, 1.0 - 1e-9)
        if deltas[-1] * rate / (1.0 - rate) <= 0.5 * _TOL:
            return q, done, rate
        check_delta, check_step = deltas[-1], done
    return q, None, rate


def solve_grid(
    params: ModelParams,
    n: int,
    options: SolveOptions | None = None,
    closure=DEFAULT_CLOSURE,
) -> GridSolution:
    """Solve the closed box system and return the probability field.

    ``closure`` is a named policy (a key of :data:`CLOSURES`) or one
    explicit edge array p~_{k,N+1} = p~_{N+1,k}, k = 1..N.  Without an
    explicit ``options.method`` the box size picks the solver (see the
    module docstring); ``GridSolution.method`` reports the choice.  The
    residual max |T p - b| is taken on the full system, also for a
    :class:`ConvergenceError`.
    """
    options = options or SolveOptions()
    method = options.method
    if method is None:
        method = Method.DIRECT if n <= _DIRECT_MAX_N else Method.VALUE_ITERATION
    edge, _, desc = closure_arrays(params, n, closure)
    t, b, a, c, mirror = _folded_system(params, n, edge)
    if method is Method.DIRECT:
        lu = scipy.sparse.linalg.splu(
            a.tocsc(), permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1
        )
        q, iterations, rate = lu.solve(c), 1, float("nan")
    else:
        q, iterations, rate = _iterate(a, c)
    p = mirror @ q
    residual = float(np.max(np.abs(t @ p - b)))
    if iterations is None:
        raise ConvergenceError(
            f"no convergence within {_MAX_ITER} iterations, "
            f"last rate estimate {rate:.9g}",
            residual,
        )
    return GridSolution(
        params=params,
        n=n,
        values=p.reshape(n, n),
        closure=desc,
        closure_edge=edge,
        residual=residual,
        iterations=iterations,
        method=method,
        rate=rate,
    )
