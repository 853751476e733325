"""Generating function P(x, y) = sum_{i,j>=1} p_{i,j} x^i y^j two ways.

Integrating the transport equation along the characteristic through
(x0, y0) from the start to the arrival time s0 kills the unknown boundary
term (the integrating factor pole at s0 is exactly compensated by the
monomial weights) and leaves an explicit representation driven by the first
column p_{i,1} alone:

    P(x0, y0) = (r/2) sum_{i>=1} i p_{i,1} int_0^{s0} (x_u^i + y_u^i) IF(u) du
              - d int_0^{s0} x_u y_u (1/(1-x_u) + 1/(1-y_u)) IF(u) du.

Truncating the sum at I0 terms and folding the geometric tail
(i p_{i,1} ~ 2d/r for large i) into the second integral gives the form
implemented here:

    P = (r/2) sum_{i=1}^{I0} i p_{i,1} int (x^i + y^i) IF
      + d int [ x (x^{I0} - y)/(1-x) + y (y^{I0} - x)/(1-y) ] IF.

All integrands are evaluated through the cancellation-free weighted
coordinates, which are analytic on the closed interval [0, s0], so plain
adaptive Gauss-Legendre panels converge fast with no endpoint special-casing.

The check is the truncated power series of a solved grid, whose rigorous
envelope bounds the discarded tail.  The quadrature takes its first column
from that grid (:func:`query_from_grid`), so the check is not independent of
the grid: it tests the recurrence inside the box, and the first column
against the interior.  It cannot see the truncation error of the box, which
both sides share: near criticality (r=2.002) the N=100 series lies 2.0e-5
from the N=300 series, yet the quadrature matches the N=100 series to
1.7e-14.

The module states the coordinates it serves, [1.4917e-154, 0.9124), at
both ends.  A caller refuses a range outside them before any grid is
solved, and a query (:class:`GenFuncQuery`) refuses a point outside them:
below the lower end or off the unit square by the same rule and text as a
range, past the upper end by the quadrature's tail check.
:func:`_check_range` states the lower end: the square root of the smallest
normal double, so that at every point (x, y) of a range the product x y,
the smallest monomial of the series, is a normal double.  The arrival time
s0 keeps its precision much closer to an axis, down to about 1e-308
(:func:`characteristics.make_path`), but no query reaches it.
:func:`_check_served` states the upper end: a query keeps at most 200
first-column terms, so the largest coordinate served is QUAD_TOL^(1/201),
about 0.9124.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import asymptotics, characteristics
from .grid import GridSolution
from .model import ModelParams, _check_count

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
# The absolute quadrature budget: both the folded tail and the panel error
# stay below it.  Read at call time.
QUAD_TOL = 1e-8


class QuadratureError(RuntimeError):
    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(f"{message} (estimate {estimate:.6e}, bound {error_bound:.3e})")
        self.estimate = estimate
        self.error_bound = error_bound


@dataclass(frozen=True)
class GenFuncQuery:
    """Evaluation request for the quadrature route.

    ``row1[k]`` holds p_{k+1,1}; one monomial integral is kept for each
    entry (``n_terms`` of them) before the folded tail takes over.  The
    budget is :data:`QUAD_TOL`.  The point (x0, y0) must lie in the range
    :func:`_check_range` serves, its smaller coordinate as the lower end.
    """

    x0: float
    y0: float
    row1: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_range("min(x0, y0)", min(self.x0, self.y0), "max(x0, y0)", max(self.x0, self.y0))
        _check_count("len(row1)", len(self.row1))

    @property
    def n_terms(self) -> int:
        """Monomial integrals kept before the folded tail: one per ``row1`` entry."""
        return len(self.row1)


# Most first-column terms a query keeps before the folded tail takes over.
_MAX_TERMS = 200


def default_n_terms(x0: float, y0: float) -> int:
    """Smallest I0 with max(x0, y0)^(I0+1) < :data:`QUAD_TOL`; the folded
    tail then sits below the quadrature budget.  Capped at 200 to keep the
    monomial sum short; :func:`_check_served` refuses a coordinate the cap
    leaves short, and :func:`eval_by_quadrature` a query."""
    base = max(x0, y0)
    return next((n for n in range(1, _MAX_TERMS) if base ** (n + 1) < QUAD_TOL), _MAX_TERMS)


# The smallest coordinate served, sqrt(2.2e-308) = 1.49167e-154: the
# product of any two coordinates from it up is a normal double.
_LOWEST = math.sqrt(np.finfo(float).tiny)


def _check_range(lo_name: str, lo: float, hi_name: str, hi: float) -> None:
    """Reject a range of coordinates outside _LOWEST <= lo <= hi < 1,
    naming both ends as the caller set them.  Below _LOWEST the product
    x y at the range's corner (lo, lo), the smallest monomial of the series
    sum p_{i,j} x^i y^j, is no normal double.  :func:`_check_served` holds
    ``hi`` to the coordinates the term cap serves."""
    if not _LOWEST <= lo <= hi < 1.0:
        # printed as 1.4917e-154, above _LOWEST, so every refused lo lies below it
        raise ValueError(
            f"need 0 < {lo_name} <= {hi_name} < 1 and {lo_name} >= {_LOWEST:.5g}, got {lo} and {hi}"
        )


def _check_served(name: str, coord: float) -> None:
    """Reject a largest coordinate ``coord`` whose folded tail the capped
    :func:`default_n_terms` leaves at or above :data:`QUAD_TOL` (from about
    0.9124 at 1e-8), before any grid is solved.  The ValueError names
    ``name``, the flag or config key the caller set, and no other field."""
    if coord ** (default_n_terms(coord, coord) + 1) >= QUAD_TOL:
        # rounded down, so that every refused coordinate lies above it
        limit = math.floor(QUAD_TOL ** (1.0 / (_MAX_TERMS + 1)) * 1e4) / 1e4
        raise ValueError(
            f"{name} must be below {limit}, got {coord} (past it {_MAX_TERMS} terms leave "
            f"the folded tail max(x, y)^{_MAX_TERMS + 1} above the {QUAD_TOL:g} quadrature budget)"
        )


def query_from_grid(solution: GridSolution, x0: float, y0: float) -> GenFuncQuery:
    """Build a query whose first-column data comes from a solved grid, with
    ``default_n_terms`` entries.

    Entries beyond the grid (evaluation points near 1, where ``n_terms``
    exceeds N) fall back to the asymptotic first-row estimates, by symmetry
    p_{i,1} = p_{1,i}.
    """
    n_terms = default_n_terms(x0, y0)
    row1 = solution.values[: min(n_terms, solution.n), 0].tolist()
    for i in range(solution.n + 1, n_terms + 1):
        row1.append(_first_row(solution.params, i))
    return GenFuncQuery(x0=x0, y0=y0, row1=tuple(row1))


@functools.lru_cache(maxsize=1024)
def _first_row(params: ModelParams, i: int) -> float:
    """Asymptotic p_{1,i}, computed once for all the queries that reach past
    the same grid edge; ``default_n_terms`` caps i at :data:`_MAX_TERMS`."""
    return asymptotics.closure_value(params, 1, i)


def _integrand(params: ModelParams, path, query: GenFuncQuery):
    r, d = params.r, params.d
    coeffs = np.arange(1, query.n_terms + 1) * np.asarray(query.row1)

    def f(u: np.ndarray) -> np.ndarray:
        x, y, wx, wy = characteristics.weighted_coords(path, u)
        # sum_i i p_{i,1} t^(i-1) at t = x and t = y, as one matrix product
        sums = np.vander(np.concatenate((x, y)), query.n_terms, increasing=True) @ coeffs
        monomials = 0.5 * r * (wx * sums[: x.size] + wy * sums[x.size :])
        tail = d * (
            wx * (x**query.n_terms - y) / (1.0 - x)
            + wy * (y**query.n_terms - x) / (1.0 - y)
        )
        return monomials + tail

    return f


def _panels(f, lo, hi) -> list[float]:
    """The 15-point Gauss-Legendre sums of the panels [lo[k], hi[k]], from
    one call of the integrand ``f`` on the nodes of them all."""
    lo, hi = np.asarray(lo), np.asarray(hi)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    values = f((mid[:, None] + half[:, None] * _GL_NODES).ravel()).reshape(lo.size, -1)
    return [h * float(np.dot(_GL_WEIGHTS, v)) for h, v in zip(half.tolist(), values)]


_MAX_PANELS = 20_000


def _adaptive(
    f, a: float, b: float, tol: float, depth: int, sums, budget: list[int]
) -> tuple[float, float]:
    """Recursive bisection of the panel [a, b]; ``sums`` holds the sums of
    the panel and of its left and right halves, which the caller evaluated.
    Accepts the panel when halving moves it by less than its share of the
    budget, or by no more than rounding (a few ulps of the panel), which
    further halving cannot reduce.  An accepted panel reports at least that
    floor as its error, so a budget below rounding, or a NaN integrand,
    fails the caller's check at once instead of bisecting to the panel cap.
    Otherwise the four quarter panels are evaluated in one integrand call
    and each half recurses with its two quarters.  ``budget`` counts the
    halves examined.  Returns (integral, error bound)."""
    whole, left, right = sums
    mid = 0.5 * (a + b)
    err = abs(left + right - whole)
    floor = 4 * math.ulp(left + right)
    budget[0] += 2
    if err <= max(tol, floor) or math.isnan(err) or depth >= 48 or budget[0] >= _MAX_PANELS:
        return left + right, max(err, floor)
    q1, q3 = 0.5 * (a + mid), 0.5 * (mid + b)
    quarters = _panels(f, (a, q1, mid, q3), (q1, mid, q3, b))
    le, lerr = _adaptive(f, a, mid, 0.5 * tol, depth + 1, (left, *quarters[:2]), budget)
    re, rerr = _adaptive(f, mid, b, 0.5 * tol, depth + 1, (right, *quarters[2:]), budget)
    return le + re, lerr + rerr


def eval_by_quadrature(params: ModelParams, query: GenFuncQuery) -> float:
    """P(x0, y0) by adaptive 15-point Gauss-Legendre along the characteristic.

    Raises :class:`QuadratureError` when ``n_terms`` is too short for the
    folded tail, max(x0, y0)^(n_terms+1), to fall below the budget
    :data:`QUAD_TOL` (before any panel runs, so the estimate is NaN), or
    when the panels miss the budget (or the integrand is NaN).  The query
    lies in the range :func:`_check_range` serves, where s0 is at least
    min(x0, y0) / r >= 1.4917e-154 * 2^-500, about 4.6e-305, a normal
    double, so no panel node rounds past it.
    """
    tail = max(query.x0, query.y0) ** (query.n_terms + 1)
    if tail >= QUAD_TOL:
        raise QuadratureError(
            f"{query.n_terms} terms leave a folded tail above the budget", math.nan, tail
        )
    path = characteristics.make_path(params, query.x0, query.y0)
    f = _integrand(params, path, query)
    mid = 0.5 * path.s0
    sums = _panels(f, (0.0, 0.0, mid), (path.s0, mid, path.s0))
    value, err = _adaptive(f, 0.0, path.s0, QUAD_TOL, 0, sums, [0])
    if not err <= QUAD_TOL:  # a NaN integrand fails here too
        raise QuadratureError("quadrature did not meet its budget", value, err)
    return value


class SeriesValue(NamedTuple):
    value: float
    tail_bound: float


def eval_from_grid(solution: GridSolution, x0: float, y0: float) -> SeriesValue:
    """Truncated series sum_{i,j<=N} p_{i,j} x0^i y0^j with a rigorous tail bound.

    The discarded terms are bounded through the envelope
    p_{i,j} <= (d/r)^i + (d/r)^j, summed in closed form over the L-shaped
    region outside the box.
    """
    characteristics._check_point("x0", x0, "y0", y0)
    n = solution.n
    px = x0 ** np.arange(1, n + 1)
    py = y0 ** np.arange(1, n + 1)
    value = float(px @ solution.values @ py)

    rho = solution.params.ratio

    def geom(q: float, lo: int, hi: int | None) -> float:
        # sum_{k=lo}^{hi} q^k, hi=None meaning infinity
        if hi is None:
            return q**lo / (1.0 - q)
        return (q**lo - q ** (hi + 1)) / (1.0 - q)

    tail = (
        geom(rho * x0, n + 1, None) * geom(y0, 1, None)
        + geom(x0, n + 1, None) * geom(rho * y0, 1, None)
        + geom(rho * x0, 1, n) * geom(y0, n + 1, None)
        + geom(x0, 1, n) * geom(rho * y0, n + 1, None)
    )
    return SeriesValue(value, float(tail))
