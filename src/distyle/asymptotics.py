"""Large-j expansions of the extinction probability and boundary closure.

Starting from one pin and j thrums, extinction becomes unlikely as j grows
and the probability behaves like an inverse power series in j:

    p_{1,j} = (2d/r) / j + 4d (2d - r) / r^2 / j^2 + ...

More generally, for a fixed number i of pins,

    p_{i,j} ~ (2d/r)^i * i! / j^i.

Both row-1 coefficients come from the recurrence the grid solves: balanced
at row 1 it reads c1 = 2d/r at order 1 and c2 = e2 - 2 c1 at order 1/j,
where e2 = 2 c1^2 is the leading coefficient of row 2, so c2 = 2 c1 (c1 - 1).

These expansions close the finite solver grid: the unknown values just
outside the grid are replaced by their asymptotic estimates, clamped into
the rigorous envelope so that a poor expansion (near-critical r, small j)
can never push the closure outside what is provably possible.
"""

from __future__ import annotations

import math

from .model import ModelParams, _check_count, extinction_bounds


def row1_coefficients(params: ModelParams) -> tuple[float, float]:
    """Coefficients (c1, c2) of p_{1,j} ~ c1/j + c2/j^2: c1 = 2d/r and
    c2 = 4d (2d - r) / r^2."""
    r, d = params.r, params.d
    return 2.0 * d / r, 4.0 * d * (2.0 * d - r) / (r * r)


def asymptotic_p1j(params: ModelParams, j: int) -> float:
    """Two-term expansion c1/j + c2/j^2 of p_{1,j}, clamped to [0, 1].

    The boundary value p_{1,0} = 1 is not asymptotic; j must be >= 1.
    """
    _check_count("j", j)
    c1, c2 = row1_coefficients(params)
    return min(1.0, max(0.0, c1 / j + c2 / (j * j)))


def asymptotic_pij(params: ModelParams, i: int, j: int) -> float:
    """Leading-order p_{i,j} ~ (2d/r)^i i! / j^i, clamped into the envelope.

    Evaluated in log space so large i or j cannot overflow; never NaN.
    """
    _check_count("i", i)
    _check_count("j", j)
    log_value = i * (math.log(2.0 * params.d / params.r) - math.log(j)) + math.lgamma(
        i + 1
    )
    value = 1.0 if log_value >= 0.0 else math.exp(log_value)
    lower, upper = extinction_bounds(params, i, j)
    return min(upper, max(lower, value))


def closure_value(params: ModelParams, i: int, j: int) -> float:
    """Boundary closure p~_{i,j} for grid cells just outside the solved box.

    Two-term 1/j expansion for the first row, factorial leading term for
    deeper rows, both clamped into the rigorous envelope.  Symmetric usage:
    for a cell below the diagonal pass the small index as ``i``.
    """
    if i == 1:
        value = asymptotic_p1j(params, j)
        lower, upper = extinction_bounds(params, i, j)
        return min(upper, max(lower, value))
    return asymptotic_pij(params, i, j)


CLOSURE_DESCRIPTION = (
    "two-term 1/j expansion on row 1, factorial leading order for i >= 2, "
    "clamped into the rigorous envelope"
)
