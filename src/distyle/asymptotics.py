"""Large-j expansions of the extinction probability and boundary closure.

Starting from one pin and j thrums, extinction becomes unlikely as j grows
and the probability behaves like an inverse power series in j:

    p_{1,j} = (2d/r) / j - 2d (r^2 + d r + 2 d^2) / (r^2 (r + d)) / j^2 + ...

More generally, for a fixed number i of pins,

    p_{i,j} ~ (2d/r)^i * i! / j^i.

These expansions close the finite solver grid: the unknown values just
outside the grid are replaced by their asymptotic estimates, clamped into
the rigorous envelope so that a poor expansion (near-critical r, small j)
can never push the closure outside what is provably possible.
"""

from __future__ import annotations

import math

from .model import ModelParams, extinction_bounds


def row1_coefficients(params: ModelParams) -> tuple[float, float, float]:
    """Coefficients (c1, c2, c3) of p_{1,j} ~ c1/j + c2/j^2 + c3/j^3."""
    r, d = params.r, params.d
    c1 = 2.0 * d / r
    c2 = -2.0 * d * (r * r + d * r + 2.0 * d * d) / (r * r * (r + d))
    half = r / 2.0 + d
    c3 = d * (
        (2.0 / r) * (1.0 + 2.0 * d / r) ** 2
        - 24.0 * d * half / (r * r * (r + d))
        + 5.0 * r * r * d * d / (2.0 * (r + d) ** 2 * half**3)
    )
    return c1, c2, c3


def asymptotic_p1j(params: ModelParams, j: int) -> float:
    """Two-term expansion c1/j + c2/j^2 of p_{1,j}, clamped to [0, 1].

    The boundary value p_{1,0} = 1 is not asymptotic; j must be >= 1.
    """
    if j < 1:
        raise ValueError(f"expansion needs j >= 1, got j={j}")
    c1, c2, _ = row1_coefficients(params)
    return min(1.0, max(0.0, c1 / j + c2 / (j * j)))


def asymptotic_pij(params: ModelParams, i: int, j: int) -> float:
    """Leading-order p_{i,j} ~ (2d/r)^i i! / j^i, clamped into the envelope.

    Evaluated in log space so large i or j cannot overflow; never NaN.
    """
    if i < 1 or j < 1:
        raise ValueError(f"expansion needs i, j >= 1, got ({i}, {j})")
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
