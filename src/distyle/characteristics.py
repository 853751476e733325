"""Characteristic curves of the transport equation for the generating function.

Summing the extinction recurrence against x^i y^j turns it into a first-order
PDE for P(x, y) = sum p_{i,j} x^i y^j on the unit square:

    Q(x, y) P_x + Q(y, x) P_y + R(x, y) P = h(x, y),

with velocity and reaction coefficients

    Q(x, y) = (r + d) x - r/2 - (r/2) x/y - d x^2,
    R(x, y) = r/(2x) + r/(2y) - d x - d y.

A characteristic started at (x0, y0) inside the open unit square follows
x' = Q(x, y), y' = Q(y, x) and reaches the origin at a finite time s0.  The
trajectory is explicit.  Writing rho = d/r,

    kappa = (x0 + y0 - 2 x0 y0) / (x0 + y0 - 2 rho x0 y0)  in (0, 1),
    s0    = log(kappa) / (d - r) > 0,
    b     = (1 - rho) (y0 - x0) / (x0 + y0 - 2 rho x0 y0),

    nu(s) = e^{d s} (1 - kappa e^{(r-d) s}),
    x(s)  = nu(s) / (e^{d s} (1 - rho kappa e^{(r-d) s}) + b),
    y(s)  = nu(s) / (e^{d s} (1 - rho kappa e^{(r-d) s}) - b).

kappa itself rounds to 1 once min(x0, y0) falls below about 1e-16, so s0 is
computed as log1p(kappa - 1) / (d - r) from the exact difference

    kappa - 1 = -2 (1 - rho) x0 y0 / (x0 + y0 - 2 rho x0 y0).

Its numerator is formed as 2^-e x0 y0, the mantissa of the smaller
coordinate min(x0, y0) = m 2^e times the larger one, and the quotient is
scaled back by 2^e.  Powers of two scale exactly, so where the plain
formula's product and quotient are normal doubles every bit is the same, and
where x0 y0 is not, kappa - 1 keeps its full relative precision all the
same: at r=3 and x0 = y0 = 1e-160, s0 = 3.33333333333e-161, where the
subnormal x0 y0 gave 3.3324727812e-161.
Only a start point within about 1e-308 of an axis, whose s0 lies below the
smallest normal double, loses digits.

Every 1 - rho of the layer, here and in ``_pieces``, is formed once, as
(r - d)/r (``ModelParams.gap``).  Near criticality 1.0 - rho would cancel the
rounding of rho into s0, b and both denominators: at r=2.002, d=2 and
x0 = y0 = 1e-200 it put s0 241 ulp from the exact value.

Both denominators stay positive up to s0, and each crosses zero exactly once
past s0 (the blow-up times s_plus and s_minus, which ``critical_times`` finds
by bisection).  The integrating factor exp(int_0^u R) along the curve has the
closed form

    IF(u) = [Dx(0) / Dx(u)] [Dy(0) / Dy(u)] [nu(0) / nu(u)] e^{(r+d) u},

1 at u = 0, with a simple pole at s0 from the nu factor alone.  The code
reads nu, Dx and Dy only as e^{-ds} (nu, Dx, Dy) from ``_pieces``, which
cannot overflow and turns e^{(r+d) u} into e^{(r-2d) u}.  Products x^i y^j IF
with i + j >= 1 stay finite at s0; ``weighted_coords`` evaluates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams


@dataclass(frozen=True)
class CharacteristicPath:
    """Closed-form characteristic through (x0, y0); see the module docstring."""

    params: ModelParams
    x0: float
    y0: float
    kappa: float
    s0: float
    b: float
    denom: float  # x0 + y0 - 2 rho x0 y0


def _check_point(x_name: str, x0: float, y_name: str, y0: float) -> None:
    """Reject a point (x0, y0) outside the open unit square, where the
    characteristics start and the generating function converges: the one
    statement of the rule, naming the coordinates as ``x_name`` and
    ``y_name``, the flags or parameters the caller set."""
    if not (0.0 < x0 < 1.0 and 0.0 < y0 < 1.0):
        raise ValueError(f"({x_name}, {y_name}) must lie in the open unit square, got ({x0}, {y0})")


def make_path(params: ModelParams, x0: float, y0: float) -> CharacteristicPath:
    """Build the characteristic through (x0, y0), 0 < x0, y0 < 1."""
    _check_point("x0", x0, "y0", y0)
    rho, gap = params.ratio, params.gap
    xy = x0 * y0  # formed first, so that swapping x0 and y0 changes neither s0 nor |b|
    denom = x0 + y0 - 2.0 * rho * xy
    # 2^-e x0 y0 with min(x0, y0) = m 2^e, scaled back by 2^e once divided
    m, e = math.frexp(min(x0, y0))
    kappa_m1 = math.ldexp(-2.0 * gap * (m * max(x0, y0)) / denom, e)
    s0 = math.log1p(kappa_m1) / (params.d - params.r)
    b = gap * (y0 - x0) / denom
    return CharacteristicPath(params, x0, y0, 1.0 + kappa_m1, s0, b, denom)


def _pieces(path: CharacteristicPath, s):
    """e^{-ds} (nu, Dx, Dy) at time s (scalar or array), cancellation-free.

    With L = 2 (1 - rho) / (x0 + y0 - 2 rho x0 y0), nu~ = -expm1((r-d)(s-s0))
    and

        Dx~ = e^{-ds} L y0 (1 - rho x0) - (1 - rho) expm1(-d s) + rho nu~

    (Dy~ likewise, x0 and y0 swapped) equals 1 - rho kappa e^{(r-d)s}
    + b e^{-ds} for every s.  On [0, s0] it adds nonnegative terms, none
    above 1 + |b|, so it cannot overflow and keeps its relative precision
    near an axis, where Dx~(0) = L y0 (1 - rho x0) is tiny.
    """
    r, d = path.params.r, path.params.d
    rho, gap = path.params.ratio, path.params.gap
    x0, y0 = path.x0, path.y0
    nu = -np.expm1((r - d) * (s - path.s0))
    start = np.exp(-d * s) * (2.0 * gap / path.denom)
    shared = -gap * np.expm1(-d * s) + rho * nu
    return nu, start * y0 * (1.0 - x0 * rho) + shared, start * x0 * (1.0 - y0 * rho) + shared


def eval_path(path: CharacteristicPath, s):
    """Trajectory point (x(s), y(s)); s may be a scalar or an array.

    Regular on [0, s0]; past s0, evaluation close to a blow-up time raises.
    """
    nu, dx, dy = _pieces(path, s)
    near_root = (np.abs(dx) < 1e-14) | (np.abs(dy) < 1e-14)
    if np.any(near_root & (np.asarray(s) > path.s0)):
        raise ZeroDivisionError(
            "trajectory denominator vanishes: s is at or near a blow-up "
            "time (s_plus for x, s_minus for y)"
        )
    return nu / dx, nu / dy


def _root_error(path: CharacteristicPath, s: float) -> float:
    """The relative error 4 eps / ((r - d) (s - s0)) that a blow-up time s
    of ``critical_times`` may carry: the one statement of the estimate,
    which ``critical_times`` refuses above 1e-6 and ``distyle
    characteristics`` reads for the digits it prints.  Divided twice, so
    that it overflows to inf rather than dividing by an underflowed 0."""
    return 4.0 * np.finfo(float).eps / (path.params.r - path.params.d) / (s - path.s0)


def critical_times(path: CharacteristicPath) -> tuple[float, float]:
    """Blow-up times (s_plus, s_minus) of x and y, both strictly past s0.

    Found by bisection of the rescaled denominators of ``_pieces`` down to
    adjacent doubles.  Past s0 a denominator reads
    1 + b e^{-ds} - rho e^{(r-d)(s-s0)} with |b| <= 1 - rho, so it is at
    most -2 from the offset s - s0 = log(4/rho) / (r - d) on: that offset
    caps the bracket [s0, s0 + cap], on the curve's own scale, and
    e^{(r-d)(s-s0)} stays at most 4/rho, finite for every admitted rate.
    s_plus < s_minus iff y0 < x0; the two coincide on the diagonal.  Near
    an axis the first-order terms of the denominator cancel at s = 0, so a
    root s carries a relative error of about eps / ((r - d) (s - s0));
    where ``_root_error``, four times that, exceeds 1e-6, or a denominator
    does not change sign on the bracket, this raises ArithmeticError.  The
    refusal names the root and its error estimate, and prints no digit of
    the root itself.
    """
    cap = math.log(4.0 / path.params.ratio) / (path.params.r - path.params.d)
    results = []
    for k, name in ((1, "s_plus"), (2, "s_minus")):  # the roots of Dx and Dy
        lo, hi = path.s0, path.s0 + cap
        if not _pieces(path, lo)[k] > 0.0 >= _pieces(path, hi)[k]:
            raise ArithmeticError("denominator does not change sign past s0; invalid path")
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:  # down to adjacent doubles, the root in (lo, hi]
            if _pieces(path, mid)[k] > 0.0:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        error = _root_error(path, hi)
        if error > 1e-6:
            raise ArithmeticError(
                f"blow-up time {name} lies too close to s0 = {path.s0:.3g} to resolve "
                f"to 1e-6 (relative error up to {error:.1g}): the start point is too near an axis"
            )
        results.append(hi)
    return results[0], results[1]


def integrating_factor(path: CharacteristicPath, u):
    """IF(u) = exp(int_0^u R) along the curve, for 0 <= u < s0.

    Exactly 1 at u = 0; diverges like a simple pole as u -> s0, where only
    the weighted products of ``weighted_coords`` remain finite.
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0.0) or np.any(u_arr >= path.s0):
        raise ValueError("integrating factor is defined on [0, s0) only")
    r, d = path.params.r, path.params.d
    nu0, dx0, dy0 = _pieces(path, 0.0)
    nu, dx, dy = _pieces(path, u)
    return (dx0 / dx) * (dy0 / dy) * (nu0 / nu) * np.exp((r - 2.0 * d) * u)


def weighted_coords(path: CharacteristicPath, u):
    """(x, y, x*IF, y*IF) at time(s) u in [0, s0], cancellation-free.

    The products absorb the pole of IF.  In the rescaled triple of ``_pieces``,
        x IF = C e^{(r-2d)u} / (Dx^2 Dy),   y IF = C e^{(r-2d)u} / (Dx Dy^2),
    with C = nu(0) Dx(0) Dy(0), so monomial weights x^i y^j IF with
    i + j >= 1 extend continuously to the arrival time s0.
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0.0) or np.any(u_arr > path.s0 * (1.0 + 1e-9)):
        raise ValueError("weighted coordinates are defined on [0, s0] only")
    r, d = path.params.r, path.params.d
    nu0, dx0, dy0 = _pieces(path, 0.0)
    nu, dx, dy = _pieces(path, u)
    c = nu0 * (dx0 * dy0)
    scale = c * np.exp((r - 2.0 * d) * u_arr) / (dx * dy)
    return nu / dx, nu / dy, scale / dx, scale / dy
