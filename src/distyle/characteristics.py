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

    kappa - 1 = -2 (1 - rho) x0 y0 / (x0 + y0 - 2 rho x0 y0),

which keeps its full relative precision however close to an axis the start
point lies.

Both denominators stay positive up to s0, and each crosses zero exactly once
past s0 (the blow-up times s_plus and s_minus).  The integrating factor
exp(int_0^u R) along the curve has the closed form

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


def _check_point(x0: float, y0: float) -> None:
    """Reject a point (x0, y0) outside the open unit square, where the
    characteristics start and the generating function converges: the one
    statement of the rule."""
    if not (0.0 < x0 < 1.0 and 0.0 < y0 < 1.0):
        raise ValueError(f"(x0, y0) must lie in the open unit square, got ({x0}, {y0})")


def make_path(params: ModelParams, x0: float, y0: float) -> CharacteristicPath:
    """Build the characteristic through (x0, y0), 0 < x0, y0 < 1."""
    _check_point(x0, y0)
    r, d = params.r, params.d
    rho = params.ratio
    xy = x0 * y0  # formed first, so that swapping x0 and y0 changes neither s0 nor |b|
    denom = x0 + y0 - 2.0 * rho * xy
    kappa_m1 = -2.0 * (1.0 - rho) * xy / denom
    kappa = 1.0 + kappa_m1
    s0 = math.log1p(kappa_m1) / (d - r)
    b = (1.0 - rho) * (y0 - x0) / denom
    return CharacteristicPath(params, x0, y0, kappa, s0, b, denom)


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
    rho = path.params.ratio
    x0, y0 = path.x0, path.y0
    nu = -np.expm1((r - d) * (s - path.s0))
    start = np.exp(-d * s) * (2.0 * (1.0 - rho) / path.denom)
    shared = -(1.0 - rho) * np.expm1(-d * s) + rho * nu
    return nu, start * y0 * (1.0 - rho * x0) + shared, start * x0 * (1.0 - rho * y0) + shared


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


def critical_times(path: CharacteristicPath) -> tuple[float, float]:
    """Blow-up times (s_plus, s_minus) of x and y, both strictly past s0.

    Bracketed on the rescaled denominators of ``_pieces``, then solved to
    rounding by Brent's method.  s_plus < s_minus iff y0 < x0; the two
    coincide on the diagonal.  Near an axis the first-order terms of the
    denominator cancel at s = 0, so a root s carries a relative error of
    about eps / ((1 - rho) r (s - s0)); where four times that exceeds 1e-6,
    or Brent's method does not converge, this raises ArithmeticError.
    """
    # imported here: scipy.optimize adds about 0.15 s to ``import distyle``
    from scipy.optimize import brentq

    r, d = path.params.r, path.params.d
    eps = np.finfo(float).eps
    results = []
    for k in (1, 2):  # Dx root (s_plus), then Dy root (s_minus)

        def g(s):
            return float(_pieces(path, s)[k])

        lo = path.s0
        if g(lo) <= 0.0:
            raise ArithmeticError("denominator not positive at s0; invalid path")
        step, cap = 0.5 / d, 50.0 / (r - d)
        hi = lo + step
        while g(hi) > 0.0:
            step *= 2.0
            hi = lo + step
            if step > cap:
                raise ArithmeticError("no denominator sign change within the search cap")
        root, info = brentq(g, lo, hi, xtol=1e-300, rtol=4 * eps, full_output=True, disp=False)
        if not info.converged:
            raise ArithmeticError(f"blow-up time not found: Brent's method {info.flag}")
        if 4.0 * eps > 1e-6 * (1.0 - path.params.ratio) * r * (root - path.s0):
            raise ArithmeticError(
                f"blow-up time {root:.3g} lies too close to s0 = {path.s0:.3g} to "
                "resolve to 1e-6: the start point is too near an axis"
            )
        results.append(root)
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
