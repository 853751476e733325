"""Parameters and one-step transition kernel of the embedded jump chain.

A population holds ``i`` pin and ``j`` thrum individuals.  Every flower gives
birth at rate ``r``, and the offspring's morph is pin or thrum with equal
probability; every flower dies at rate ``d``.  Watching the process only at
jump times gives a random walk on the quadrant that from state ``(i, j)``
moves

    right or up   with probability  r / (2 (r + d))        (each),
    left          with probability  d i / ((r + d) (i + j)),
    down          with probability  d j / ((r + d) (i + j)).

Both axes are absorbing: once a morph disappears no new plant of that morph
can ever be born, so reaching ``i == 0`` or ``j == 0`` means extinction of
the mating system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ModelParams:
    """Finite birth rate ``r`` and death rate ``d``, restricted to ``r > d > 0``."""

    r: float
    d: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and math.isfinite(self.d)):
            raise ValueError(f"rates must be finite, got r={self.r}, d={self.d}")
        if not (self.d > 0.0 and self.r > 0.0):
            raise ValueError(f"rates must be positive, got r={self.r}, d={self.d}")
        if self.r <= self.d:
            # For r <= d extinction is almost sure (every p equals 1) and the
            # asymptotic closures used by the solvers are meaningless.
            raise ValueError(
                f"need the supercritical regime r > d, got r={self.r} <= d={self.d}"
            )

    @property
    def ratio(self) -> float:
        """d / r, the decay base of the rigorous extinction bounds."""
        return self.d / self.r

    @property
    def birth_step(self) -> float:
        """Probability of each of the two growth moves, r / (2 (r + d))."""
        return self.r / (2.0 * (self.r + self.d))

    @property
    def death_step(self) -> float:
        """Total probability of the two loss moves, d / (r + d).

        The split between left and down depends on the state; the sum does
        not, which the vectorised simulator exploits.
        """
        return self.d / (self.r + self.d)


@dataclass(frozen=True)
class State:
    """A population composition (i pins, j thrums), both counts >= 0."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i < 0 or self.j < 0:
            raise ValueError(f"counts must be non-negative, got ({self.i}, {self.j})")

    @property
    def absorbed(self) -> bool:
        return self.i == 0 or self.j == 0


def extinction_bounds(params: ModelParams, i: int, j: int) -> tuple[float, float]:
    """Rigorous envelope ``(d/r)^(i+j) <= p_{i,j} <= (d/r)^i + (d/r)^j - (d/r)^(i+j)``.

    The lower bound is the exact extinction probability of the embedded walk
    projected on the total population size; the upper bound comes from
    requiring each morph, on its own, to survive a single-type comparison
    process.  Both are valid for every i, j >= 0 and the bracket degenerates
    to [something, 1] on the axes, consistent with the boundary value 1.
    """
    if i < 0 or j < 0:
        raise ValueError(f"indices must be non-negative, got ({i}, {j})")
    rho = params.ratio
    lower = rho ** (i + j)
    upper = min(1.0, rho**i + rho**j - lower)
    return lower, upper
