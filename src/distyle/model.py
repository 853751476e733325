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


# Bytes one request may hold in any one of its sizes: the LU factors of a
# box, the Monte-Carlo paths of a cell, the cells of a lattice and the rows
# of a table.  A request predicted to need more is refused by _check_budget
# before any work is done.
_BUDGET = 128 * 2**20


def _check_count(name: str, value: int) -> None:
    """Reject a count ``value`` below 1: the one statement of the rule that
    every count of a request (cells, paths, steps, box sizes, points) is at
    least 1.  The ValueError starts with ``name``, the flag, config key or
    parameter the caller set, and a space: :func:`~distyle.harness.load_spec`
    reads the key there to point at its config line."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _check_seed(name: str, seed: int) -> None:
    """Reject a ``seed`` outside [0, 2^64), the seeds a stream takes: the
    one statement of the rule.  The ValueError starts with ``name``, the
    flag, config key or parameter the caller set, and a space, for
    :func:`~distyle.harness.load_spec` as :func:`_check_count`'s does."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"{name} must lie in [0, 2^64), got {seed}")


def _check_budget(name: str, value: int, bytes_of, what: str) -> None:
    """Reject a size ``value``: one below 1, by :func:`_check_count`, or one
    whose predicted ``bytes_of(value)``, a nondecreasing function, exceeds
    ``_BUDGET``, with a ValueError that names ``name`` and the largest value
    that fits; ``what`` ends it."""
    _check_count(name, value)
    if bytes_of(value) <= _BUDGET:
        return
    fits, over = 0, value
    while over - fits > 1:
        mid = (fits + over) // 2
        if bytes_of(mid) <= _BUDGET:
            fits = mid
        else:
            over = mid
    raise ValueError(
        f"{name} must be <= {fits}, got {value} ({what} the {_BUDGET // 2**20} MiB budget)"
    )


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
