"""Monte-Carlo estimation of extinction probabilities.

Paths of the embedded chain are simulated up to a horizon T and the
frequency of absorption is reported with a Wald confidence interval

    p_hat +/- 1.96 sqrt(p_hat (1 - p_hat) / M),

clamped to [0, 1] and flagged as degenerate when p_hat is exactly 0 or 1.

Early stopping: a path is retired as soon as it enters the exit set
min(i, j) >= k, where k = :func:`stop_level` is the smallest integer with
2 (d/r)^k <= ``_STOP_BOUND`` = 1e-6.  By the strong Markov property a path
retired at X is absorbed later with probability p(X), which the rigorous
envelope of :func:`~distyle.model.extinction_bounds` caps at
(d/r)^i + (d/r)^j <= 2 (d/r)^k.  A cell that starts inside the exit set draws
nothing and reports 0.  The estimand is therefore P[tau_0 <= min(T, tau_stop)],
which lies below P[tau_0 <= T] by at most ``stop_bound`` = 2 (d/r)^k; both
results report that bound.  At d/r = 2/3 the level is k = 36, and the paths
of the supercritical lattice stop within a few hundred steps.  Near
criticality the level is out of reach (r = 2.002, d = 2 gives k = 14516), so
no path stops early and the run costs as much as without the rule.

Censoring at T remains: P[tau_0 <= T] is below the true extinction
probability, the bias is one-sided and shrinks as T grows, but it is
invisible to the confidence interval, so near-critical parameters (where
absorption times are long) show a systematic gap against the grid solver.
Both results report, per cell, the fraction of paths stopped at the exit set
(cells starting inside it count as stopped) and the fraction censored at T;
with the absorbed fraction p_hat they account for every path.

Reproducibility: every initial cell (i, j) owns a counter-based Philox
stream keyed by ``SeedSequence([seed, i, j])``.  Step t of path l reads slot
l of the t-th block of M uniforms from the cell's stream, so results do not
depend on how cells are grouped, on lattice shape, on the refill size, or on
which other cells are simulated; a lattice run and a single-cell run of the
same cell agree bitwise, and shortening the horizon only truncates the
stream.  The uniforms are drawn into two banks: while the step kernel reads
one, a single helper thread (one module-level worker, started on first use)
draws the next block into the other, and the caller draws the cells the
helper has not reached once its steps are done.  Each cell is drawn by
exactly one of the two threads and its blocks are drawn in stream order, so
the thread that draws a block never changes a value.  The helper joins in
only while at least ``_HELPER_MIN_PATHS`` paths run: narrower kernels hold
the interpreter lock almost throughout, and the helper, which needs the lock
between cells, would slow them down (near-critical runs of 2000 paths took
up to twice as long with it).

Memory: cells are simulated in groups of at most ``_PATH_BUDGET`` paths.
Each group's two banks hold at most ``_CHUNK`` steps of its uniforms each,
laid out (cell, step, path), and both together stay within 128 x
``_PATH_BUDGET`` doubles (32 MiB), or within two rows of M when one row alone
exceeds half of that.  A single cell with more paths than the budget thus
refills fewer steps at a time, down to one; split draws read the same
stream, so the grouping stays invisible.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent import futures
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ModelParams, State

_CHUNK = 32  # most steps drawn per stream refill
_PATH_BUDGET = 32_768  # most paths simulated side by side
# fewest running paths for which the helper thread draws the next block: on
# narrower vectors the kernel holds the interpreter lock almost throughout,
# so the helper would wait for it between cells and slow the run down
_HELPER_MIN_PATHS = 4096
_STOP_BOUND = 1e-6  # bias allowed to the exit-set stop, see stop_level
_Z95 = 1.96


def _start_filler() -> None:
    """One worker that draws the next block of uniforms while the caller runs
    the current one; its thread starts on first use."""
    global _FILLER
    _FILLER = futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="distyle-mc-fill")


_start_filler()
# a forked child inherits the pool but not its thread
os.register_at_fork(after_in_child=_start_filler)


def stop_level(params: ModelParams) -> int:
    """Smallest k >= 1 with 2 (d/r)^k <= ``_STOP_BOUND``.

    Every state with min(i, j) >= k has extinction probability at most
    2 (d/r)^k, so a path reaching such a state can be retired.
    """
    rho = params.ratio
    if rho == 0.0:
        return 1
    k = max(1, math.ceil(math.log(_STOP_BOUND / 2.0) / math.log(rho)))
    # the logarithms may round either way; settle k on the defining test
    while k > 1 and 2.0 * rho ** (k - 1) <= _STOP_BOUND:
        k -= 1
    while 2.0 * rho**k > _STOP_BOUND:
        k += 1
    return k


def _stop_bound(params: ModelParams) -> float:
    return 2.0 * params.ratio ** stop_level(params)


@dataclass(frozen=True)
class McConfig:
    m: int
    t_horizon: int
    seed: int
    initial: State

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"need at least one path, got m={self.m}")
        if self.t_horizon < 1:
            raise ValueError(f"need a positive horizon, got {self.t_horizon}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.initial.absorbed:
            raise ValueError(f"initial state ({self.initial.i}, {self.initial.j}) is absorbed")


@dataclass(frozen=True)
class McEstimate:
    p_hat: float
    ci_low: float
    ci_high: float
    half_width: float
    degenerate: bool
    m: int
    t_horizon: int
    seed: int
    stop_bound: float  # p_hat may fall below P[tau_0 <= T] by at most this
    stopped_frac: float  # fraction of paths stopped at the exit set
    censored_frac: float  # fraction of paths still running at T


class PathResult(NamedTuple):
    absorbed: bool
    steps: int | None


def simulate_path(
    params: ModelParams, initial: State, t_horizon: int, rng: np.random.Generator
) -> PathResult:
    """One path of the embedded chain, absorbed flag and absorption time.

    Inverse-CDF sampling in the fixed order left, down, right, up; the
    state-dependent part of the thresholds is only the left/down split.
    """
    if initial.absorbed:
        raise ValueError(f"initial state ({initial.i}, {initial.j}) is absorbed")
    loss = params.death_step
    loss_or_right = loss + params.birth_step
    i, j = initial.i, initial.j
    for t in range(1, t_horizon + 1):
        u = rng.random()
        if u < loss:
            if u < loss * i / (i + j):
                i -= 1
            else:
                j -= 1
        elif u < loss_or_right:
            i += 1
        else:
            j += 1
        if i == 0 or j == 0:
            return PathResult(True, t)
    return PathResult(False, None)


def _run_cells(
    params: ModelParams,
    cells: list[tuple[int, int]],
    m: int,
    t_horizon: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Absorbed and censored flags, each of shape (len(cells), m), one
    Philox stream per cell; a path that is neither was stopped at the exit set.

    Cells run in groups of at most ``_PATH_BUDGET`` paths (one cell at
    least).  The two banks of a group refill at most ``_CHUNK`` steps each
    and together hold at most ``128 * _PATH_BUDGET`` doubles, or one step
    each when a single cell has more than ``64 * _PATH_BUDGET`` paths.
    """
    level = stop_level(params)
    group = max(1, _PATH_BUDGET // m)
    width = min(group, len(cells))
    depth = max(1, min(_CHUNK, 64 * _PATH_BUDGET // (width * m)))
    banks = np.empty((2, width, depth, m))
    absorbed = np.empty((len(cells), m), dtype=bool)
    censored = np.empty((len(cells), m), dtype=bool)
    for start in range(0, len(cells), group):
        chunk = cells[start : start + group]
        rows = slice(start, start + len(chunk))
        absorbed[rows], censored[rows] = _run_group(
            params, chunk, m, t_horizon, seed, level, banks[:, : len(chunk)]
        )
    return absorbed, censored


class _Refill:
    """One block of ``steps`` steps drawn into a bank for the cells with
    ``live[c]`` true, by the caller alone or, if ``helped``, by the helper
    thread and the caller together.

    Both threads pop cells from one deque, whose pops are thread-safe, so
    each cell is drawn by exactly one of them.  The caller finishes a refill
    before it starts the next, so the blocks of a cell are drawn in stream
    order.
    """

    def __init__(
        self,
        gens: list[np.random.Generator],
        bank: np.ndarray,
        live: np.ndarray,
        steps: int,
        helped: bool,
    ) -> None:
        self._gens = gens
        self._bank = bank
        self._todo = deque(np.flatnonzero(live).tolist())
        self.steps = steps
        self._helper = _FILLER.submit(self._draw, None) if helped else None

    def _draw(self, live: np.ndarray | None) -> None:
        while True:
            try:
                c = self._todo.popleft()
            except IndexError:
                return
            if live is None or live[c]:
                self._gens[c].random(out=self._bank[c, : self.steps])

    def finish(self, live: np.ndarray) -> None:
        """Draw the cells the helper has not taken, skipping those with
        ``live[c]`` false, and wait for the helper."""
        self._draw(live)
        self.close()

    def close(self) -> None:
        """Drop the cells not yet taken and wait for the helper."""
        self._todo.clear()
        if self._helper is not None:
            self._helper.result()


def _run_group(
    params: ModelParams,
    cells: list[tuple[int, int]],
    m: int,
    t_horizon: int,
    seed: int,
    level: int,
    banks: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Absorbed and censored flags of one group of cells, each of shape
    (len(cells), m).

    A path runs until it is absorbed, enters the exit set min(i, j) >=
    ``level``, or reaches the horizon.  All M uniforms of a step are drawn
    while any path of the cell still runs, preserving the (t, path) ->
    uniform correspondence; a cell's stream stops being consumed once all its
    paths are done, which cannot change any outcome.  ``banks`` has shape
    (2, len(cells), depth, M); while the kernel steps through one bank on at
    least ``_HELPER_MIN_PATHS`` paths, the helper draws the next block into
    the other.  Path l of cell c reads step k of a block at ``base + k * M``
    of the flattened bank, base = c * depth * M + l.
    """
    n_cells = len(cells)
    depth = banks.shape[2]
    start = np.repeat(np.array(cells, dtype=np.int32).reshape(n_cells, 2), m, axis=0)
    alive = np.flatnonzero(start.min(axis=1) < level)
    ai = start[alive, 0]
    aj = start[alive, 1]
    base = alive // m * (depth * m) + alive % m
    gens = [
        np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, i0, j0])))
        for (i0, j0) in cells
    ]
    absorbed = np.zeros(n_cells * m, dtype=bool)
    loss = params.death_step
    loss_or_right = loss + params.birth_step
    live = np.bincount(alive // m, minlength=n_cells) > 0  # cells with a running path
    t = 0
    block = 0
    refill = None
    try:
        if alive.size:
            helped = alive.size >= _HELPER_MIN_PATHS
            refill = _Refill(gens, banks[0], live, min(depth, t_horizon), helped)
        while refill is not None:
            refill.finish(live)
            steps = refill.steps
            flat = banks[block % 2].reshape(-1)
            t += steps
            refill = None
            if t < t_horizon:
                steps_next = min(depth, t_horizon - t)
                helped = alive.size >= _HELPER_MIN_PATHS
                refill = _Refill(gens, banks[1 - block % 2], live, steps_next, helped)
            for k in range(steps):
                u = flat[k * m :][base]
                # went_left implies in_loss implies below_up (the left threshold
                # lies below loss), so each xor is a set difference
                went_left = u < loss * ai / (ai + aj)
                in_loss = u < loss
                below_up = u < loss_or_right
                ai += below_up ^ in_loss
                ai -= went_left
                aj += ~below_up
                aj -= in_loss ^ went_left
                low = np.minimum(ai, aj)
                dead = low == 0
                done = dead | (low >= level)
                if done.any():
                    absorbed[alive[dead]] = True
                    keep = ~done
                    alive = alive[keep]
                    ai = ai[keep]
                    aj = aj[keep]
                    base = base[keep]
                    if not alive.size:
                        break
            if not alive.size:
                break
            live = np.bincount(alive // m, minlength=n_cells) > 0
            block += 1
    finally:
        if refill is not None:
            refill.close()
    censored = np.zeros(n_cells * m, dtype=bool)
    censored[alive] = True
    return absorbed.reshape(n_cells, m), censored.reshape(n_cells, m)


def _wald(p_hat: float, m: int) -> tuple[float, float, float]:
    half = _Z95 * math.sqrt(p_hat * (1.0 - p_hat) / m)
    return max(0.0, p_hat - half), min(1.0, p_hat + half), half


def _fractions(
    absorbed: np.ndarray, censored: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell fractions of paths absorbed, stopped and censored."""
    stopped = ~(absorbed | censored)
    return absorbed.mean(axis=-1), stopped.mean(axis=-1), censored.mean(axis=-1)


def estimate(params: ModelParams, config: McConfig) -> McEstimate:
    """Absorption frequency from ``config.initial`` with its Wald interval."""
    flags = _run_cells(
        params,
        [(config.initial.i, config.initial.j)],
        config.m,
        config.t_horizon,
        config.seed,
    )
    p_hat, stopped, censored = (float(f[0]) for f in _fractions(*flags))
    lo, hi, half = _wald(p_hat, config.m)
    return McEstimate(
        p_hat=p_hat,
        ci_low=lo,
        ci_high=hi,
        half_width=half,
        degenerate=p_hat in (0.0, 1.0),
        m=config.m,
        t_horizon=config.t_horizon,
        seed=config.seed,
        stop_bound=_stop_bound(params),
        stopped_frac=stopped,
        censored_frac=censored,
    )


@dataclass(frozen=True)
class McLattice:
    """Estimates over the box 1 <= i <= i_max, 1 <= j <= j_max.

    Arrays are indexed [i-1, j-1]; each cell equals the single-cell
    :func:`estimate` run with the same seed, bit for bit.
    """

    i_max: int
    j_max: int
    m: int
    t_horizon: int
    seed: int
    p_hat: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    degenerate: np.ndarray
    stop_bound: float  # p_hat may fall below P[tau_0 <= T] by at most this
    stopped_frac: np.ndarray  # fraction of paths stopped at the exit set
    censored_frac: np.ndarray  # fraction of paths still running at T


def estimate_cells(
    params: ModelParams,
    cells: list[tuple[int, int]],
    m: int,
    t_horizon: int,
    seed: int,
    *,
    ends: np.ndarray | None = None,
) -> np.ndarray:
    """Absorption frequencies for an arbitrary list of initial cells,
    aligned with ``cells``.

    ``ends``, if given, of shape (2, len(cells)), receives the fractions of
    paths stopped at the exit set and censored at the horizon.
    """
    for i0, j0 in cells:
        McConfig(m=m, t_horizon=t_horizon, seed=seed, initial=State(i0, j0))
    p_hat, *rest = _fractions(*_run_cells(params, cells, m, t_horizon, seed))
    if ends is not None:
        ends[:] = rest
    return p_hat


def estimate_lattice(
    params: ModelParams,
    i_max: int,
    j_max: int,
    m: int,
    t_horizon: int,
    seed: int,
) -> McLattice:
    """Estimate every cell of the box."""
    if i_max < 1 or j_max < 1:
        raise ValueError(f"lattice extents must be >= 1, got ({i_max}, {j_max})")
    cells = [(i, j) for i in range(1, i_max + 1) for j in range(1, j_max + 1)]
    ends = np.empty((2, len(cells)))
    p_hat = estimate_cells(params, cells, m, t_horizon, seed, ends=ends)
    p_hat = p_hat.reshape(i_max, j_max)
    half = _Z95 * np.sqrt(p_hat * (1.0 - p_hat) / m)
    return McLattice(
        i_max=i_max,
        j_max=j_max,
        m=m,
        t_horizon=t_horizon,
        seed=seed,
        p_hat=p_hat,
        ci_low=np.maximum(0.0, p_hat - half),
        ci_high=np.minimum(1.0, p_hat + half),
        degenerate=(p_hat == 0.0) | (p_hat == 1.0),
        stop_bound=_stop_bound(params),
        stopped_frac=ends[0].reshape(i_max, j_max),
        censored_frac=ends[1].reshape(i_max, j_max),
    )


def write_mc_csv(lattice: McLattice, fp) -> None:
    """Rows ``i,j,p_hat,ci_low,ci_high,M,T,seed``, 12 significant digits."""
    fp.write("i,j,p_hat,ci_low,ci_high,M,T,seed\n")
    for i in range(1, lattice.i_max + 1):
        for j in range(1, lattice.j_max + 1):
            fp.write(
                f"{i},{j},{lattice.p_hat[i - 1, j - 1]:.12g},"
                f"{lattice.ci_low[i - 1, j - 1]:.12g},"
                f"{lattice.ci_high[i - 1, j - 1]:.12g},"
                f"{lattice.m},{lattice.t_horizon},{lattice.seed}\n"
            )
