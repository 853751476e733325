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
which lies below P[tau_0 <= T] by at most 2 (d/r)^k; every result reports
that bound as ``stop_bound``.  At d/r = 2/3 the level is k = 36, and the paths
of the supercritical lattice stop within a few hundred steps.  Near
criticality the level is out of reach (r = 2.002, d = 2 gives k = 14516), so
no path stops early and the run costs as much as without the rule.

Censoring at T remains: P[tau_0 <= T] is below the true extinction
probability, the bias is one-sided and shrinks as T grows, but it is
invisible to the confidence interval, so near-critical parameters (where
absorption times are long) show a systematic gap against the grid solver.
Every result reports, per cell, the fraction of paths stopped at the exit set
(cells starting inside it count as stopped) and the fraction censored at T;
with the absorbed fraction p_hat they account for every path.

Reproducibility: every initial cell (i, j) owns a PCG64 stream keyed by
``SeedSequence([seed, i, j])`` (:func:`_cell_stream`), read in blocks of
``_BLOCK`` = 32 steps.  At the start of a block the cell ranks its L paths
still running in path order, and the block reads the stream step-major, L
uniforms a step, slot r going to the path of rank r.  A path that ends
inside a block keeps its slots until the block ends, so uniforms are drawn
only for paths that run at the start of a block: each path wastes at most
the 31 slots left in the block it ends in.  With M = 1, step t reads the
t-th uniform.  Every stream is read strictly in order, so no invariance
below relies on a counter-based generator that can jump to a position.
Results do not depend on how cells are grouped, on how many worker processes
run the groups, on lattice shape, on the refill size (a refill reads the
next rows of the current block), or on which other cells are simulated; a
lattice run and a single-cell run of the same cell agree bitwise, and
shortening the horizon only truncates the stream, the last block being cut
at T.

Workers: the groups of a large job run on forked worker processes, one per
CPU this process may run on and at most one per group; each worker draws a
refill of uniforms and then steps through it, one group at a time, and each
group sends back only its per-cell counts of absorbed, stopped and censored
paths, in group order.  Jobs below ``_POOL_MIN_PATHS`` paths, a
single group, a single CPU, a platform without ``fork`` or a daemonic caller
(a ``multiprocessing.Pool`` worker, say) run in the calling process instead.  Workers are forked: a spawned or forkserver worker starts
a fresh interpreter that imports NumPy, about half a second, which cancels
most of what a second core saves on a lattice that runs for a few seconds.
Python 3.12 and later warn when a process that already runs threads, such as
a BLAS thread pool, forks.

Memory: cells are simulated in groups of at most ``_PATH_BUDGET`` // (W M)
cells, one at least, W being the number of workers.  Each group's bank holds
at most one block of steps, laid out (step, path) over the paths that run at
the start of the block, and the banks of all W workers together stay within
``_BLOCK`` x ``_PATH_BUDGET`` doubles (8 MiB), or within one row of M per
worker when one row alone exceeds a worker's share.  A cell's rows pass
through a staging buffer of at most ``_BLOCK`` x M doubles on their way into
the bank.  A group also holds 44-55 bytes of work arrays per path and
about 1.1 KiB of generator state per cell.  A single cell with more paths than
the budget thus refills fewer steps at a time, down to one; split draws read
the same stream, so the grouping stays invisible.  Memory is bounded
whatever the lattice size and the CPU count, but not whatever M: past
``_BLOCK`` x ``_PATH_BUDGET`` / W paths a cell refills one step at a time
and costs about 66 bytes a path (bank, staging buffer and work arrays).

One result type serves a single cell and a lattice alike: an
:class:`McEstimate` whose per-cell fields are numpy scalars or arrays.  The
module only computes; :func:`distyle.harness.write_mc_csv` writes an
estimate as CSV, one row per cell.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams, State

_BLOCK = 32  # steps between re-rankings of a cell's running paths; fixes the streams
_PARKED = 2**20  # state of a path that ended earlier in the current block
_PATH_BUDGET = 32_768  # most paths simulated side by side, over all workers
# fewest paths for which the groups go to worker processes: starting a forked
# pool takes about 13 ms, more than a smaller job gains from a second core
_POOL_MIN_PATHS = 8192
_STOP_BOUND = 1e-6  # bias allowed to the exit-set stop, see stop_level
_Z95 = 1.96


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
    """Monte-Carlo estimate of one cell or of a box of cells.

    Every per-cell field is shaped like the request: a numpy scalar from
    :func:`estimate`, an array indexed [i-1, j-1] from
    :func:`estimate_lattice`.  ``cells`` lists the estimated cells in
    row-major order.  Each cell equals the single-cell estimate run with the
    same seed, bit for bit.
    """

    p_hat: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    half_width: np.ndarray
    degenerate: np.ndarray
    m: int
    t_horizon: int
    seed: int
    stop_bound: float  # p_hat may fall below P[tau_0 <= T] by at most this
    stopped_frac: np.ndarray  # fraction of paths stopped at the exit set
    censored_frac: np.ndarray  # fraction of paths still running at T
    cells: list[tuple[int, int]] = field(repr=False)


def _workers() -> int:
    """Worker processes the Monte-Carlo may use: one per CPU this process may
    run on, or one where processes cannot be forked or this process, being
    daemonic, may not have children."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if multiprocessing.current_process().daemon:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _cell_stream(seed: int, i: int, j: int) -> np.random.Generator:
    """The uniforms of cell (i, j): the one place the bit generator is named."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i, j])))


def _run_cells(
    params: ModelParams,
    cells: list[tuple[int, int]],
    m: int,
    t_horizon: int,
    seed: int,
) -> np.ndarray:
    """Per-cell counts of the paths absorbed, stopped at the exit set and
    censored at the horizon, shape (len(cells), 3), one stream per cell
    (:func:`_cell_stream`); each row sums to ``m``.

    Cells run in groups of at most ``_PATH_BUDGET // (workers * m)`` cells
    (one at least), or of ``len(cells) / workers`` cells, rounded up, when
    that is fewer, so that every worker gets a group.
    Each group refills at most one ``_BLOCK``-step block at a time into a
    bank of its own, and the banks of all workers hold at most
    ``_BLOCK * _PATH_BUDGET`` doubles together, or one step per worker when
    a single cell has more paths than a worker's share of that.
    """
    level = stop_level(params)
    workers = _workers() if len(cells) * m >= _POOL_MIN_PATHS else 1
    group = max(1, min(_PATH_BUDGET // (workers * m), -(-len(cells) // workers)))
    starts = range(0, len(cells), group)
    workers = min(workers, len(starts))
    depth = max(1, min(_BLOCK, _BLOCK * _PATH_BUDGET // (workers * group * m)))
    run = functools.partial(_group_task, params, m, t_horizon, seed, level, depth)
    chunks = (cells[start : start + group] for start in starts)
    counts = np.empty((len(cells), 3), dtype=np.int64)
    pool = None
    try:
        if workers > 1:
            import multiprocessing
            from concurrent.futures import process

            pool = process.ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))
        results = pool.map(run, chunks) if pool else map(run, chunks)
        for start, group_counts in zip(starts, results):
            counts[start : start + group] = group_counts
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return counts


def _group_task(
    params: ModelParams,
    m: int,
    t_horizon: int,
    seed: int,
    level: int,
    depth: int,
    cells: list[tuple[int, int]],
) -> np.ndarray:
    """The counts of one group, run on a bank of ``depth`` steps allocated
    here, in whichever process runs the group."""
    bank = np.empty((depth, len(cells) * m))
    return _run_group(params, cells, m, t_horizon, seed, level, bank)


def _run_group(
    params: ModelParams,
    cells: list[tuple[int, int]],
    m: int,
    t_horizon: int,
    seed: int,
    level: int,
    bank: np.ndarray,
) -> np.ndarray:
    """Counts of the paths absorbed, stopped and censored in each cell of one
    group, shape (len(cells), 3).

    A path runs until it is absorbed, enters the exit set min(i, j) >=
    ``level``, or reaches the horizon.  Time runs in blocks of ``_BLOCK``
    steps.  At the start of a block the paths still running become lanes,
    cell by cell and in path order within a cell, and a cell with L lanes
    reads its stream step-major, L uniforms a step, slot r going to its
    lane r, for every step of the block.  ``bank`` has shape (depth,
    len(cells) * M) and receives up to depth steps of the block at a time:
    each cell's rows are drawn into a staging buffer and copied into the
    cell's columns, so step k of the refill is row k, one uniform per lane.
    A path that ends inside a block is counted at once and then parked: its
    state is set to ``_PARKED``, from where it can reach neither an axis nor
    a zero sum in the rest of the block, and ``fin`` flags it so that it is
    not counted twice.  Its lane keeps its slot until the block ends, when
    the parked lanes are dropped.
    """
    n_cells = len(cells)
    depth = bank.shape[0]
    stage = np.empty(depth * m)
    start = np.array(cells, dtype=np.int32).reshape(n_cells, 2)
    owner = np.repeat(np.flatnonzero(start.min(axis=1) < level), m)  # each lane's cell
    ai = start[owner, 0]
    aj = start[owner, 1]
    gens = [_cell_stream(seed, i0, j0) for (i0, j0) in cells]
    counts = np.zeros((n_cells, 3), dtype=np.int64)
    loss = params.death_step
    loss_or_right = loss + params.birth_step
    t = 0
    while t < t_horizon and owner.size:
        n = owner.size
        bounds = [0, *np.cumsum(np.bincount(owner, minlength=n_cells)).tolist()]
        spans = [(gen, lo, hi) for gen, lo, hi in zip(gens, bounds, bounds[1:]) if hi > lo]
        fin = np.zeros(n, dtype=bool)
        went_left, in_loss, below_up = masks = np.empty((3, n), dtype=bool)
        left8, loss8, below8 = masks.view(np.int8)
        done = np.empty(n, dtype=bool)
        di, dj = np.empty((2, n), dtype=np.int8)
        size = np.empty(n, dtype=np.int32)
        low = np.empty(n, dtype=np.int32)
        thr = np.empty(n)
        block = min(_BLOCK, t_horizon - t)
        for first in range(0, block, depth):
            steps = min(depth, block - first)
            rows = bank.reshape(-1)[: steps * n].reshape(steps, n)
            for gen, lo, hi in spans:
                cell_rows = stage[: steps * (hi - lo)].reshape(steps, hi - lo)
                gen.random(out=cell_rows)
                rows[:, lo:hi] = cell_rows
            for u in rows:
                np.add(ai, aj, out=size)
                np.multiply(ai, loss, out=thr)
                np.divide(thr, size, out=thr)
                np.less(u, thr, out=went_left)
                np.less(u, loss, out=in_loss)
                np.less(u, loss_or_right, out=below_up)
                # went_left implies in_loss implies below_up (the left
                # threshold lies below loss), so each move is a sum of masks:
                # i gains 1 going right and loses 1 going left, j gains 1
                # going up and loses 1 going down
                np.subtract(below8, loss8, out=di)
                di -= left8
                ai += di
                np.subtract(left8, below8, out=dj)
                dj -= loss8
                dj += 1
                aj += dj
                # min(i, j) - 1 wraps round as unsigned when the path is
                # absorbed, so one compare finds both ends
                np.minimum(ai, aj, out=low)
                low -= 1
                np.greater_equal(low.view(np.uint32), level - 1, out=done)
                # done and not fin: the paths that end at this step
                new = np.flatnonzero(np.greater(done, fin, out=done))
                if new.size:
                    counts[:, 0] += np.bincount(owner[new[low[new] < 0]], minlength=n_cells)
                    fin[new] = True
                    ai[new] = _PARKED
                    aj[new] = _PARKED
        t += block
        keep = ~fin
        owner = owner[keep]
        ai = ai[keep]
        aj = aj[keep]
    counts[:, 2] = np.bincount(owner, minlength=n_cells)
    counts[:, 1] = m - counts[:, 0] - counts[:, 2]
    return counts


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
    if not cells:
        raise ValueError("need at least one initial cell")
    for i0, j0 in cells:
        McConfig(m=m, t_horizon=t_horizon, seed=seed, initial=State(i0, j0))
    p_hat, *rest = (_run_cells(params, cells, m, t_horizon, seed) / m).T
    if ends is not None:
        ends[:] = rest
    return p_hat


def _summarise(
    params: ModelParams,
    cells: list[tuple[int, int]],
    shape: tuple[int, ...],
    m: int,
    t_horizon: int,
    seed: int,
) -> McEstimate:
    """Estimate ``cells`` and summarise them with every per-cell field
    reshaped to ``shape``; the empty shape ``()`` gives numpy scalars."""
    ends = np.empty((2, len(cells)))
    p_hat = estimate_cells(params, cells, m, t_horizon, seed, ends=ends).reshape(shape)
    half = _Z95 * np.sqrt(p_hat * (1.0 - p_hat) / m)
    return McEstimate(
        p_hat=p_hat[()],
        ci_low=np.maximum(0.0, p_hat - half)[()],
        ci_high=np.minimum(1.0, p_hat + half)[()],
        half_width=half[()],
        degenerate=((p_hat == 0.0) | (p_hat == 1.0))[()],
        m=m,
        t_horizon=t_horizon,
        seed=seed,
        stop_bound=2.0 * params.ratio ** stop_level(params),
        stopped_frac=ends[0].reshape(shape)[()],
        censored_frac=ends[1].reshape(shape)[()],
        cells=cells,
    )


def estimate(params: ModelParams, config: McConfig) -> McEstimate:
    """Absorption frequency from ``config.initial`` with its Wald interval."""
    cell = (config.initial.i, config.initial.j)
    return _summarise(params, [cell], (), config.m, config.t_horizon, config.seed)


def estimate_lattice(
    params: ModelParams,
    i_max: int,
    j_max: int,
    m: int,
    t_horizon: int,
    seed: int,
) -> McEstimate:
    """Estimate every cell of the box 1 <= i <= i_max, 1 <= j <= j_max."""
    if i_max < 1 or j_max < 1:
        raise ValueError(f"lattice extents must be >= 1, got ({i_max}, {j_max})")
    cells = [(i, j) for i in range(1, i_max + 1) for j in range(1, j_max + 1)]
    return _summarise(params, cells, (i_max, j_max), m, t_horizon, seed)
