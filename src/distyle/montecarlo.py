"""Monte-Carlo estimation of extinction probabilities.

Paths of the embedded chain are simulated up to a horizon T and the
frequency of absorption p_hat is reported with the interval

    [p_hat - h, p_hat + h + stop_bound],  h = 1.96 sqrt(p_hat (1 - p_hat) / M),

clamped to [0, 1]: the Wald interval of the stopped frequency, widened on
the upper side by the bias of the early stop.

Early stopping: a path is retired as soon as it enters the exit set
min(i, j) >= k, where k = :func:`stop_level` is the smallest integer with
2 (d/r)^k <= 1/(10 M), a tenth of the weight of one path.  By the strong
Markov property a path retired at X is absorbed later with probability p(X),
which the rigorous envelope of :func:`~distyle.model.extinction_bounds` caps
at (d/r)^i + (d/r)^j <= 2 (d/r)^k.  A cell that starts inside the exit set
is settled by :func:`start_cells` before any path is drawn: it draws
nothing, reports 0, and all its M paths count as stopped.  Only the other
cells, the live ones, reach the kernel.  The stopped frequency p_hat
therefore estimates P[tau_0 <= min(T, tau_stop)], which lies below
P[tau_0 <= T] by at most ``stop_bound`` = 2 (d/r)^k; every result reports
that bound, and adding it to ``ci_high`` makes the interval cover
P[tau_0 <= T].  At d/r = 2/3 and M = 200 the level is k = 21 (k = 25 at
M = 1000, k = 36 at M = 100,000), and the paths of the supercritical
lattice stop within a few hundred steps.  Near criticality the level is out
of reach (r = 2.002, d = 2, M = 200 gives k = 8299), so no path stops early
and the run costs as much as without the rule.

Censoring at T remains: P[tau_0 <= T] is below the true extinction
probability, the bias is one-sided and shrinks as T grows, but it is
invisible to the confidence interval, so near-critical parameters (where
absorption times are long) show a systematic gap against the grid solver.
Every result reports, per cell, the fraction of paths stopped at the exit set
(cells starting inside it count as stopped) and the fraction censored at T;
with the absorbed fraction p_hat they account for every path.

Mirror cells: the walk treats the two morphs alike, so the path from (j, i)
has the law of the mirrored path from (i, j), absorption on either axis
counts, and p(i, j) = p(j, i).  Every requested cell is therefore simulated
as its canonical cell (min(i, j), max(i, j)), from that start state and on
that cell's stream, and each canonical cell is simulated once per request: a
lattice of n x n cells runs n (n + 1) / 2 of them, and the mirror cells
receive copies of the counts.  A cell and its mirror are thus one estimate,
not two independent ones.  Each cell's interval stays valid, and statistics
over a lattice (means, relative errors, interval coverage) keep their
expectation, but their spread grows, since about half of the cells repeat
the other half.

Reproducibility: every canonical cell (i, j), i <= j, owns a PCG64 stream
keyed by ``SeedSequence([seed, i, j])`` (:func:`_cell_stream`), read in
blocks of ``_BLOCK`` = 32 steps.  At the start of a block the cell ranks its
L paths still running in path order, and the block reads the stream
step-major, L uniforms a step, slot r going to the path of rank r.  A path
that ends inside a block keeps its slots until the block ends, so uniforms
are drawn only for paths that run at the start of a block: each path wastes
at most the 31 slots left in the block it ends in.  With M = 1, step t reads
the t-th uniform.  Every stream is read strictly in order, so no invariance
below relies on a counter-based generator that can jump to a position.
Results do not depend on how cells share a window, on how many worker
processes run the shares, on lattice shape, on the refill size (a refill
reads the next rows of the current block), or on which other cells are
simulated; a lattice run and a single-cell run of the same cell agree
bitwise, the single cell (3, 2) reading the stream of (2, 3) as the lattice
does, and shortening the horizon only truncates the stream, the last block
being cut at T.

Workers: a large job runs on forked worker processes, one per CPU this
process may run on and at most one per live canonical cell.  With W workers,
worker w takes the share ``live[w::W]`` of the distinct live canonical
cells, in ascending order of (min(i, j), max(i, j)), and streams it through
one window of lanes: at the start of every block the window admits the next
cells of the share while all M paths of each fit beside the paths still
running and it holds fewer than ``_WINDOW_CELLS`` cells, so cells join a
window whose older cells are part-way through their horizons.  Every cell
keeps its own clock: a cell admitted at block g0 is at its time 32 (g - g0)
in block g and reads min(32, T - t) rows of its stream, and its paths still
running when its horizon ends are counted as censored there.  Each worker
sends back only the per-cell counts of absorbed and censored paths; the
finish counts the rest of each cell's M paths as stopped.  The workers are
forked when the job starts and draw while the caller goes on
(:func:`start_cells`); the finish collects their counts, and leaving the
job, also by an exception, stops and reaps them.  Jobs below
``_POOL_MIN_PATHS`` paths over their live cells, at most one live cell, a
single CPU, a platform without ``fork`` or a daemonic caller (a
``multiprocessing.Pool`` worker, say) run in the calling process instead,
when the job finishes.  Workers are forked: a spawned or forkserver worker
starts a fresh interpreter that imports NumPy, about half a second, which
cancels most of what a second core saves on a lattice that runs for a few
seconds.  Python 3.12 and later warn when a process that already runs
threads, such as a BLAS thread pool, forks.

Memory: each worker's window holds at most ``_PATH_BUDGET`` // W lanes, W
being the number of workers, or one cell's M when that is more.  Its bank
holds at most one block of steps, laid out (step, lane) over the paths that
run at the start of the block, and has room for min(window, paths in the
share) lanes, so the banks of all W workers together stay within ``_BLOCK``
x ``_PATH_BUDGET`` doubles (8 MiB), or within one row of M per worker when
one row alone exceeds a worker's share.  A cell's rows pass through a
staging buffer of at most ``_BLOCK`` x M doubles on their way into the bank.
A window also holds about 50 bytes of work arrays per lane and about 1 KiB
of generator state per cell in it.  It admits a cell whenever M lanes are
free, so it may hold more than lanes // M cells, but every cell in it holds
at least one running path, and it never holds more than ``_WINDOW_CELLS`` =
8192 cells, whose generators take at most about 8 MiB.  A share holds 24
bytes per live cell for its start states and counts.  A single cell with
more paths than a window's lanes thus refills fewer steps at a time, down to
one; split draws read the same stream, so the refill size stays invisible.
Past ``_BLOCK`` x ``_PATH_BUDGET`` / W paths a cell refills one step at a
time and costs about ``_BYTES_PER_PATH`` = 64 bytes a path (bank, staging
buffer and work arrays).  The caller holds at most
``_BYTES_PER_CELL`` = 240 bytes a requested cell: the request's list of
cells and the estimate's copy of it, the plan (the canonical cells as one
int32 array, each cell's row in it, the live cells' start states) and the
counts copied back.  Measured as the peak resident size above the import, a
574 x 574 box at M = 1 holds 201-202 bytes a cell at r = 3 and 207-210 at
r = 2.002 on two CPUs, and 230-241 at r = 2.002 on one CPU, where the caller
also holds the window: about 208 bytes a cell more than a 300 x 300 box.
Every entry point refuses an M or a number of requested cells whose bytes
at these rates exceed the 128 MiB request budget of ``model._BUDGET``, that
is more than 2,097,152 paths a cell or 559,240 cells; :func:`box_cells`
refuses a box of more cells before it lists one.  A window holds at least
M lanes, so no more workers are forked than hold M paths each within the
budget.  Memory is thus bounded whatever the flags and the CPU count.

Entry points: ``start_cells(params, cells, m, t_horizon, seed)`` checks the
request, starts estimating any list of cells and yields the finish, which
returns an :class:`McEstimate` whose per-cell fields are 1-D arrays aligned
with ``cells``, so that the caller can work while the workers draw.  It is
the one way to the kernel: ``box_cells(i_max, j_max)`` lists the box
1 <= i <= i_max, 1 <= j <= j_max row-major, ``estimate_lattice(params,
i_max, j_max, m, t_horizon, seed)`` starts and finishes that box at once,
and ``estimate_cells(params, cells, m, t_horizon, seed)`` starts and
finishes a list at once and returns the ``p_hat`` of its estimate, the bare
absorption frequencies.
The module only computes; :func:`distyle.harness.write_mc_csv` writes an
estimate as CSV, one row per cell.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import numbers
import os
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .model import _BUDGET, ModelParams, _check_budget, _check_count, _check_seed

_BLOCK = 32  # steps between re-rankings of a cell's running paths; fixes the streams
_PARKED = 2**20  # state of a path that ended earlier in the current block
_PATH_BUDGET = 32_768  # most paths simulated side by side, over all workers
# most cells a window holds at once, each with its stream; above the 1,275 and
# 5,050 canonical cells of the presets' lattices, so it never binds on them
_WINDOW_CELLS = 8192
# fewest paths for which the shares go to worker processes: forking them costs
# more than a smaller job gains from a second core
_POOL_MIN_PATHS = 8192
_Z95 = 1.96
# Bytes a request holds per path and per requested cell, each size held to
# model._BUDGET; peaks above the 61 MiB of the import.  One cell at M = 4e6
# peaks at 304 MiB in one process (bank, staging buffer and work arrays), and
# a 574 x 574 lattice at M = 1 peaks at 63-66 MiB in the caller.
_BYTES_PER_PATH = 64
_BYTES_PER_CELL = 240


def stop_level(params: ModelParams, m: int) -> int:
    """Smallest k >= 1 with 2 (d/r)^k <= 1/(10 m).

    Every state with min(i, j) >= k has extinction probability at most
    2 (d/r)^k, so a path reaching such a state can be retired at a bias of
    at most a tenth of the weight 1/m of one path of the sample.
    """
    rho = params.ratio
    bound = 1.0 / (10 * m)
    k = max(1, math.ceil(math.log(bound / 2.0) / math.log(rho)))
    # the logarithms may round either way; settle k on the defining test
    while k > 1 and 2.0 * rho ** (k - 1) <= bound:
        k -= 1
    while 2.0 * rho**k > bound:
        k += 1
    return k


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo estimate of a list of cells.

    Every per-cell field is a 1-D array aligned with ``cells``, the
    estimate's own copy of the request's list: entry k belongs to
    ``cells[k]``.  A box from :func:`box_cells` lists its cells
    row-major, so ``p_hat.reshape(i_max, j_max)`` is indexed [i-1, j-1].
    Each cell equals the estimate of that cell alone run with the same
    seed, bit for bit.
    """

    p_hat: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    m: int
    t_horizon: int
    seed: int
    stop_bound: float  # p_hat may be below P[tau_0 <= T] by at most this; ci_high adds it
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


def _check_paths(name: str, m: int) -> None:
    """Reject a path count ``m`` below 1 or one whose paths would not fit
    the budget."""
    _check_budget(
        name, m, lambda k: _BYTES_PER_PATH * k,
        f"at {_BYTES_PER_PATH} bytes a path, the most paths that fit",
    )


def _check_cells(name: str, count: int) -> None:
    """Reject a cell count below 1 or one whose cells would not fit the
    budget in the caller."""
    _check_budget(
        name, count, lambda k: _BYTES_PER_CELL * k,
        f"at {_BYTES_PER_CELL} bytes a requested cell, the most cells that fit",
    )


def _cell_stream(seed: int, i: int, j: int) -> np.random.Generator:
    """The uniforms of cell (i, j): the one place the bit generator is named."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i, j])))


@contextlib.contextmanager
def start_cells(
    params: ModelParams,
    cells: list[tuple[int, int]],
    m: int,
    t_horizon: int,
    seed: int,
) -> Iterator[Callable[[], McEstimate]]:
    """Start estimating each of ``cells``; yields the finish, which waits
    for the counts of absorbed and censored paths and returns the estimate.

    Every entry point checks its request here: at least one cell, each with
    integers i, j >= 1, ``m`` and ``t_horizon`` at least 1 and ``seed`` in
    [0, 2^64), and no more paths a cell or cells than fit the budget at
    ``_BYTES_PER_PATH`` and ``_BYTES_PER_CELL`` bytes each.  This is the one
    place a job is planned.  The estimate keeps its own copy of ``cells``.
    The cells fold to their distinct canonical cells (min(i, j), max(i, j)),
    held as one int32 array in ascending order, with each cell's row in it.
    A canonical cell inside the exit set min(i, j) >= :func:`stop_level` is
    settled here: it draws nothing and all ``m`` of its paths stop.  Only
    the others, the live cells, go to the kernel, and ``_POOL_MIN_PATHS``
    and the one worker per cell count live cells.  No more workers are
    forked than hold ``m`` paths each within the budget.  With W workers,
    worker w counts the share ``live[w::W]`` in a window of
    ``max(m, _PATH_BUDGET // W)`` lanes and ``_WINDOW_CELLS`` cells, refilling ``_BLOCK`` steps at a
    time, or fewer when one cell has more paths than ``_PATH_BUDGET // W``.
    The finish counts each canonical cell's stopped paths as the ``m`` less
    those absorbed and censored, and copies its counts to every cell of
    ``cells`` it stands for.  The workers are forked on entry and draw while
    the ``with`` block runs, so a caller can do other work between the start
    and the finish; leaving the block, also by an exception, stops and reaps
    them.  A single worker is this process, and the finish counts the share.
    """
    _check_count("t_horizon", t_horizon)
    _check_seed("seed", seed)
    _check_paths("m", m)
    _check_cells("len(cells)", len(cells))
    cells = list(cells)
    # each refusal of a cell names one as the caller wrote it
    kinds = {type(k) for cell in cells for k in cell}
    if not all(issubclass(kind, numbers.Integral) for kind in kinds):
        cell = next(c for c in cells if not all(isinstance(k, numbers.Integral) for k in c))
        raise ValueError(f"i and j of cell {cell} must be integers")
    lowest = min(cells, key=lambda cell: (min(cell), max(cell)))
    _check_count(f"min(i, j) of cell {lowest}", min(lowest))
    # each cell's canonical cell (min(i, j), max(i, j)) as one key, ascending
    lo, hi = np.sort(np.array(cells, dtype=np.int32).reshape(len(cells), 2), axis=1).T
    keys, where = np.unique(lo.astype(np.int64) << 32 | hi, return_inverse=True)
    distinct = np.column_stack(np.divmod(keys, 2**32)).astype(np.int32)
    del lo, hi, keys
    level = stop_level(params, m)
    # the kernel reads an absorbed path's min(i, j) - 1 as 2^32 - 1, which must
    # reach level - 1; no int32 state reaches 2^31, so the cap stops no path
    reach = min(level, 2**31)
    live = distinct[:, 0] < reach
    start = distinct[live]
    workers = _workers() if len(start) * m >= _POOL_MIN_PATHS else 1
    # a worker's window holds at least m lanes
    workers = max(1, min(workers, len(start), _BUDGET // (_BYTES_PER_PATH * m)))
    lanes = _PATH_BUDGET // workers
    depth = max(1, min(_BLOCK, _BLOCK * lanes // m))
    run = functools.partial(_run_share, params, m, t_horizon, seed, reach, max(m, lanes), depth)
    summarise = functools.partial(
        _summarise, params, cells, m, t_horizon, seed, level, where, live
    )
    if workers == 1:
        yield lambda: summarise(run(start))
        return
    import multiprocessing

    context = multiprocessing.get_context("fork")
    procs, pipes = [], []
    try:
        for w in range(workers):
            receive, send = context.Pipe(duplex=False)
            pipes.append(receive)
            share = start[w::workers]
            procs.append(context.Process(target=_worker, args=(send, run, share), daemon=True))
            procs[-1].start()
            send.close()

        def finish() -> McEstimate:
            found = np.empty((len(start), 2), dtype=np.int64)
            for w, receive in enumerate(pipes):
                try:
                    share = receive.recv()
                except EOFError:
                    procs[w].join()
                    raise RuntimeError(
                        f"Monte-Carlo worker exited with code {procs[w].exitcode}"
                    ) from None
                if isinstance(share, BaseException):
                    raise share
                found[w::workers] = share
            return summarise(found)

        yield finish
    finally:
        for proc in procs:
            proc.terminate()  # a worker that has sent its counts is exiting anyway
        for proc in procs:
            proc.join()
        for receive in pipes:
            receive.close()


def _worker(send, run: Callable, share: np.ndarray) -> None:
    """Body of a forked worker: send the counts of ``share``, or the error
    that stopped them, and exit.  An interrupt ends the worker without a
    word, and the finish reports its exit code."""
    try:
        result = run(share)
    except Exception as exc:
        result = exc
    send.send(result)


def _run_share(
    params: ModelParams,
    m: int,
    t_horizon: int,
    seed: int,
    level: int,
    window: int,
    depth: int,
    cells: np.ndarray,
) -> np.ndarray:
    """Counts of the paths absorbed and censored in each cell of one share,
    shape (len(cells), 2), in whichever process runs the share.

    ``cells`` holds the start states (i, j), int32 of shape (n, 2), of cells
    outside the exit set min(i, j) >= ``level``.  A path runs until it is
    absorbed, enters the exit set, or reaches the horizon; the caller counts
    the rest of the M paths of a cell as stopped there.  The cells stream
    through a window of ``window`` lanes, in share order: at the start of
    every ``_BLOCK``-step block the window admits the next cells while all M
    paths of each fit beside the paths still running and it holds fewer than
    ``_WINDOW_CELLS`` cells, each with its stream, and a cell admitted at
    block g0 is at its own time ``_BLOCK * (g - g0)`` in block g.  Every
    cell therefore ends in a block at the same step, ``tail``: the global
    block is cut there when every cell in the window ends in it, and
    otherwise the ending cells' paths still running are counted as censored
    and parked at that step.  At the start of a block the paths still
    running become lanes, cell by cell in admission order and in path order
    within a cell, and a cell with L lanes reads its stream step-major, L
    uniforms a step, slot r going to its lane r, for every step of the block
    up to its horizon.  The bank, allocated here, has shape (depth, lanes),
    lanes being at most ``window``, and receives up to depth steps of the
    block at a time: each cell's rows are drawn into a staging buffer and
    copied into the cell's columns, so step k of the refill is row k, one
    uniform per lane.  A path that ends inside a block is flagged at once,
    in ``hit`` if it is absorbed, and then parked: its state is set to
    ``_PARKED``, from where it can reach neither an axis nor a zero sum in
    the rest of the block, and ``fin`` flags it so that it ends only once.
    Its lane keeps its slot until the block ends, when the absorbed paths
    are counted and the parked lanes are dropped.
    """
    n_cells = len(cells)
    bank = np.zeros((depth, min(window, n_cells * m)))
    stage = np.empty(depth * m)
    counts = np.zeros((n_cells, 2), dtype=np.int64)
    last = (t_horizon - 1) // _BLOCK  # a cell's blocks, less one
    tail = t_horizon - _BLOCK * last  # the steps of a cell's last block
    owner = np.empty(0, dtype=np.intp)  # each lane's cell, nondecreasing
    ai = aj = np.empty(0, dtype=np.int32)
    streams: dict[int, tuple[np.random.Generator, int]] = {}  # cell -> stream, last block
    loss = params.death_step
    loss_or_right = loss + params.birth_step
    admitted = 0
    for g in itertools.count():
        bounds = np.flatnonzero(np.diff(owner, prepend=-1)).tolist()  # each cell's first lane
        active = owner[bounds].tolist()  # the cells holding lanes, in lane order
        streams = {k: streams[k] for k in active}
        room = min((window - owner.size) // m, _WINDOW_CELLS - len(active))
        joined = range(admitted, min(n_cells, admitted + room))
        if joined:
            for k in joined:
                streams[k] = (_cell_stream(seed, *cells[k].tolist()), g + last)
            active += joined
            bounds += range(owner.size, owner.size + m * len(joined), m)
            owner = np.concatenate([owner, np.repeat(joined, m)])
            ai = np.concatenate([ai, np.repeat(cells[joined, 0], m)])
            aj = np.concatenate([aj, np.repeat(cells[joined, 1], m)])
            admitted = joined.stop
        n = owner.size
        if not n:  # every cell admitted, and none left running
            break
        bounds.append(n)
        ending = 0  # the oldest cells reach their horizon in this block
        while ending < len(active) and streams[active[ending]][1] == g:
            ending += 1
        block = tail if ending == len(active) else _BLOCK
        spans = [
            (streams[k][0], lo, hi, tail if e < ending else block)
            for e, (k, lo, hi) in enumerate(zip(active, bounds, bounds[1:]))
        ]
        fin = np.zeros(n, dtype=bool)
        hit = np.zeros(n, dtype=bool)
        went_left, in_loss, below_up = masks = np.empty((3, n), dtype=bool)
        left8, loss8, below8 = masks.view(np.int8)
        done = np.empty(n, dtype=bool)
        di, dj = np.empty((2, n), dtype=np.int8)
        size = np.empty(n, dtype=np.int32)
        low = np.empty(n, dtype=np.int32)
        thr = np.empty(n)
        stops = {*range(depth, block, depth), block}
        if ending:
            stops.add(tail)  # the refill splits where the ending cells stop
        first = 0
        for stop in sorted(stops):
            rows = bank.reshape(-1)[: (stop - first) * n].reshape(stop - first, n)
            for gen, lo, hi, reads in spans:
                steps = min(stop, reads) - first
                if steps > 0:
                    cell_rows = stage[: steps * (hi - lo)].reshape(steps, hi - lo)
                    gen.random(out=cell_rows)
                    rows[:steps, lo:hi] = cell_rows
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
                    hit[new[low[new] < 0]] = True
                    fin[new] = True
                    ai[new] = _PARKED
                    aj[new] = _PARKED
            if stop == tail and ending:
                cut = bounds[ending]
                censored = np.bincount(owner[:cut][~fin[:cut]])
                counts[: censored.size, 1] += censored
                fin[:cut] = True
                ai[:cut] = _PARKED
                aj[:cut] = _PARKED
            first = stop
        del spans  # and with it the streams of the cells that ended
        absorbed = np.bincount(owner[hit])
        counts[: absorbed.size, 0] += absorbed
        keep = ~fin
        owner = owner[keep]
        ai = ai[keep]
        aj = aj[keep]
    return counts


def _summarise(
    params: ModelParams,
    cells: list[tuple[int, int]],
    m: int,
    t_horizon: int,
    seed: int,
    level: int,
    where: np.ndarray,
    live: np.ndarray,
    found: np.ndarray,
) -> McEstimate:
    """The estimate of ``cells``, cell k standing for canonical cell
    ``where[k]``, from the counts ``found`` of paths absorbed and censored in
    each ``live`` canonical cell; the m paths of every other canonical cell
    start in the exit set min(i, j) >= ``level`` and stop there."""
    counts = np.zeros((live.size, 3), dtype=np.int64)
    counts[live, ::2] = found
    counts[:, 1] = m - counts[:, 0] - counts[:, 2]
    p_hat, stopped, censored = (counts / m)[where].T
    half = _Z95 * np.sqrt(p_hat * (1.0 - p_hat) / m)
    stop_bound = 2.0 * params.ratio**level
    return McEstimate(
        p_hat=p_hat,
        ci_low=np.maximum(0.0, p_hat - half),
        ci_high=np.minimum(1.0, p_hat + half + stop_bound),
        m=m,
        t_horizon=t_horizon,
        seed=seed,
        stop_bound=stop_bound,
        stopped_frac=stopped,
        censored_frac=censored,
        cells=cells,
    )


def estimate_cells(
    params: ModelParams,
    cells: list[tuple[int, int]],
    m: int,
    t_horizon: int,
    seed: int,
) -> np.ndarray:
    """Absorption frequencies for an arbitrary list of initial cells,
    aligned with ``cells``: the ``p_hat`` of :func:`start_cells`."""
    with start_cells(params, cells, m, t_horizon, seed) as finish:
        return finish().p_hat


def box_cells(i_max: int, j_max: int) -> list[tuple[int, int]]:
    """The cells of the box 1 <= i <= i_max, 1 <= j <= j_max, row-major.

    An extent below 1 is refused, and so is a box of more cells than fit
    the budget of :func:`start_cells`, before any cell is listed.
    """
    _check_count("i_max", i_max)
    _check_count("j_max", j_max)
    _check_cells("i_max * j_max", i_max * j_max)
    return [(i, j) for i in range(1, i_max + 1) for j in range(1, j_max + 1)]


def estimate_lattice(
    params: ModelParams,
    i_max: int,
    j_max: int,
    m: int,
    t_horizon: int,
    seed: int,
) -> McEstimate:
    """Estimate every cell of ``box_cells(i_max, j_max)``; an ``m`` above
    the budget is refused before the cells are listed."""
    _check_paths("m", m)
    with start_cells(params, box_cells(i_max, j_max), m, t_horizon, seed) as finish:
        return finish()
