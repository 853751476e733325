import io
import itertools
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from distyle import grid, model
from distyle.grid import (
    CLOSURES,
    ConvergenceError,
    Method,
    SolveOptions,
    assemble_system,
    closure_arrays,
    solve_grid,
)
from distyle.harness import write_grid_csv
from distyle.model import ModelParams, extinction_bounds


def padded_field(
    n: int,
    closure_up: np.ndarray,
    closure_right: np.ndarray,
    interior: float | np.ndarray = 0.0,
) -> np.ndarray:
    """(N+2)x(N+2) array: row/col 0 hold the boundary 1, row/col N+1 the closure.

    The four corners are never read by the kernel and are set to NaN so that
    any accidental use surfaces immediately.
    """
    f = np.empty((n + 2, n + 2))
    f[1 : n + 1, 1 : n + 1] = interior
    f[0, :] = 1.0
    f[:, 0] = 1.0
    f[1 : n + 1, n + 1] = closure_up
    f[n + 1, 1 : n + 1] = closure_right
    f[0, 0] = f[0, n + 1] = f[n + 1, 0] = f[n + 1, n + 1] = np.nan
    return f


def apply_kernel(params: ModelParams, field_arr: np.ndarray, i: int, j: int) -> float:
    """One application of the recurrence right-hand side at interior cell (i, j),
    written cell by cell as an oracle for the assembled system.

    ``field_arr`` uses the :func:`padded_field` layout; a fixed point of this
    map on every interior cell solves the closed system.
    """
    n = field_arr.shape[0] - 2
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"({i}, {j}) is not an interior cell of the {n}x{n} box")
    r, d = params.r, params.d
    loss = d / ((r + d) * (i + j))
    return float(
        loss * i * field_arr[i - 1, j]
        + loss * j * field_arr[i, j - 1]
        + params.birth_step * (field_arr[i, j + 1] + field_arr[i + 1, j])
    )


# How far a value-iteration field may lie from the LU's solution of the
# same box; the measured gap is below 1e-13.
VI_SLACK = 1e-11


def one_step_iterate(
    a: scipy.sparse.csr_matrix, c: np.ndarray, steps: int
) -> tuple[np.ndarray, int | None]:
    """Plain value iteration, an oracle for the solver's block loop: runs
    exactly ``steps`` Jacobi steps q <- (A + I) q - c from zero and returns
    the last iterate and the first step whose update was exactly 0,
    ``None`` if none was.
    """
    k = a + scipy.sparse.identity(a.shape[0], format="csr")
    q = np.zeros_like(c)
    stop = None
    for it in range(1, steps + 1):
        image = k @ q
        image -= c
        if stop is None and np.array_equal(image, q):
            stop = it
        q = image
    return q, stop


def kernel_defect(params: ModelParams, edge: np.ndarray, values: np.ndarray) -> np.ndarray:
    """T p - b of the field ``values`` cell by cell: :func:`apply_kernel` on
    the field padded with the axes and the closure ``edge``, minus p."""
    n = values.shape[0]
    field = padded_field(n, edge, edge, values)
    cells = range(1, n + 1)
    return np.array([[apply_kernel(params, field, i, j) for j in cells] for i in cells]) - values


def box_fold(params: ModelParams, n: int, edge: np.ndarray) -> tuple:
    """The coupling table, b, A, c and the mirror index that a solve of the
    N-box closed by ``edge`` builds once, through its one boundary field."""
    return grid._fold(params, np.ones((n, n), dtype=bool), grid._box_field(edge, edge)[None])


def solve_edge(params: ModelParams, n: int, edge: np.ndarray, options=None) -> np.ndarray:
    """The N-box closed by an edge of the caller's own, p~_{k,N+1} =
    p~_{N+1,k} = ``edge[k-1]``, solved through the cell-set solve as
    :func:`solve_grid` solves a named closure: the (N, N) field."""
    box = np.ones((n, n), dtype=bool)
    [values], _, _ = grid._solve_cells(params, box, grid._box_field(edge, edge)[None], options)
    return values


def solve_system(params: ModelParams, n: int, edge: np.ndarray) -> tuple:
    """The set, the coupling table and b, as an (N, N) array, that a box
    solve builds once for its folded system and its residual."""
    table, [b], _, _, _ = box_fold(params, n, edge)
    return np.ones((n, n), dtype=bool), table, b


def oracle_gap(params: ModelParams, n: int, closure: str) -> float:
    """Largest distance, for a random field, between :func:`kernel_defect`
    and both T p - b through :func:`assemble_system` and the residual."""
    edge = closure_arrays(params, n, closure)[0]
    values = np.random.default_rng(n).random((n, n))
    want = kernel_defect(params, edge, values)
    t, b = assemble_system(params, n, edge, edge)
    entries = np.max(np.abs((t @ values.reshape(-1) - b).reshape(n, n) - want))
    residual = abs(grid._residual(*solve_system(params, n, edge), values) - np.max(np.abs(want)))
    return float(max(entries, residual))


def exact_box(params: ModelParams, n: int, *edges) -> list[list[list[Fraction]]]:
    """The N x N field of the unfolded truncated system T p = b, exactly,
    for each closure edge p~_{k,N+1} = p~_{N+1,k} of ``edges``.

    The system is built in Fractions from the exact values of the float
    inputs, r, d and each edge entry, so it is the one a float solve
    approximates, whatever formula produced its closure.  I - K is a
    nonsingular M-matrix, so elimination needs no pivoting; in row-major
    order it stays inside the band N, and the edges share it as columns of
    b.
    """
    r, d = Fraction(params.r), Fraction(params.d)
    m, birth = n * n, r / (2 * (r + d))
    edges = [[Fraction(x) for x in edge] for edge in edges]
    rows = [[Fraction(0)] * (m + len(edges)) for _ in range(m)]
    for i, j in itertools.product(range(1, n + 1), repeat=2):
        row = rows[(i - 1) * n + j - 1]
        row[(i - 1) * n + j - 1] = Fraction(1)
        death = d / ((r + d) * (i + j))
        for (y, x), w in (((i - 1, j), death * i), ((i, j - 1), death * j),
                          ((i, j + 1), birth), ((i + 1, j), birth)):
            if 0 < min(y, x) and max(y, x) <= n:
                row[(y - 1) * n + x - 1] -= w
            else:  # 1 on an axis, the edge entry of the other coordinate beyond N
                for e, edge in enumerate(edges):
                    row[m + e] += w * (1 if min(y, x) == 0 else edge[min(y, x) - 1])
    for k in range(m):
        band = [*range(k, min(k + n + 1, m)), *range(m, m + len(edges))]
        for row in rows[k + 1 : k + n + 1]:
            f = row[k] / rows[k][k]
            if f:
                for c in band:
                    row[c] -= f * rows[k][c]
    fields = []
    for e in range(m, m + len(edges)):
        p = [Fraction(0)] * m
        for k in reversed(range(m)):
            known = sum(rows[k][c] * p[c] for c in range(k + 1, min(k + n + 1, m)))
            p[k] = (rows[k][e] - known) / rows[k][k]
        fields.append([p[i * n : (i + 1) * n] for i in range(n)])
    return fields


def exact_gap(values: np.ndarray, field: list[list[Fraction]]) -> float:
    """Largest |float field - exact field|, taken exactly, then rounded."""
    pairs = zip(values.ravel().tolist(), itertools.chain(*field))
    return float(max(abs(Fraction(v) - x) for v, x in pairs))


def folded_oracle(params: ModelParams, n: int, edge: np.ndarray):
    """The folded system through the full one, an oracle for the fold in
    the solver: A = T[half] M and c = b[half], with the 0/1 mirror matrix
    M that copies q to both (i, j) and (j, i), so that p = M q.  T and
    the solver's A read one coupling table; :func:`kernel_defect` checks
    its coefficients.  Returns (T, b, A, c, M); A's column indices are
    unsorted.
    """
    t, b = assemble_system(params, n, edge, edge)
    rows, cols = np.triu_indices(n)
    half = rows * n + cols
    pos = np.empty((n, n), dtype=np.int64)
    pos[rows, cols] = pos[cols, rows] = np.arange(half.size)
    mirror = scipy.sparse.csr_matrix(
        (np.ones(n * n), (np.arange(n * n), pos.reshape(-1))),
        shape=(n * n, half.size),
    )
    return t, b, t[half] @ mirror, b[half], mirror


class TestKernel:
    def test_constant_field_is_fixed(self, params3):
        field = padded_field(30, np.ones(30), np.ones(30), interior=1.0)
        for i, j in [(1, 1), (1, 30), (30, 1), (7, 19), (30, 30)]:
            assert apply_kernel(params3, field, i, j) == pytest.approx(1.0, abs=1e-15)

    def test_zero_interior_at_corner(self, params3):
        field = padded_field(5, np.zeros(5), np.zeros(5), interior=0.0)
        # only the two absorbing-boundary moves contribute d/(r+d)
        assert apply_kernel(params3, field, 1, 1) == pytest.approx(0.4, rel=1e-15)

    def test_out_of_range_rejected(self, params3):
        field = padded_field(5, np.zeros(5), np.zeros(5))
        with pytest.raises(IndexError):
            apply_kernel(params3, field, 6, 2)

    def test_padded_corners_are_nan(self):
        field = padded_field(4, np.ones(4), np.ones(4))
        assert np.isnan(field[0, 0])
        assert np.isnan(field[5, 5])
        assert field.shape == (6, 6)


class TestAssembly:
    def test_row_sums_vanish_with_unit_closure(self, params3):
        n = 7
        ones = np.ones(n)
        mat, rhs = assemble_system(params3, n, ones, ones)
        defect = mat @ np.ones(n * n) - rhs
        assert np.max(np.abs(defect)) < 1e-14

    def test_single_cell_system(self, params3):
        up, right, _ = closure_arrays(params3, 1, "asymptotic")
        mat, rhs = assemble_system(params3, 1, up, right)
        assert mat.shape == (1, 1) and rhs.shape == (1,)
        assert mat.toarray()[0, 0] == -1.0

    def test_single_cell_solve_is_kernel_fixed_point(self, params3):
        sol = solve_grid(params3, 1)
        edge, _, _ = closure_arrays(params3, 1)
        field = padded_field(1, edge, edge)
        field[1, 1] = sol.values[0, 0]
        assert apply_kernel(params3, field, 1, 1) == pytest.approx(sol.values[0, 0], abs=1e-14)

    @pytest.mark.parametrize("closure", list(CLOSURES))
    @pytest.mark.parametrize("r", [3.0, 2.002, 5.0])
    def test_single_cell_value(self, r, closure):
        # p(1, 1) = d/(r+d) + 2 a p~ with no in-box neighbour, within the
        # ulp by which the order of the sum may move it
        params = ModelParams(r, 2.0)
        sol = solve_grid(params, 1, closure=closure)
        [edge], _, _ = closure_arrays(params, 1, closure)
        want = params.d / (params.r + params.d) + 2 * params.birth_step * edge
        assert abs(sol.values[0, 0] - want) <= np.spacing(want)

    @pytest.mark.parametrize("closure", list(CLOSURES))
    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("rate", ["r3", "rc"])
    def test_system_is_the_cell_by_cell_recurrence(self, params3, paramsc, rate, n, closure):
        # independent of the coupling table that T, A and the residual share
        params = params3 if rate == "r3" else paramsc
        assert oracle_gap(params, n, closure) <= 1e-15

    def test_cell_by_cell_oracle_catches_a_mutated_coefficient(self, params3, paramsc, monkeypatch):
        stencil = grid._stencil

        def mutated(params, n):
            birth = 1.001 * params.birth_step
            return stencil(types.SimpleNamespace(r=params.r, d=params.d, birth_step=birth), n)

        monkeypatch.setattr(grid, "_stencil", mutated)
        for params in (params3, paramsc):
            for n in (1, 2, 7):
                for closure in CLOSURES:
                    assert oracle_gap(params, n, closure) > 1e-15, (params, n, closure)


# Largest |solve_grid - exact_box| allowed, three times the worst gap
# measured over N = 2..8, the named closures, r = 3, 2.002 and 9 with
# d = 2, and both methods: 1.28e-15 (r=2.002, N=8, bounds-upper, LU).
EXACT_SLACK = 4e-15


class TestExactBox:
    @pytest.mark.parametrize("r", [3.0, 2.002, 9.0])
    def test_solutions_are_the_exact_box(self, r):
        params = ModelParams(r, 2.0)
        for n in range(2, 9):
            edges = [closure_arrays(params, n, closure)[0] for closure in CLOSURES]
            for closure, field in zip(CLOSURES, exact_box(params, n, *edges)):
                for method in Method:
                    sol = solve_grid(params, n, SolveOptions(method=method), closure=closure)
                    assert exact_gap(sol.values, field) <= EXACT_SLACK, (n, closure, method)

    @settings(max_examples=10, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=0.999),
        st.integers(2, 8),
        st.integers(1, 60),
        st.integers(1, 60),
    )
    def test_bounds_lower_closure_lies_above_the_envelope(self, ratio, n, i, j):
        # the lower envelope f = rho^(i+j-1) is harmonic off the axes, at
        # most 1 on them and tends to 0 far out, so it lies below p; the box
        # closed by it lies above it, taken exactly, and strictly once N >= 2
        # lets a path reach an axis at K >= 2, where f = rho^(K-1) < 1
        params = ModelParams(r=2.0 / ratio, d=2.0)
        r, d = Fraction(params.r), Fraction(params.d)
        rho, death, birth = d / r, d / ((r + d) * (i + j)), r / (2 * (r + d))

        def f(y, x):
            return rho ** (y + x - 1)

        moves = death * i * f(i - 1, j) + death * j * f(i, j - 1)
        assert moves + birth * (f(i, j + 1) + f(i + 1, j)) == f(i, j)
        assert max(f(0, k) for k in range(1, i + j + 1)) == 1
        assert extinction_bounds(params, i, j)[0] == min(1.0, params.ratio ** (i + j - 1))
        [field] = exact_box(params, n, closure_arrays(params, n, "bounds-lower")[0])
        cells = itertools.product(range(1, n + 1), repeat=2)
        assert all(field[y - 1][x - 1] > f(y, x) for y, x in cells)

    def test_catches_a_birth_step_off_by_1e_9(self, monkeypatch):
        stencil = grid._stencil

        def mutated(params, n):
            birth = (1 + 1e-9) * params.birth_step
            return stencil(types.SimpleNamespace(r=params.r, d=params.d, birth_step=birth), n)

        monkeypatch.setattr(grid, "_stencil", mutated)
        for r in (3.0, 2.002, 9.0):
            params = ModelParams(r, 2.0)
            for method in Method:
                sol = solve_grid(params, 4, SolveOptions(method=method))
                [field] = exact_box(params, 4, closure_arrays(params, 4)[0])
                assert exact_gap(sol.values, field) > EXACT_SLACK, (r, method)


class TestSolvers:
    def test_methods_agree(self, params3):
        direct = solve_grid(params3, 20, SolveOptions(method=Method.DIRECT))
        vi = solve_grid(params3, 20, SolveOptions(method=Method.VALUE_ITERATION))
        assert np.max(np.abs(vi.values - direct.values)) < 1e-10

    def test_symmetry(self, params3):
        sol = solve_grid(params3, 20)
        assert np.max(np.abs(sol.values - sol.values.T)) < 1e-12

    def test_unit_closure_gives_constant_solution(self, params3):
        values = solve_edge(params3, 12, np.ones(12))
        assert np.max(np.abs(values - 1.0)) < 1e-12

    def test_closure_ordering_is_monotone(self, params3):
        # the system matrix is monotone, so raising the closure raises the
        # solution; the lower-bound field itself sits below every variant
        # because the axes carry the value 1 >= (d/r)^k
        low = solve_grid(params3, 15, closure="bounds-lower")
        mid = solve_grid(params3, 15)
        high = solve_grid(params3, 15, closure="bounds-upper")
        i = np.arange(1, 16)
        floor = params3.ratio ** np.add.outer(i, i)
        assert np.min(low.values - floor) > -1e-12
        assert np.min(mid.values - low.values) > -1e-12
        assert np.min(high.values - mid.values) > -1e-12

    def test_unknown_closure_rejected(self, params3):
        with pytest.raises(ValueError):
            solve_grid(params3, 5, closure="midpoint")

    def test_closure_is_a_policy_name(self, params3, monkeypatch):
        # boundary values of a caller's own go through the cell-set solve:
        # an edge array or a pair of them is refused before the coupling
        # table or a closure value is computed, whichever method is asked
        def fail(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(grid, "_stencil", fail)
        monkeypatch.setattr(grid.asymptotics, "closure_value", fail)
        edge = np.full(3, 0.5)
        policies = "closure must be one of asymptotic, bounds-lower, bounds-upper"
        for closure, got in [
            (edge, "array([0.5, 0.5, 0.5])"),
            ((edge, edge), "(array([0.5, 0.5, 0.5]), array([0.5, 0.5, 0.5]))"),
        ]:
            vi = SolveOptions(method=Method.VALUE_ITERATION)
            for call in [
                lambda: closure_arrays(params3, 3, closure),
                lambda: solve_grid(params3, 3, closure=closure),
                lambda: solve_grid(params3, 3, vi, closure=closure),
            ]:
                with pytest.raises(ValueError) as info:
                    call()
                assert str(info.value) == f"{policies}, got {got}"

    def test_named_closures(self, params3):
        assert list(CLOSURES) == ["asymptotic", "bounds-lower", "bounds-upper"]
        lower, upper = np.array([extinction_bounds(params3, k, 7) for k in range(1, 7)]).T
        for name, want in [("bounds-lower", lower), ("bounds-upper", upper)]:
            up, right, _ = closure_arrays(params3, 6, name)
            assert np.array_equal(up, want)
            assert np.array_equal(right, up)

    def test_method_by_name(self):
        # a name picks no solver: the method is a Method, DIRECT by default
        assert SolveOptions().method is Method.DIRECT
        assert SolveOptions(method=Method.VALUE_ITERATION).method is Method.VALUE_ITERATION
        for name in ["vi", "direct"]:
            with pytest.raises(TypeError, match="method must be a Method"):
                SolveOptions(method=name)

    def test_direct_solves_large_near_critical_grid(self, paramsc):
        # beyond the reach of value iteration's iteration cap
        n = 150
        sol = solve_grid(paramsc, n)
        powers = paramsc.ratio ** np.arange(1, n + 1)
        lo = np.outer(powers, powers)
        hi = np.add.outer(powers, powers) - lo
        assert sol.residual < 1e-12
        assert np.min(sol.values - lo) > -1e-12
        assert np.min(hi - sol.values) > -1e-12
        assert np.max(np.abs(sol.values - sol.values.T)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=0.999),
        st.integers(1, 12),
        st.data(),
    )
    def test_direct_monotone_and_symmetric_in_closure(self, ratio, n, data):
        # T = K - I with K substochastic, so -T^-1 >= 0 and the solution
        # rises with the closure; a symmetric closure gives a symmetric field
        params = ModelParams(r=2.0 / ratio, d=2.0)
        edges = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).map(np.array)
        edge, lift = data.draw(edges), data.draw(edges)
        base = solve_edge(params, n, edge)
        raised = solve_edge(params, n, edge + lift)
        assert np.min(raised - base) > -1e-12
        assert np.max(np.abs(base - base.T)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=0.999),
        st.integers(1, 12),
        st.data(),
    )
    def test_cell_set_solve_symmetric_bounded_and_monotone(self, ratio, n, data):
        # the solve on any symmetric set, one LU for two fields: each
        # solution is symmetric, in [0, 1], a fixed point of the cell-by-cell
        # recurrence on the set and no lower where its field is higher
        params = ModelParams(r=2.0 / ratio, d=2.0)

        def symmetric(size, elements):
            # a size x size array drawn on and above its diagonal, mirrored
            count = size * (size + 1) // 2
            upper = np.zeros((size, size))
            upper[np.triu_indices(size)] = data.draw(
                st.lists(elements, min_size=count, max_size=count)
            )
            return upper + np.triu(upper, 1).T

        cells = symmetric(n, st.sampled_from([0.0, 1.0])) > 0.0
        assume(cells.any())
        field = symmetric(n + 2, st.floats(0.0, 1.0))
        field[0, :] = field[:, 0] = 1.0
        raised = np.minimum(field + symmetric(n + 2, st.floats(0.0, 1.0)), 1.0)
        values, residual, iterations = grid._solve_cells(params, cells, np.stack([field, raised]))
        assert iterations == 1 and residual < 1e-12
        assert np.array_equal(values, values.transpose(0, 2, 1))
        assert np.min(values) > -1e-12 and np.max(values) < 1.0 + 1e-12
        assert np.min(values[1] - values[0]) > -1e-12
        for outside, solved in zip((field, raised), values):
            assert np.array_equal(solved[~cells], outside[1:-1, 1:-1][~cells])
            padded = outside.copy()
            padded[1:-1, 1:-1] = solved
            for i, j in zip(*np.nonzero(cells)):
                assert abs(apply_kernel(params, padded, i + 1, j + 1) - solved[i, j]) < 1e-12
        # the full box with solve_grid's own field is solve_grid, bit for bit
        box = np.ones((n, n), dtype=bool)
        for closure in CLOSURES:
            edge = closure_arrays(params, n, closure)[0]
            [alone], residual, _ = grid._solve_cells(params, box, grid._box_field(edge, edge)[None])
            sol = solve_grid(params, n, closure=closure)
            assert alone.tobytes() == sol.values.tobytes() and residual == sol.residual

    def test_default_method_follows_box_size(self, params3, monkeypatch):
        # the default factors where the predicted LU fits the budget, also
        # above N=150, where value iteration fails near criticality, and
        # every method refuses a larger box; value iteration runs on request
        assert solve_grid(params3, 151).iterations == 1
        assert solve_grid(params3, 200).iterations == 1
        monkeypatch.setattr(model, "_BUDGET", grid._BYTES_PER_NONZERO * grid._lu_nonzeros(20))
        assert solve_grid(params3, 20).iterations == 1
        for options in [None, *(SolveOptions(method=method) for method in Method)]:
            with pytest.raises(ValueError, match=r"^n must be <= 20, got 21"):
                solve_grid(params3, 21, options)
        vi = solve_grid(params3, 20, SolveOptions(method=Method.VALUE_ITERATION))
        # value iteration stops only at a multiple of its check interval
        assert vi.iterations > 1
        assert vi.iterations % grid._CHECK_EVERY == 0

    def test_every_entry_point_refuses_a_box_the_lu_refuses(self, params3, monkeypatch):
        # one size rule, stated before any work: neither the closure nor the
        # coupling table is computed for N = 575, whichever entry point or
        # method is asked
        def fail(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(grid, "_stencil", fail)
        monkeypatch.setattr(grid.asymptotics, "closure_value", fail)
        edge = np.zeros(575)
        for call in [
            lambda: solve_grid(params3, 575, SolveOptions(method=Method.VALUE_ITERATION)),
            lambda: solve_grid(params3, 575),
            lambda: assemble_system(params3, 575, edge, edge),
            lambda: closure_arrays(params3, 575),
            lambda: closure_arrays(params3, 575, edge),
        ]:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == (
                "n must be <= 574, got 575 (the largest box whose LU fits the 128 MiB budget)"
            )

    def test_bool_box_size_refused(self, params3):
        # True is a numbers.Integral, and used to solve the 1x1 box
        with pytest.raises(ValueError, match=r"^n must be an integer, got True$"):
            solve_grid(params3, True)

    def test_budget_admits_boxes_up_to_574(self):
        def fits(n):
            return grid._BYTES_PER_NONZERO * grid._lu_nonzeros(n) <= model._BUDGET

        assert fits(574) and not fits(575)

    @pytest.mark.parametrize("r", [3.0, 2.002])
    def test_predicted_fill_bounds_the_lu(self, r):
        # factored as solve_grid factors; the measured ratio to N^2 ln N
        # rises with N, so the bound must hold at the large boxes too
        params = ModelParams(r, 2.0)
        for n in [10, 50, 100, 200, 300]:
            _, _, a, _, _ = box_fold(params, n, closure_arrays(params, n)[0])
            lu = scipy.sparse.linalg.splu(
                a.tocsc(), permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1
            )
            assert grid._lu_nonzeros(n) >= lu.nnz, n

    def test_near_critical_default_factors_beyond_150(self, paramsc):
        n = 160
        sol = solve_grid(paramsc, n)
        powers = paramsc.ratio ** np.arange(1, n + 1)
        lo = np.outer(powers, powers)
        hi = np.add.outer(powers, powers) - lo
        assert sol.iterations == 1
        assert sol.residual < 1e-12
        assert np.min(sol.values - lo) > -1e-12
        assert np.min(hi - sol.values) > -1e-12
        assert np.max(np.abs(sol.values - sol.values.T)) < 1e-12

    @pytest.mark.parametrize("closure", list(CLOSURES))
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    @pytest.mark.parametrize("rate", ["r3", "rc"])
    def test_folded_system_is_the_fold_of_the_full_one(self, params3, paramsc, rate, n, closure):
        params = params3 if rate == "r3" else paramsc
        edge = closure_arrays(params, n, closure)[0]
        _, _, want, want_c, _ = folded_oracle(params, n, edge)
        _, _, a, [c], pos = box_fold(params, n, edge)
        want.sort_indices()
        a.sort_indices()
        assert np.array_equal(a.indptr, want.indptr)
        assert np.array_equal(a.indices, want.indices)
        assert np.array_equal(a.data, want.data)
        assert np.array_equal(c, want_c)
        assert a.indices.dtype == np.int32
        assert np.array_equal(pos, pos.T)
        assert np.array_equal(np.sort(pos[np.triu_indices(n)]), np.arange(c.size))

    @pytest.mark.parametrize("closure", list(CLOSURES))
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    @pytest.mark.parametrize("rate", ["r3", "rc"])
    def test_stencil_residual_is_system_residual(self, params3, paramsc, rate, n, closure):
        # bit for bit, for the solved field and for a field with no symmetry
        params = params3 if rate == "r3" else paramsc
        sol = solve_grid(params, n, closure=closure)
        edge, _, _ = closure_arrays(params, n, closure)
        t, b = assemble_system(params, n, edge, edge)
        rough = np.random.default_rng(n).random((n, n))
        for values in (sol.values, rough):
            full = float(np.max(np.abs(t @ values.reshape(-1) - b)))
            assert grid._residual(*solve_system(params, n, edge), values) == full
        assert sol.residual == float(np.max(np.abs(t @ sol.values.reshape(-1) - b)))

    def test_folded_direct_matches_unfolded_solve(self, paramsc):
        n = 60
        sol = solve_grid(paramsc, n)
        up, right, _ = closure_arrays(paramsc, n, "asymptotic")
        mat, rhs = assemble_system(paramsc, n, up, right)
        ref = scipy.sparse.linalg.spsolve(mat.tocsc(), rhs).reshape(n, n)
        assert np.max(np.abs(sol.values - ref)) < 1e-13
        assert np.array_equal(sol.values, sol.values.T)

    def test_value_iteration_residual_is_system_residual(self, params3):
        n = 20
        sol = solve_grid(params3, n, SolveOptions(method=Method.VALUE_ITERATION))
        mat, rhs = assemble_system(params3, n, *closure_arrays(params3, n)[:2])
        full = float(np.max(np.abs(mat @ sol.values.reshape(-1) - rhs)))
        assert sol.residual > 0.0
        assert abs(sol.residual - full) < 1e-15

    def test_near_critical_default_factors(self, paramsc):
        # the largest box the old value-iteration default could solve
        sol = solve_grid(paramsc, 142)
        assert sol.iterations == 1
        assert sol.residual < 1e-12

    @pytest.mark.parametrize("closure", ["asymptotic", "bounds-lower", "bounds-upper"])
    @pytest.mark.parametrize("rate, n", [("rc", 40), ("r3", 60)])
    def test_folded_value_iteration_matches_direct(self, params3, paramsc, rate, n, closure):
        params = params3 if rate == "r3" else paramsc
        vi = SolveOptions(method=Method.VALUE_ITERATION)
        sol = solve_grid(params, n, vi, closure=closure)
        ref = solve_grid(params, n, SolveOptions(method=Method.DIRECT), closure=closure)
        assert np.max(np.abs(sol.values - ref.values)) < VI_SLACK
        assert np.array_equal(sol.values, sol.values.T)
        assert sol.residual < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=0.999),
        st.integers(1, 12),
        st.data(),
    )
    def test_value_iteration_monotone_in_closure(self, ratio, n, data):
        # every iterate rises with the closure, rounding included, and each
        # fixed point is kept by every later step, so the two fields are
        # ordered exactly whichever stops first
        params = ModelParams(r=2.0 / ratio, d=2.0)
        edges = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).map(np.array)
        edge, lift = data.draw(edges), data.draw(edges)
        opts = SolveOptions(method=Method.VALUE_ITERATION)
        base = solve_edge(params, n, edge, opts)
        raised = solve_edge(params, n, edge + lift, opts)
        assert np.all(raised >= base)

    def test_iteration_cap_raises(self, params3, monkeypatch):
        monkeypatch.setattr(grid, "_MAX_ITER", 3)
        with pytest.raises(ConvergenceError) as info:
            solve_grid(params3, 20, SolveOptions(method=Method.VALUE_ITERATION))
        assert info.value.residual > 0.0

    @pytest.mark.parametrize("closure", list(CLOSURES))
    @pytest.mark.parametrize("n", [1, 7, 20, 40])
    @pytest.mark.parametrize("rate", ["r3", "rc"])
    def test_block_iterates_are_one_step_iterates(self, params3, paramsc, rate, n, closure):
        # the block loop compares iterates at block ends only, never skips a
        # step, and stops at the end of the block that reaches the fixed point
        params = params3 if rate == "r3" else paramsc
        vi = SolveOptions(method=Method.VALUE_ITERATION)
        sol = solve_grid(params, n, vi, closure=closure)
        _, _, a, c, mirror = folded_oracle(params, n, closure_arrays(params, n, closure)[0])
        q, stop = one_step_iterate(a, c, sol.iterations)
        assert np.array_equal(sol.values, (mirror @ q).reshape(n, n))
        again = (a + scipy.sparse.identity(a.shape[0], format="csr")) @ q
        again -= c
        assert np.array_equal(again, q)
        assert stop is not None and stop <= sol.iterations <= stop + grid._CHECK_EVERY - 1

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 4, 5, 31, 32, 33, 35])
    def test_iteration_cap_reports_the_capped_iterate(self, params3, monkeypatch, max_iter):
        # the cap ends the loop between block ends too, and the error carries
        # the residual of the last iterate
        n = 20
        monkeypatch.setattr(grid, "_MAX_ITER", max_iter)
        opts = SolveOptions(method=Method.VALUE_ITERATION)
        with pytest.raises(ConvergenceError) as info:
            solve_grid(params3, n, opts)
        t, b, a, c, mirror = folded_oracle(params3, n, closure_arrays(params3, n)[0])
        q, stop = one_step_iterate(a, c, max_iter)
        assert stop is None
        assert info.value.residual == float(np.max(np.abs(t @ (mirror @ q) - b)))
        assert f"no convergence within {max_iter} iterations" in str(info.value)

    def test_value_iteration_memory_stays_flat(self, paramsc):
        # about 29,500 steps; keeping one float a step would add about
        # 0.9 MiB to a peak that otherwise stays near 0.3 MiB
        tracemalloc.start()
        try:
            sol = solve_grid(paramsc, 40, SolveOptions(method=Method.VALUE_ITERATION))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.iterations > 20_000
        assert peak < 0.6 * 2**20

    def test_options_validated(self):
        for method in ["lu", None, 1]:
            with pytest.raises(TypeError):
                SolveOptions(method=method)

    def test_residual_reported_small(self, grid50):
        assert grid50.residual < 1e-11
        assert grid50.iterations > 0


class TestSolutionAccess:
    def test_column_recursion_defect(self, params3):
        sol = solve_grid(params3, 10)
        assert column_recursion_defect(sol) < 1e-12


def column_recursion_defect(solution) -> float:
    """Maximum defect of the rearranged recurrence

        p_{i,j+1} = 2(r+d)/r p_{i,j} - 2di/(r(i+j)) p_{i-1,j}
                  - 2dj/(r(i+j)) p_{i,j-1} - p_{i+1,j}

    over 1 <= i, j <= N-1, an oracle independent of the solver's own
    stencil.  Marching this recursion is numerically unstable (the 2(r+d)/r
    factor amplifies noise geometrically), so it only checks a solution.
    """
    params, n = solution.params, solution.n
    r, d = params.r, params.d
    v = np.ones((n + 1, n + 1))
    v[1:, 1:] = solution.values
    ii, jj = np.meshgrid(np.arange(1, n), np.arange(1, n), indexing="ij")
    predicted = (
        2.0 * (r + d) / r * v[1:n, 1:n]
        - 2.0 * d * ii / (r * (ii + jj)) * v[0 : n - 1, 1:n]
        - 2.0 * d * jj / (r * (ii + jj)) * v[1:n, 0 : n - 1]
        - v[2 : n + 1, 1:n]
    )
    return float(np.max(np.abs(predicted - v[1:n, 2 : n + 1])))


class TestCsv:
    def test_layout(self, params3):
        sol = solve_grid(params3, 2)
        buf = io.StringIO()
        write_grid_csv(sol, buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == "i,j,p"
        assert lines[1] == "1,1,0.795061728395"  # 322/405
        assert len(lines) == 6 and lines[5] == ""
        assert "\r" not in buf.getvalue()
        # p underflows to 0 in 3,668 cells here, 3,630 of which the LU used to
        # leave as -0
        sol = solve_grid(ModelParams(100.0, 1.0), 200)
        assert np.count_nonzero(sol.values == 0.0) > 3000
        assert not np.signbit(sol.values).any()
        buf = io.StringIO()
        write_grid_csv(sol, buf)
        assert not any(line.split(",")[2].startswith("-") for line in buf.getvalue().split()[1:])
