"""Tests for the triangular solvers: sequential reference vs wavefront
executor vs dense/SciPy oracles."""

import numpy as np
import pytest

from repro.errors import (NotTriangularError, ScheduleError, ShapeError,
                          SingularFactorError)
from repro.graph import LevelSchedule, level_schedule
from repro.precond import (ScheduledTriangularSolver, ilu0,
                           solve_lower_sequential, solve_upper_sequential)
from repro.sparse import CSRMatrix, stencil_poisson_2d

from conftest import peak_alloc_bytes

sla = pytest.importorskip("scipy.linalg")


def random_lower(rng, n, density=0.3, unit=False):
    dense = rng.standard_normal((n, n))
    mask = rng.random((n, n)) > density
    dense[mask] = 0.0
    dense = np.tril(dense, -1)
    np.fill_diagonal(dense, 1.0 if unit else rng.random(n) + 0.5)
    return dense


class TestSequentialSolvers:
    def test_lower_matches_scipy(self, rng):
        dense = random_lower(rng, 25)
        b = rng.standard_normal(25)
        x = solve_lower_sequential(CSRMatrix.from_dense(dense), b)
        np.testing.assert_allclose(x, sla.solve_triangular(dense, b,
                                                           lower=True),
                                   rtol=1e-10)

    def test_upper_matches_scipy(self, rng):
        dense = random_lower(rng, 25).T.copy()
        b = rng.standard_normal(25)
        x = solve_upper_sequential(CSRMatrix.from_dense(dense), b)
        np.testing.assert_allclose(x, sla.solve_triangular(dense, b,
                                                           lower=False),
                                   rtol=1e-10)

    def test_unit_diagonal_lower(self, rng):
        dense = random_lower(rng, 15, unit=True)
        strict = np.tril(dense, -1)  # storage without the diagonal
        b = rng.standard_normal(15)
        x = solve_lower_sequential(CSRMatrix.from_dense(strict), b,
                                   unit_diagonal=True)
        np.testing.assert_allclose(dense @ x, b, atol=1e-10)

    def test_missing_pivot_raises(self):
        a = CSRMatrix.from_dense(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(SingularFactorError) as ei:
            solve_lower_sequential(a, np.ones(2))
        assert ei.value.row == 1

    def test_not_triangular_raises(self):
        a = CSRMatrix.from_dense(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(NotTriangularError):
            solve_lower_sequential(a, np.ones(2))

    def test_shape_checks(self, fig1_lower):
        with pytest.raises(ShapeError):
            solve_lower_sequential(fig1_lower, np.ones(7))


class TestScheduledSolver:
    @pytest.mark.parametrize("n", [1, 2, 17, 64, 200])
    def test_matches_sequential_lower(self, rng, n):
        dense = random_lower(rng, n)
        a = CSRMatrix.from_dense(dense)
        b = rng.standard_normal(n)
        solver = ScheduledTriangularSolver(a, kind="lower")
        np.testing.assert_allclose(solver.solve(b),
                                   solve_lower_sequential(a, b),
                                   rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("n", [2, 31, 100])
    def test_matches_sequential_upper(self, rng, n):
        dense = random_lower(rng, n).T.copy()
        a = CSRMatrix.from_dense(dense)
        b = rng.standard_normal(n)
        solver = ScheduledTriangularSolver(a, kind="upper")
        np.testing.assert_allclose(solver.solve(b),
                                   solve_upper_sequential(a, b),
                                   rtol=1e-9, atol=1e-9)

    def test_unit_diagonal(self, rng):
        dense = random_lower(rng, 40, unit=True)
        strict = CSRMatrix.from_dense(np.tril(dense, -1))
        b = rng.standard_normal(40)
        solver = ScheduledTriangularSolver(strict, kind="lower",
                                           unit_diagonal=True)
        np.testing.assert_allclose(dense @ solver.solve(b), b, atol=1e-9)

    def test_residual_of_solution(self, rng):
        dense = random_lower(rng, 80)
        a = CSRMatrix.from_dense(dense)
        b = rng.standard_normal(80)
        x = ScheduledTriangularSolver(a, kind="lower").solve(b)
        np.testing.assert_allclose(a.matvec(x), b, atol=1e-8)

    def test_reuses_precomputed_schedule(self, rng):
        dense = random_lower(rng, 30)
        a = CSRMatrix.from_dense(dense)
        sched = level_schedule(a, kind="lower")
        solver = ScheduledTriangularSolver(a, kind="lower", schedule=sched)
        assert solver.schedule is sched

    def test_zero_pivot_rejected_at_construction(self):
        a = CSRMatrix.from_dense(np.array([[1.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(SingularFactorError):
            ScheduledTriangularSolver(a, kind="lower")

    def test_kernel_profile_sums(self, rng):
        dense = random_lower(rng, 50)
        a = CSRMatrix.from_dense(dense)
        solver = ScheduledTriangularSolver(a, kind="lower")
        rows, nnz = solver.kernel_profile()
        assert rows.sum() == 50
        assert nnz.sum() == a.nnz  # off-diag + one diag op per row
        assert len(rows) == solver.n_levels

    def test_n_levels_matches_schedule(self, fig1_lower):
        solver = ScheduledTriangularSolver(fig1_lower, kind="lower")
        assert solver.n_levels == 3

    def test_out_parameter(self, rng):
        dense = random_lower(rng, 12)
        a = CSRMatrix.from_dense(dense)
        b = rng.standard_normal(12)
        out = np.empty(12)
        res = ScheduledTriangularSolver(a, kind="lower").solve(b, out=out)
        assert res is out

    def test_float32_path(self, rng):
        dense = random_lower(rng, 30).astype(np.float32)
        a = CSRMatrix.from_dense(dense)
        b = rng.standard_normal(30).astype(np.float32)
        x = ScheduledTriangularSolver(a, kind="lower").solve(b)
        assert x.dtype == np.float32
        np.testing.assert_allclose(a.matvec(x), b, atol=1e-3)

    def test_invalid_kind(self, fig1_lower):
        with pytest.raises(ValueError):
            ScheduledTriangularSolver(fig1_lower, kind="diagonal")

    def test_wrong_triangle_rejected(self, rng):
        dense = random_lower(rng, 10).T.copy()
        a = CSRMatrix.from_dense(dense)
        with pytest.raises(NotTriangularError):
            ScheduledTriangularSolver(a, kind="lower")


def _fan_triangle(n):
    """Lower triangle storing column 0 and the diagonal: two wavefronts,
    the second holding every row but one and nearly every entry."""
    indptr = np.concatenate(([0, 1], 1 + 2 * np.arange(1, n)))
    indices = np.zeros(2 * n - 1, dtype=np.int64)
    indices[2::2] = np.arange(1, n)
    return CSRMatrix(indptr, indices, np.full(2 * n - 1, 0.5), (n, n))


def _solver_arrays(solver):
    arrays = [solver._perm, solver._coef, solver._level_nnz]
    for level in solver._levels:
        arrays += [v for v in level if isinstance(v, np.ndarray)]
    return arrays


class TestSweepArrays:
    """The sweep's gather indices, segment offsets and coefficients are
    private to the solver and writeable, as NumPy's ``take`` and
    ``reduceat`` copy a read-only index array on every call: a sweep
    allocates its own buffers and nothing index-sized besides, and no
    solve writes into them."""

    def test_one_column_sweep_allocates_only_its_buffers(self):
        n = 20_000
        solver = ScheduledTriangularSolver(_fan_triangle(n), kind="lower")
        assert solver.n_levels == 2 and solver._max_nnz == 2 * (n - 1)
        b = np.ones(n)
        # The permuted right-hand side, the widest level's products and
        # the solution.
        buffers = 8 * (n + solver._max_nnz + n)
        assert peak_alloc_bytes(lambda: solver.solve(b)) <= buffers + 4096

    def test_solves_write_no_solver_array(self, rng):
        f = ilu0(stencil_poisson_2d(12))
        for solver in (ScheduledTriangularSolver(f.lower, kind="lower",
                                                 unit_diagonal=True),
                       ScheduledTriangularSolver(f.upper, kind="upper")):
            before = [arr.copy() for arr in _solver_arrays(solver)]
            n = solver.n
            for b in (rng.standard_normal(n), rng.standard_normal((n, 1)),
                      rng.standard_normal((n, 8)),
                      rng.standard_normal((n, 3)).astype(np.float32)):
                solver.solve(b)
            after = _solver_arrays(solver)
            assert len(after) == len(before)
            for old, new in zip(before, after):
                assert old.dtype == new.dtype
                assert old.tobytes() == new.tobytes()


def _first_broken_row(tri, kind, schedule):
    """Lowest row with an off-diagonal entry whose column is not in a
    strictly earlier level — the row-by-row reading of the rule."""
    level_of = np.empty(tri.n_rows, dtype=np.int64)
    for k in range(schedule.n_levels):
        level_of[schedule.level_rows(k)] = k
    for i in range(tri.n_rows):
        for j in tri.indices[tri.indptr[i]:tri.indptr[i + 1]]:
            dep = j < i if kind == "lower" else j > i
            if dep and level_of[j] >= level_of[i]:
                return i
    return None


class TestScheduleValidation:
    """Regression: a schedule passed to the solver used to be trusted, so
    one that breaks a dependence gave a wrong answer without an error
    (on the ILU(0) ``L`` below, 0.38 max abs off the sequential solve
    for a standard normal ``b``)."""

    @pytest.fixture
    def factors(self):
        return ilu0(stencil_poisson_2d(6))

    def _check_rejected(self, tri, kind, unit, schedule):
        expect = _first_broken_row(tri, kind, schedule)
        assert expect is not None
        with pytest.raises(ScheduleError) as info:
            ScheduledTriangularSolver(tri, kind=kind, unit_diagonal=unit,
                                      schedule=schedule)
        assert isinstance(info.value, ValueError)
        assert info.value.row == expect
        assert f"row {expect} " in str(info.value)

    def test_single_level_schedule_rejected(self, factors):
        n = factors.n
        flat = LevelSchedule(level_of=np.zeros(n, dtype=np.int64),
                             rows=np.arange(n, dtype=np.int64),
                             level_ptr=np.array([0, n], dtype=np.int64))
        self._check_rejected(factors.lower, "lower", True, flat)
        self._check_rejected(factors.upper, "upper", False, flat)

    def test_other_triangles_schedule_rejected(self, factors):
        self._check_rejected(factors.lower, "lower", True,
                             factors.upper_schedule)
        self._check_rejected(factors.upper, "upper", False,
                             factors.lower_schedule)

    def test_schedule_missing_a_row_rejected(self):
        # Row 2 has no dependence either way, so only the check that
        # every row is listed once can catch its absence.
        tri = CSRMatrix.from_dense(np.array([[1.0, 0.0, 0.0],
                                             [2.0, 1.0, 0.0],
                                             [0.0, 0.0, 1.0]]))
        bad = LevelSchedule(level_of=np.array([0, 1, 0], dtype=np.int64),
                            rows=np.array([0, 0, 1], dtype=np.int64),
                            level_ptr=np.array([0, 2, 3], dtype=np.int64))
        with pytest.raises(ScheduleError) as info:
            ScheduledTriangularSolver(tri, kind="lower", schedule=bad)
        assert info.value.row == 2
        # Levels that do not cover the rows list none of them.
        short = LevelSchedule(level_of=np.array([0, 1, 0], dtype=np.int64),
                              rows=np.array([0, 2, 1], dtype=np.int64),
                              level_ptr=np.array([0, 2], dtype=np.int64))
        with pytest.raises(ScheduleError):
            ScheduledTriangularSolver(tri, kind="lower", schedule=short)


def _dup_diag_lower():
    """2x2 lower factor whose row 0 stores the diagonal twice.

    Duplicate (uncoalesced) entries are representable in CSR built with
    ``check=False``; standard semantics sum them, so the effective
    matrix is ``[[2, 0], [1, 4]]``.
    """
    indptr = np.array([0, 2, 4], dtype=np.int64)
    indices = np.array([0, 0, 0, 1], dtype=np.int64)
    data = np.array([1.5, 0.5, 1.0, 4.0])
    return CSRMatrix(indptr, indices, data, (2, 2), check=False)


class TestDuplicateDiagonalRegression:
    """Regression: the oracles used to take only the *first* stored
    diagonal entry (``vals[dmask][0]``), silently dropping duplicates;
    the fixed code sums them (`x = [2, 2]`, not ``[8/3, 11/6]``)."""

    def test_sequential_lower_sums_duplicates(self):
        x = solve_lower_sequential(_dup_diag_lower(), np.array([4.0, 10.0]))
        np.testing.assert_allclose(x, [2.0, 2.0], rtol=0, atol=0)

    def test_sequential_upper_sums_duplicates(self):
        indptr = np.array([0, 2, 4], dtype=np.int64)
        indices = np.array([0, 1, 1, 1], dtype=np.int64)
        data = np.array([2.0, 1.0, 1.5, 0.5])
        upper = CSRMatrix(indptr, indices, data, (2, 2), check=False)
        x = solve_upper_sequential(upper, np.array([6.0, 4.0]))
        np.testing.assert_allclose(x, [2.0, 2.0], rtol=0, atol=0)

    def test_executor_agrees_with_oracle(self):
        tri = _dup_diag_lower()
        b = np.array([4.0, 10.0])
        solver = ScheduledTriangularSolver(tri, kind="lower")
        np.testing.assert_array_equal(solver.solve(b),
                                      solve_lower_sequential(tri, b))


class TestRelativePivotThreshold:
    """Regression: ``_PIVOT_RTOL = 0.0`` was documented as relative but
    caught only exact zeros — a denormal float32 pivot (1e-40) passed
    the check and its reciprocal overflowed to inf.  The threshold is
    now genuinely relative (dtype-aware eps default) with a denormal
    floor, and the raised error carries the offending magnitude."""

    def _denormal_factor(self):
        indptr = np.array([0, 1, 3], dtype=np.int64)
        indices = np.array([0, 0, 1], dtype=np.int64)
        data = np.array([1.0, 0.5, 1e-40], dtype=np.float32)
        return CSRMatrix(indptr, indices, data, (2, 2), check=False)

    def test_sequential_rejects_denormal_float32_pivot(self):
        with pytest.raises(SingularFactorError) as ei:
            solve_lower_sequential(self._denormal_factor(),
                                   np.ones(2, dtype=np.float32))
        assert ei.value.row == 1
        assert "1.000e-40" in str(ei.value)

    def test_executor_rejects_denormal_float32_pivot(self):
        with pytest.raises(SingularFactorError) as ei:
            ScheduledTriangularSolver(self._denormal_factor(), kind="lower")
        assert ei.value.row == 1

    def test_float64_healthy_pivots_unaffected(self, rng):
        dense = random_lower(rng, 40)
        a = CSRMatrix.from_dense(dense)
        b = rng.standard_normal(40)
        np.testing.assert_allclose(a.matvec(solve_lower_sequential(a, b)),
                                   b, atol=1e-8)

    def test_explicit_rtol_zero_still_allows_tiny_normals(self):
        a = CSRMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 1e-30]]))
        x = solve_lower_sequential(a, np.ones(2), pivot_rtol=0.0)
        assert np.isfinite(x).all()

    def test_relative_rtol_scales_with_largest_pivot(self):
        # 1e-6 is fine alone but negligible next to a 1e8 pivot.
        a = CSRMatrix.from_dense(np.array([[1e8, 0.0], [0.0, 1e-6]]))
        with pytest.raises(SingularFactorError):
            solve_lower_sequential(a, np.ones(2), pivot_rtol=1e-10)


#: float32 2x2 systems (b0, b1, d0, d1, v) where accumulating the
#: forward substitution in float64 (the old oracle's Python-float path)
#: and rounding once yields a *different* float32 result than
#: accumulating in the array dtype.  Found by seeded brute force.
_F32_DOUBLE_ROUNDING_CASES = [
    (1.3222980499267578, -0.29969850182533264, -3.2431654930114746,
     -0.31637853384017944, 0.902919352054596, -0.21631766855716705),
    (0.4494839310646057, -1.343601107597351, 3.449479818344116,
     5.236319065093994, -0.08168759196996689, -0.2545599043369293),
    (-0.7950174808502197, 0.3000309467315674, 0.5335976481437683,
     -2.523247480392456, -1.6027015447616577, 0.8274516463279724),
]


class TestInDtypeAccumulationRegression:
    """Regression: the sequential oracles used to accumulate through
    Python floats (always float64) while the executor accumulates in
    the array dtype, so float32 equivalence could only be asserted to a
    loose tolerance.  The oracles now accumulate in
    ``np.result_type(tri.dtype, b.dtype)``."""

    @pytest.mark.parametrize("b0,b1,d0,d1,v,old", _F32_DOUBLE_ROUNDING_CASES)
    def test_float32_accumulates_in_dtype(self, b0, b1, d0, d1, v, old):
        f = np.float32
        dense = np.array([[d0, 0.0], [v, d1]], dtype=f)
        tri = CSRMatrix.from_dense(dense)
        x = solve_lower_sequential(tri, np.array([b0, b1], dtype=f))
        assert x.dtype == np.float32
        x0 = f(f(b0) / f(d0))
        expected = f(f(f(b1) - f(f(v) * x0)) / f(d1))
        x1_old = f((float(b1) - float(v) * float(x0)) / float(d1))
        assert x1_old != expected  # the cases distinguish old from new
        assert x[1] == expected

    def test_float64_result_type_promotion(self, rng):
        # float32 factor, float64 rhs: accumulation must promote.
        dense = random_lower(rng, 20).astype(np.float32)
        tri = CSRMatrix.from_dense(dense)
        b = rng.standard_normal(20)
        x = solve_lower_sequential(tri, b)
        assert x.dtype == np.float64
