"""Equivalence tests: vectorized kernels vs the scalar oracles.

The wavefront-batched numeric factorization of
``repro.perf.vectorized`` claims bitwise equality with the scalar IKJ
sweep; the level-contiguous triangular executor claims tight agreement
with the sequential substitutions, column-by-column bitwise equality
between block and single right-hand sides, independence from how tight
the level schedule is, and bitwise equality with the one-partition
partitioned engine.  These tests pin those claims, property-based over
the generators of ``test_properties``, through the public API only.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SingularFactorError, SparseFormatError
from repro.graph import LevelSchedule
from repro.perf import build_factor_plan, get_cache, ilu_numeric_vectorized
from repro.perf.vectorized import (solve_lower_vectorized,
                                   solve_upper_vectorized)
from repro.precond import (PartitionedTriangularSolver,
                           ScheduledTriangularSolver, ilu0,
                           solve_lower_sequential, solve_upper_sequential)
from repro.precond.ilu0 import ilu_numeric_inplace
from repro.precond.iluk import iluk
from repro.sparse import CSRMatrix, random_spd, stencil_poisson_2d

from test_properties import dense_matrix


class TestVectorizedILUEquivalence:
    @given(dense_matrix(max_n=20, spd=True))
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_on_spd(self, dense):
        a = CSRMatrix.from_dense(dense)
        fs, fls = ilu_numeric_inplace(a, raise_on_zero_pivot=False)
        fv, flv = ilu_numeric_vectorized(a, raise_on_zero_pivot=False)
        np.testing.assert_array_equal(fs, fv)
        assert fls == flv

    @given(dense_matrix(max_n=16, spd=True), st.floats(0.0, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equal_across_drop_ratios(self, dense, ratio):
        from repro.core import sparsify_magnitude

        a_hat = sparsify_magnitude(CSRMatrix.from_dense(dense), ratio).a_hat
        fs, _ = ilu_numeric_inplace(a_hat, raise_on_zero_pivot=False)
        fv, _ = ilu_numeric_vectorized(a_hat, raise_on_zero_pivot=False)
        np.testing.assert_array_equal(fs, fv)

    @pytest.mark.parametrize("n", [9, 16])
    def test_bitwise_equal_on_poisson(self, n):
        a = stencil_poisson_2d(n)
        fs, fls = ilu_numeric_inplace(a)
        fv, flv = ilu_numeric_vectorized(a)
        np.testing.assert_array_equal(fs, fv)
        assert fls == flv

    def test_registry_matrix_bitwise(self):
        from repro.datasets import load

        a = load("thermal_900_s100")
        fs, fls = ilu_numeric_inplace(a, raise_on_zero_pivot=False)
        fv, flv = ilu_numeric_vectorized(a, raise_on_zero_pivot=False)
        np.testing.assert_array_equal(fs, fv)
        assert fls == flv

    def test_zero_pivot_raises_in_both(self):
        # Elimination drives row 1's pivot to exactly zero.
        a = CSRMatrix.from_dense(np.array([[2.0, 1.0], [4.0, 2.0]]))
        with pytest.raises(SingularFactorError):
            ilu_numeric_inplace(a)
        with pytest.raises(SingularFactorError):
            ilu_numeric_vectorized(a)

    def test_boosted_pivot_bitwise_equal(self):
        a = CSRMatrix.from_dense(np.array([[2.0, 1.0], [4.0, 2.0]]))
        fs, _ = ilu_numeric_inplace(a, raise_on_zero_pivot=False)
        fv, _ = ilu_numeric_vectorized(a, raise_on_zero_pivot=False)
        np.testing.assert_array_equal(fs, fv)

    def test_missing_diagonal_rejected(self):
        a = CSRMatrix.from_dense(np.array([[1.0, 2.0], [3.0, 0.0]]))
        with pytest.raises(SparseFormatError):
            ilu_numeric_vectorized(a)

    def test_plan_is_cached_by_structure(self, spd_random):
        ilu_numeric_vectorized(spd_random, raise_on_zero_pivot=False)
        # Same pattern, different values: plan reused.
        other = CSRMatrix(spd_random.indptr, spd_random.indices,
                          spd_random.data * 1.5, spd_random.shape)
        ilu_numeric_vectorized(other, raise_on_zero_pivot=False)
        stats = get_cache().stats
        assert stats.misses_by_kind["ilu_plan"] == 1
        assert stats.hits_by_kind["ilu_plan"] == 1

    def test_explicit_plan_accepted(self, spd_random):
        plan = build_factor_plan(spd_random)
        f1, _ = ilu_numeric_vectorized(spd_random, plan=plan,
                                       raise_on_zero_pivot=False)
        f2, _ = ilu_numeric_inplace(spd_random, raise_on_zero_pivot=False)
        np.testing.assert_array_equal(f1, f2)


class TestFactoryNumericModes:
    def test_ilu0_modes_agree(self, spd_random):
        fv = ilu0(spd_random, raise_on_zero_pivot=False)
        fs = ilu0(spd_random, raise_on_zero_pivot=False, numeric="scalar")
        np.testing.assert_array_equal(fv.lower.data, fs.lower.data)
        np.testing.assert_array_equal(fv.upper.data, fs.upper.data)
        assert fv.factor_flops == fs.factor_flops

    def test_iluk_modes_agree(self, spd_random):
        fv = iluk(spd_random, 2, raise_on_zero_pivot=False)
        fs = iluk(spd_random, 2, raise_on_zero_pivot=False,
                  numeric="scalar")
        np.testing.assert_array_equal(fv.lower.data, fs.lower.data)
        np.testing.assert_array_equal(fv.upper.data, fs.upper.data)

    def test_unknown_mode_rejected(self, spd_random):
        with pytest.raises(ValueError):
            ilu0(spd_random, numeric="simd")
        with pytest.raises(ValueError):
            iluk(spd_random, 1, numeric="simd")


class TestExecutorFastPath:
    @given(dense_matrix(max_n=14, lower=True), st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_fast_path_matches_sequential(self, dense, seed):
        low = CSRMatrix.from_dense(dense)
        b = np.random.default_rng(seed).standard_normal(low.n_rows)
        x_fast = ScheduledTriangularSolver(low, kind="lower").solve(b)
        x_seq = solve_lower_sequential(low, b)
        np.testing.assert_allclose(x_fast, x_seq, rtol=1e-9, atol=1e-9)

    @given(dense_matrix(max_n=14, lower=True, unit_diag=True),
           st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_fast_path_unit_diagonal(self, dense, seed):
        low = CSRMatrix.from_dense(dense)
        b = np.random.default_rng(seed).standard_normal(low.n_rows)
        x_fast = ScheduledTriangularSolver(
            low, kind="lower", unit_diagonal=True).solve(b)
        x_seq = solve_lower_sequential(low, b, unit_diagonal=True)
        np.testing.assert_allclose(x_fast, x_seq, rtol=1e-9, atol=1e-9)

    def test_upper_fast_path(self, rng):
        a = stencil_poisson_2d(12)
        f = ilu0(a)
        b = rng.standard_normal(a.n_rows)
        bwd = ScheduledTriangularSolver(f.upper, kind="upper")
        np.testing.assert_allclose(
            bwd.solve(b), solve_upper_sequential(f.upper, b),
            rtol=1e-9, atol=1e-9)

    def test_float32_fallback_still_correct(self, rng):
        a = stencil_poisson_2d(8)
        f = ilu0(a)
        low32 = CSRMatrix(f.lower.indptr, f.lower.indices,
                          f.lower.data.astype(np.float32), f.lower.shape,
                          check=False)
        b = rng.standard_normal(a.n_rows).astype(np.float32)
        x = ScheduledTriangularSolver(low32, kind="lower",
                                      unit_diagonal=True).solve(b)
        assert x.dtype == np.float32
        x64 = solve_lower_sequential(f.lower, b.astype(np.float64),
                                     unit_diagonal=True)
        np.testing.assert_allclose(x, x64, rtol=1e-4, atol=1e-4)

    def test_out_parameter_roundtrip(self, rng):
        a = stencil_poisson_2d(10)
        f = ilu0(a)
        solver = ScheduledTriangularSolver(f.lower, kind="lower",
                                           unit_diagonal=True)
        b = rng.standard_normal(a.n_rows)
        out = np.empty(a.n_rows)
        res = solver.solve(b, out=out)
        assert res is out
        np.testing.assert_array_equal(out, solver.solve(b))

    def test_concurrent_solves_share_solver(self, rng):
        """Scratch space is allocated per call, so concurrent solves on
        one shared solver must not interfere."""
        import sys
        import threading

        a = random_spd(150, density=0.04, seed=9)
        f = ilu0(a, raise_on_zero_pivot=False)
        solver = ScheduledTriangularSolver(f.lower, kind="lower",
                                           unit_diagonal=True)
        # Single and block right-hand sides, so the per-call buffers of
        # concurrent calls differ in width.
        rhss = [rng.standard_normal(a.n_rows) if i % 2
                else rng.standard_normal((a.n_rows, 3)) for i in range(8)]
        expected = [solver.solve(b) for b in rhss]
        mismatches = []

        def worker(i):
            for _ in range(60):
                if not np.array_equal(solver.solve(rhss[i]), expected[i]):
                    mismatches.append(i)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(rhss))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []


def _oracle(tri, b, kind, unit):
    if kind == "lower":
        return solve_lower_sequential(tri, b, unit_diagonal=unit)
    return solve_upper_sequential(tri, b, unit_diagonal=unit)


@st.composite
def wide_factor(draw):
    """A random triangular factor of order >= 140 with one row holding
    >= 9 and one >= 130 off-diagonal entries: ``reduceat`` copies a
    row's first entry and adds the rest, and NumPy's add reduction
    switches from a plain loop to eight accumulators at 8 addends and
    to pairwise blocks above 128.  Returns ``(tri, kind, unit)``."""
    n = draw(st.integers(140, 170))
    kind = draw(st.sampled_from(["lower", "upper"]))
    unit = draw(st.booleans())
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    dense = rng.standard_normal((n, n))
    dense[rng.random((n, n)) > 0.04] = 0.0
    r8, k8 = int(rng.integers(24, n)), int(rng.integers(9, 24))
    dense[r8, rng.choice(r8, size=k8, replace=False)] = (
        rng.standard_normal(k8))
    r128 = int(rng.integers(130, n))
    dense[r128, :r128] = rng.standard_normal(r128)
    dense = np.tril(dense, -1)
    # Scale rows so the substitution stays bounded in float32.
    dense /= np.maximum((dense != 0).sum(axis=1, keepdims=True), 1)
    np.fill_diagonal(dense, 0.0 if unit else rng.random(n) + 1.0)
    if kind == "upper":
        dense = dense[::-1, ::-1].copy()
    return CSRMatrix.from_dense(dense.astype(dtype)), kind, unit


def _loose_schedule(tri, kind, rng):
    """A valid level schedule that is not tight: every row may sit up to
    two levels later than its dependencies require, and the first row
    solved always does, so levels >= 1 hold rows without off-diagonal
    entries (and some levels may hold no rows at all)."""
    n = tri.n_rows
    level_of = np.zeros(n, dtype=np.int64)
    order = range(n) if kind == "lower" else range(n - 1, -1, -1)
    for step, i in enumerate(order):
        cols = tri.indices[tri.indptr[i]:tri.indptr[i + 1]]
        deps = cols[cols < i] if kind == "lower" else cols[cols > i]
        base = int(level_of[deps].max()) + 1 if deps.size else 0
        level_of[i] = base + int(rng.integers(0, 3)) + (step == 0)
    counts = np.bincount(level_of)
    level_ptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=level_ptr[1:])
    schedule = LevelSchedule(level_of=level_of,
                             rows=np.argsort(level_of, kind="stable"),
                             level_ptr=level_ptr)
    schedule.validate_against(tri, kind=kind)
    return schedule


class TestLevelContiguousExecutor:
    @given(wide_factor(), st.integers(1, 8), st.integers(0, 2 ** 31))
    @settings(max_examples=30, deadline=None)
    def test_block_columns_bitwise_equal_single_solves(self, fac, width,
                                                        seed):
        tri, kind, unit = fac
        solver = ScheduledTriangularSolver(tri, kind=kind,
                                           unit_diagonal=unit)
        b = (np.random.default_rng(seed)
             .standard_normal((tri.n_rows, width)).astype(tri.dtype))
        x = solver.solve(b)
        assert x.dtype == tri.dtype and x.shape == b.shape
        for j in range(width):
            # b[:, j] is a strided view; the copy is contiguous.
            np.testing.assert_array_equal(x[:, j], solver.solve(b[:, j]))
            np.testing.assert_array_equal(
                x[:, j], solver.solve(np.ascontiguousarray(b[:, j])))
        tol = 1e-3 if tri.dtype == np.float32 else 1e-10
        np.testing.assert_allclose(x[:, 0], _oracle(tri, b[:, 0], kind, unit),
                                   rtol=tol, atol=tol)

    @given(dense_matrix(max_n=30, lower=True), st.booleans(),
           st.booleans(), st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_non_tight_schedule_matches_sequential(self, dense, upper,
                                                   unit, seed):
        kind = "upper" if upper else "lower"
        tri = CSRMatrix.from_dense(dense.T.copy() if upper else dense)
        rng = np.random.default_rng(seed)
        loose = _loose_schedule(tri, kind, rng)
        first = 0 if kind == "lower" else tri.n_rows - 1
        assert loose.level_of[first] >= 1
        solver = ScheduledTriangularSolver(tri, kind=kind,
                                           unit_diagonal=unit,
                                           schedule=loose)
        tight = ScheduledTriangularSolver(tri, kind=kind,
                                          unit_diagonal=unit)
        assert solver.n_levels == loose.n_levels
        b = rng.standard_normal((tri.n_rows, 3))
        x = solver.solve(b)
        # Each row's sum runs over the same entries in the same order
        # whatever level the row sits in.
        np.testing.assert_array_equal(x, tight.solve(b))
        for j in range(3):
            np.testing.assert_allclose(x[:, j],
                                       _oracle(tri, b[:, j], kind, unit),
                                       rtol=1e-9, atol=1e-9)

    @given(wide_factor(), st.sampled_from([0, 1, 4]),
           st.integers(0, 2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_one_partition_bitwise_equals_scheduled(self, fac, width,
                                                     seed):
        tri, kind, unit = fac
        shape = (tri.n_rows,) if width == 0 else (tri.n_rows, width)
        b = np.random.default_rng(seed).standard_normal(shape)
        part = PartitionedTriangularSolver(tri, kind=kind,
                                           unit_diagonal=unit, n_parts=1)
        sched = ScheduledTriangularSolver(tri, kind=kind,
                                          unit_diagonal=unit)
        np.testing.assert_array_equal(part.solve(b), sched.solve(b))


class TestOneShotSubstitutions:
    def test_lower_and_upper_match_sequential(self, rng):
        a = stencil_poisson_2d(10)
        f = ilu0(a)
        b = rng.standard_normal(a.n_rows)
        np.testing.assert_allclose(
            solve_lower_vectorized(f.lower, b, unit_diagonal=True),
            solve_lower_sequential(f.lower, b, unit_diagonal=True),
            rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(
            solve_upper_vectorized(f.upper, b),
            solve_upper_sequential(f.upper, b),
            rtol=1e-9, atol=1e-9)

    def test_repeat_solves_reuse_inspector(self, rng):
        a = stencil_poisson_2d(10)
        f = ilu0(a)
        b = rng.standard_normal(a.n_rows)
        solve_lower_vectorized(f.lower, b, unit_diagonal=True)
        solve_lower_vectorized(f.lower, b, unit_diagonal=True)
        stats = get_cache().stats
        assert stats.misses_by_kind["triangular_solver"] == 1
        assert stats.hits_by_kind["triangular_solver"] == 1


class TestCachedVsFreshFactors:
    @pytest.mark.parametrize("kind,kwargs", [
        ("ilu0", {}), ("iluk", {"k": 2}), ("ic0", {}), ("jacobi", {}),
    ])
    def test_cached_apply_equals_fresh(self, spd_random, rng, kind, kwargs):
        from repro.core import make_preconditioner

        r = rng.standard_normal(spd_random.n_rows)
        cached1 = make_preconditioner(spd_random, kind, **kwargs)
        cached2 = make_preconditioner(spd_random, kind, **kwargs)
        fresh = make_preconditioner(spd_random, kind, cache=False, **kwargs)
        assert cached1 is cached2 and fresh is not cached1
        np.testing.assert_allclose(cached2.apply(r), fresh.apply(r),
                                   rtol=1e-12, atol=1e-12)
