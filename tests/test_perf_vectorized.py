"""Equivalence tests: vectorized kernels vs the scalar oracles.

The wavefront-batched numeric factorization of
``repro.perf.vectorized`` claims bitwise equality with the scalar IKJ
sweep; the level-contiguous triangular executor claims tight agreement
with the sequential substitutions, column-by-column bitwise equality
between block and single right-hand sides, and independence from how
tight the level schedule is.  These tests pin those claims,
property-based over the generators of ``test_properties``, through the
public API only.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SingularFactorError, SparseFormatError
from repro.graph import LevelSchedule, level_schedule
from repro.perf import (ArtifactCache, build_factor_plan, get_cache,
                        ilu_numeric_vectorized)
from repro.precond import (ScheduledTriangularSolver, ilu0,
                           solve_lower_sequential, solve_upper_sequential)
from repro.precond.ilu0 import ilu_numeric_inplace
from repro.precond.iluk import iluk, iluk_symbolic
from repro.precond.ilut import ilut
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


@st.composite
def factor_pattern(draw, max_n=24):
    """A strictly diagonally dominant matrix on a random SPD pattern,
    with two kinds of rows the compiled elimination must handle: rows
    with no lower entry, and pivot rows whose upper part is empty while
    later rows still eliminate through them.  float32 or float64."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    off = rng.standard_normal((n, n))
    off[rng.random((n, n)) > draw(st.floats(0.05, 0.6))] = 0.0
    off = np.tril(off, -1)
    off = off + off.T
    below = np.tri(n, k=-1, dtype=bool)
    bare = rng.random(n) < draw(st.floats(0.0, 0.4))
    off[bare[:, None] & below] = 0.0
    flat = rng.random(n) < draw(st.floats(0.0, 0.4))
    off[flat[:, None] & below.T] = 0.0
    np.fill_diagonal(off, np.abs(off).sum(axis=1) + 1.0)
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    return CSRMatrix.from_dense(off.astype(dtype))


def _with_zero_pivot(a, draw_index):
    """Copy of *a* whose row ``r`` pivot is exactly zero after
    elimination, and ``r``: a row whose diagonal receives at most one
    update gets the stored diagonal that update cancels exactly (0.0
    when there is none).  Rows before ``r`` and rows not depending on
    it keep their (nonzero) pivots."""
    fs, _ = ilu_numeric_inplace(a)
    rows = []
    for i in range(a.n_rows):
        cols = a.indices[a.indptr[i]:a.indptr[i + 1]]
        through = [k for k in cols[cols < i]
                   if i in a.indices[a.indptr[k]:a.indptr[k + 1]]]
        if len(through) <= 1:
            rows.append((i, through))
    r, through = rows[draw_index(len(rows))]
    lo = a.indptr[r]
    diag = lo + int(np.searchsorted(a.indices[lo:a.indptr[r + 1]], r))
    value = 0.0
    if through:
        k = through[0]
        p_rk = lo + int(np.searchsorted(a.indices[lo:a.indptr[r + 1]], k))
        klo = a.indptr[k]
        p_kr = klo + int(np.searchsorted(a.indices[klo:a.indptr[k + 1]], r))
        # What the sweep subtracts from the diagonal: a_rk * U[k, r].
        value = fs[p_rk] * fs[p_kr]
    data = a.data.astype(np.float64)
    data[diag] = value
    return CSRMatrix(a.indptr, a.indices, data, a.shape, check=False), r


def _assert_replay_bitwise(pattern, **kw):
    fs, fls = ilu_numeric_inplace(pattern, **kw)
    fv, flv = ilu_numeric_vectorized(pattern, **kw)
    assert fv.dtype == fs.dtype == np.float64
    np.testing.assert_array_equal(fv.view(np.uint64), fs.view(np.uint64))
    assert flv == fls


class TestCompiledElimination:
    """The replay of a compiled plan against the scalar IKJ oracle:
    factors compared bit for bit (signed zeros included), flop counts
    exactly."""

    @given(factor_pattern())
    @settings(max_examples=80, deadline=None)
    def test_ilu0_replay_bitwise(self, a):
        _assert_replay_bitwise(a)

    @given(factor_pattern(max_n=18), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_iluk_replay_bitwise(self, a, k):
        pattern = iluk_symbolic(a, k).pattern
        _assert_replay_bitwise(pattern)
        fv = iluk(a, k)
        fs, fls = ilu_numeric_inplace(pattern)
        fs = fs.astype(a.dtype)
        # The factors split the pattern's entries, in stored order.
        rid = np.repeat(np.arange(pattern.n_rows), pattern.row_lengths())
        below = pattern.indices < rid
        np.testing.assert_array_equal(fv.lower.data, fs[below])
        np.testing.assert_array_equal(fv.upper.data, fs[~below])
        assert fv.factor_flops == fls
        assert fv.lower.dtype == a.dtype

    @given(factor_pattern(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_zero_pivot_same_row_and_boost(self, a, data):
        z, r = _with_zero_pivot(
            a, lambda m: data.draw(st.integers(0, m - 1)))
        with pytest.raises(SingularFactorError) as scalar:
            ilu_numeric_inplace(z)
        with pytest.raises(SingularFactorError) as replay:
            ilu_numeric_vectorized(z)
        assert scalar.value.row == replay.value.row == r
        for boost in (1e-8, 1e-3):
            _assert_replay_bitwise(z, raise_on_zero_pivot=False,
                                   pivot_boost=boost)

    @given(factor_pattern())
    @settings(max_examples=40, deadline=None)
    def test_explicit_plan_agrees_with_cached(self, a):
        cached = build_factor_plan(a)
        fresh = build_factor_plan(a, cache=ArtifactCache())
        assert fresh is not cached and fresh.flops == cached.flops
        assert len(fresh.levels) == len(cached.levels)
        for (d1, s1), (d2, s2) in zip(fresh.levels, cached.levels):
            np.testing.assert_array_equal(d1, d2)
            assert len(s1) == len(s2)
            for x, y in zip(s1, s2):
                for u, v in zip(x, y):
                    assert (u is None) == (v is None)
                    if u is not None:
                        np.testing.assert_array_equal(u, v)
        f1, fl1 = ilu_numeric_vectorized(a, plan=fresh)
        f2, fl2 = ilu_numeric_vectorized(a, plan=cached)
        np.testing.assert_array_equal(f1.view(np.uint64),
                                      f2.view(np.uint64))
        assert fl1 == fl2

    def test_factorizations_leave_plan_unchanged(self, spd_random):
        """The plan's arrays are private and writeable (NumPy's ``take``
        and ``repeat`` copy read-only index arrays on every call), and
        no factorization writes into them, the zero-pivot boost
        included."""
        plan = build_factor_plan(spd_random, cache=ArtifactCache())

        def arrays():
            out = []
            for diagonals, steps in plan.levels:
                out.append(diagonals)
                out += [arr for step in steps for arr in step
                        if arr is not None]
            return out

        before = [arr.copy() for arr in arrays()]
        ilu_numeric_vectorized(spd_random, plan=plan)
        data = spd_random.data.copy()
        data[spd_random.indptr[0]] = 0.0  # row 0's diagonal
        zero = CSRMatrix(spd_random.indptr, spd_random.indices, data,
                         spd_random.shape)
        with pytest.raises(SingularFactorError):
            ilu_numeric_vectorized(zero, plan=plan)
        ilu_numeric_vectorized(zero, plan=plan, raise_on_zero_pivot=False)
        after = arrays()
        assert len(after) == len(before)
        for old, new in zip(before, after):
            assert old.tobytes() == new.tobytes()


def _assert_same_schedule(got, want):
    for name in ("level_of", "rows", "level_ptr"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


class TestScheduleReuse:
    """ILU(0)/ILU(K) factors take the plan's lower schedule instead of
    scheduling their strictly-lower factor again."""

    @given(factor_pattern())
    @settings(max_examples=40, deadline=None)
    def test_ilu0_lower_schedule_is_the_factors(self, a):
        f = ilu0(a)
        assert f.lower_schedule is build_factor_plan(a).schedule
        _assert_same_schedule(f.lower_schedule, level_schedule(f.lower))

    @given(factor_pattern(max_n=18), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_iluk_lower_schedule_is_the_factors(self, a, k):
        f = iluk(a, k)
        _assert_same_schedule(f.lower_schedule, level_schedule(f.lower))

    def test_scalar_factors_schedule_their_lower_factor(self, spd_random):
        f = ilut(spd_random)
        assert f.plan_schedule is None
        _assert_same_schedule(f.lower_schedule, level_schedule(f.lower))

    def test_fresh_spcg_builds_three_schedules(self):
        from repro import spcg
        from repro.datasets import load

        a = load("thermal_900_s100")
        spcg(a, a.matvec(np.ones(a.n_rows)))
        stats = get_cache().stats
        # lower(A) and lower(Â) in Algorithm 2, then upper(U); the
        # forward sweep reuses lower(Â)'s.
        assert stats.misses_by_kind["level_schedule"] == 3

    def test_bare_ilu0_builds_two_schedules(self, spd_random):
        f = ilu0(spd_random)
        assert f.total_levels > 0
        assert get_cache().stats.misses_by_kind["level_schedule"] == 2


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
