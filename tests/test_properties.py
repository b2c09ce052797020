"""Property-based tests (hypothesis) on the core invariants.

Strategy helpers build random sparse matrices directly in canonical CSR
form so shrinking stays meaningful.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import kahn_levels
from repro.core import sparsify_magnitude, wavefront_aware_sparsify
from repro.graph import level_schedule
from repro.precond import (ScheduledTriangularSolver, ilu0,
                           solve_lower_sequential)
from repro.sparse import CSRMatrix, add, is_symmetric
from repro.util import gmean, rankdata, segment_sum


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

@st.composite
def dense_matrix(draw, max_n=12, square=True, lower=False,
                 unit_diag=False, spd=False):
    n = draw(st.integers(1, max_n))
    m = n if square else draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    density = draw(st.floats(0.05, 0.6))
    dense = rng.standard_normal((n, m))
    dense[rng.random((n, m)) > density] = 0.0
    if spd:
        dense = np.tril(dense, -1)
        dense = dense + dense.T
        np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    elif lower:
        dense = np.tril(dense, -1)
        np.fill_diagonal(dense, 1.0 if unit_diag else rng.random(n) + 0.5)
    return dense


@st.composite
def triangular_pattern(draw):
    """A lower or upper triangular pattern of order 0-40: random, with
    empty rows, or a dense triangle, or a chain; some rows store no
    diagonal.  Returns ``(tri, kind, shape)``."""
    n = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["lower", "upper"]))
    shape = draw(st.sampled_from(["random", "dense", "chain"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    if shape == "dense":
        mask = np.tril(np.ones((n, n), dtype=bool))
    elif shape == "chain":
        mask = np.eye(n, dtype=bool) | np.eye(n, k=-1, dtype=bool)
    else:
        mask = np.tril(rng.random((n, n)) < draw(st.floats(0.0, 0.6)))
        mask[rng.random(n) < 0.3] = False
    no_diag = np.flatnonzero(rng.random(n) < draw(st.floats(0.0, 1.0)))
    mask[no_diag, no_diag] = False
    dense = mask.astype(np.float64)
    return (CSRMatrix.from_dense(dense if kind == "lower" else dense.T),
            kind, shape)


@st.composite
def tied_symmetric(draw):
    """A symmetric matrix of order 1-14 with a stored diagonal and
    off-diagonal values drawn from ±1, ±2, ±3 (so magnitudes tie), ±inf
    and NaN."""
    n = draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    pool = np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0,
                     np.inf, -np.inf, np.nan])
    weights = np.array([6.0] * 6 + [1.0] * 3)
    vals = rng.choice(pool, size=(n, n), p=weights / weights.sum())
    vals[rng.random((n, n)) > draw(st.floats(0.05, 0.9))] = 0.0
    low = np.tril(vals, -1)
    dense = low + low.T
    np.fill_diagonal(dense, rng.integers(1, 5, size=n))
    return CSRMatrix.from_dense(dense)


def _argsort_drop_mask(a, ratio):
    """The entries ``sparsify_magnitude`` drops, selected by a stable
    argsort of the lower magnitudes and an ``np.isin`` over the codes of
    all entries: the selection the partition-based one must equal."""
    n, nnz = a.n_rows, a.nnz
    rid = np.repeat(np.arange(n, dtype=np.int64), a.row_lengths())
    cols = a.indices
    lower_idx = np.flatnonzero(cols < rid)
    n_pairs = min(int(np.floor(ratio / 100.0 * nnz)) // 2, lower_idx.size)
    order = np.argsort(np.abs(a.data[lower_idx]), kind="stable")
    chosen = lower_idx[order[:n_pairs]]
    keys = np.unique(np.concatenate([rid[chosen] * n + cols[chosen],
                                     cols[chosen] * n + rid[chosen]]))
    return np.isin(rid * n + cols, keys)


@st.composite
def segments(draw):
    total = draw(st.integers(0, 60))
    k = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    bounds = np.sort(rng.integers(0, total + 1, size=k + 1))
    values = rng.standard_normal(total)
    return values, bounds[:-1], bounds[1:]


def _cancelling(rng, shape):
    """Signed magnitudes spread log-uniformly over 1e-12..1e12, so
    neighbouring sums differ by up to 24 orders and cancel."""
    return (rng.choice([-1.0, 1.0], size=shape)
            * 10.0 ** rng.uniform(-12.0, 12.0, size=shape))


@st.composite
def cancelling_segments(draw):
    """Values (1-D or ``(len, B)``) and arbitrary ``(start, end)`` pairs:
    empty, gapped, overlapping and out-of-order segments."""
    total = draw(st.integers(0, 40))
    k = draw(st.integers(1, 12))
    width = draw(st.sampled_from([0, 1, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    starts = rng.integers(0, total + 1, size=k)
    ends = np.minimum(starts + rng.integers(0, 9, size=k), total)
    shape = (total,) if width == 0 else (total, width)
    return _cancelling(rng, shape), starts, ends


@st.composite
def cancelling_csr(draw):
    """A CSR matrix with cancelling entries, about a third of its rows
    empty (like the partitioned solver's coupling block), and a dense
    operand of 0 (a vector) or 1-4 columns."""
    n_rows, n_cols = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    width = draw(st.sampled_from([0, 1, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    lens = rng.integers(1, min(n_cols, 12) + 1, size=n_rows)
    lens[rng.random(n_rows) < 0.35] = 0
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    indices = np.concatenate(
        [np.sort(rng.choice(n_cols, size=k, replace=False)) for k in lens]
        + [np.empty(0, dtype=np.int64)]).astype(np.int64)
    a = CSRMatrix(indptr, indices, _cancelling(rng, int(indptr[-1])),
                  (n_rows, n_cols))
    shape = (n_cols,) if width == 0 else (n_cols, width)
    return a, _cancelling(rng, shape)


@st.composite
def triangular_system(draw):
    """A lower or upper, unit or non-unit triangular factor in float32 or
    float64, with off-diagonal entries and right-hand sides (a vector or
    three columns) of random sign and magnitude 1e-6..1e6.  A non-unit
    pivot is at least its row's off-diagonal mass (with magnitude at
    least 1e-6), and a unit row's off-diagonal mass is scaled to at most
    1, so no solution overflows.  Returns ``(tri, kind, unit, b)``."""
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["lower", "upper"]))
    unit = draw(st.booleans())
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = draw(st.sampled_from([0, 3]))
    density = draw(st.floats(0.1, 0.9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))

    def spread(shape):
        return (rng.choice([-1.0, 1.0], size=shape)
                * 10.0 ** rng.uniform(-6.0, 6.0, size=shape))

    dense = np.tril(spread((n, n)) * (rng.random((n, n)) < density), -1)
    mass = np.abs(dense).sum(axis=1)
    if unit:
        dense /= np.maximum(mass, 1.0)[:, None]
    else:
        pivots = np.maximum(mass * (1.0 + rng.random(n)),
                            np.abs(spread(n)))
        np.fill_diagonal(dense, rng.choice([-1.0, 1.0], size=n) * pivots)
    if kind == "upper":
        dense = dense[::-1, ::-1].copy()
    b = spread((n,) if width == 0 else (n, width)).astype(dtype)
    return CSRMatrix.from_dense(dense.astype(dtype)), kind, unit, b


def assert_rows_within_bound(tri, unit, b, x):
    """Every row's residual ``|b_i - (T x)_i|``, computed exactly with
    :class:`~fractions.Fraction`, is at most
    ``(len_i + 1) · eps · (|b_i| + Σ_j |t_ij · x_j|)``, where ``len_i``
    counts the row's terms (its diagonal, implicit or stored, and its
    off-diagonal entries) and eps is that of the factor dtype."""
    eps = Fraction(float(np.finfo(tri.dtype).eps))
    bs = b[:, None] if b.ndim == 1 else b
    xs = x[:, None] if x.ndim == 1 else x
    for i in range(tri.n_rows):
        lo, hi = tri.indptr[i], tri.indptr[i + 1]
        terms = [(int(j), Fraction(float(v)))
                 for j, v in zip(tri.indices[lo:hi], tri.data[lo:hi])
                 if not (unit and j == i)]
        if unit:
            terms.append((i, Fraction(1)))
        for c in range(bs.shape[1]):
            bi = Fraction(float(bs[i, c]))
            prods = [t * Fraction(float(xs[j, c])) for j, t in terms]
            resid = abs(bi - sum(prods))
            bound = ((len(terms) + 1) * eps
                     * (abs(bi) + sum(abs(p) for p in prods)))
            assert resid <= bound, (i, c, float(resid), float(bound))


def assert_row_sums_near_fsum(sums, values, starts, ends):
    """Each segment's float64 sum is within ``len · eps · Σ|v|`` of the
    correctly rounded ``math.fsum`` — a bound that holds for any
    summation order within the segment, and only depends on it."""
    eps = np.finfo(np.float64).eps
    cols = values[:, None] if values.ndim == 1 else values
    sums = sums[:, None] if sums.ndim == 1 else sums
    for i, (s, e) in enumerate(zip(starts, ends)):
        for j in range(cols.shape[1]):
            seg = cols[s:e, j].tolist()
            bound = (e - s) * eps * math.fsum(abs(v) for v in seg)
            assert abs(sums[i, j] - math.fsum(seg)) <= bound, (i, j)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------

class TestSegmentSumProperties:
    @given(segments())
    @settings(max_examples=60, deadline=None)
    def test_matches_python_sum(self, data):
        values, starts, ends = data
        out = segment_sum(values, starts, ends)
        expect = np.array([values[s:e].sum() for s, e in zip(starts, ends)])
        np.testing.assert_allclose(out, expect, atol=1e-10)

    @given(segments())
    @settings(max_examples=30, deadline=None)
    def test_total_preserved_for_partition(self, data):
        values, _, _ = data
        if values.size == 0:
            return
        mid = values.size // 2
        out = segment_sum(values, np.array([0, mid]),
                          np.array([mid, values.size]))
        assert out.sum() == pytest.approx(values.sum(), abs=1e-9)


class TestRowSumAccuracy:
    """Each row sum depends only on that row's entries; a difference of
    one global prefix sum would let every earlier row add rounding."""

    @given(cancelling_segments())
    @settings(max_examples=150, deadline=None)
    def test_segment_sum_near_fsum(self, data):
        values, starts, ends = data
        assert_row_sums_near_fsum(segment_sum(values, starts, ends),
                                  values, starts, ends)

    @given(cancelling_csr())
    @settings(max_examples=150, deadline=None)
    def test_spmv_rows_near_fsum(self, data):
        a, x = data
        y = a.matvec(x) if x.ndim == 1 else a.matmat(x)
        # The kernel sums the rounded products; compare against those.
        prods = (a.data * x[a.indices] if x.ndim == 1
                 else a.data[:, None] * x[a.indices])
        assert_row_sums_near_fsum(y, prods, a.indptr[:-1], a.indptr[1:])
        if x.ndim == 2:
            for j in range(x.shape[1]):
                np.testing.assert_array_equal(y[:, j], a.matvec(x[:, j]))


class TestTriangularRowAccuracy:
    """The wavefront sweep is right for every row, not only on average:
    each row meets a backward-error bound that holds whatever level the
    row sits in and however large the rows solved before it."""

    @given(triangular_system())
    @settings(max_examples=300, deadline=None)
    def test_every_row_within_bound(self, system):
        tri, kind, unit, b = system
        # Pivots span more decades than float32's relative pivot
        # threshold admits; the bound needs no threshold.
        solver = ScheduledTriangularSolver(tri, kind=kind,
                                           unit_diagonal=unit,
                                           pivot_rtol=0.0)
        x = solver.solve(b)
        assert x.dtype == tri.dtype and np.isfinite(x).all()
        assert_rows_within_bound(tri, unit, b, x)


class TestCSRProperties:
    @given(dense_matrix(square=False))
    @settings(max_examples=50, deadline=None)
    def test_dense_roundtrip(self, dense):
        a = CSRMatrix.from_dense(dense)
        a.check_format()
        np.testing.assert_allclose(a.to_dense(), dense)

    @given(dense_matrix(square=False))
    @settings(max_examples=50, deadline=None)
    def test_transpose_involution_and_oracle(self, dense):
        a = CSRMatrix.from_dense(dense)
        t = a.transpose()
        t.check_format()
        np.testing.assert_allclose(t.to_dense(), dense.T)
        np.testing.assert_allclose(t.transpose().to_dense(), dense)

    @given(dense_matrix(square=False), st.integers(0, 2 ** 31))
    @settings(max_examples=50, deadline=None)
    def test_matvec_linear(self, dense, seed):
        a = CSRMatrix.from_dense(dense)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(a.n_cols)
        y = rng.standard_normal(a.n_cols)
        lhs = a.matvec(2.0 * x - 3.0 * y)
        rhs = 2.0 * a.matvec(x) - 3.0 * a.matvec(y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestLevelScheduleProperties:
    @given(dense_matrix(lower=True))
    @settings(max_examples=50, deadline=None)
    def test_frontier_equals_reference(self, dense):
        low = CSRMatrix.from_dense(dense)
        np.testing.assert_array_equal(level_schedule(low).level_of,
                                      kahn_levels(low))

    @given(dense_matrix(lower=True))
    @settings(max_examples=50, deadline=None)
    def test_schedule_valid_and_complete(self, dense):
        low = CSRMatrix.from_dense(dense)
        sched = level_schedule(low)
        sched.validate_against(low)
        assert np.array_equal(np.sort(sched.rows),
                              np.arange(low.n_rows))

    @given(triangular_pattern())
    @settings(max_examples=150, deadline=None)
    def test_level_of_matches_kahn_both_kinds(self, case):
        tri, kind, shape = case
        n = tri.n_rows
        sched = level_schedule(tri, kind=kind)
        expect = kahn_levels(tri, kind=kind)
        np.testing.assert_array_equal(sched.level_of, expect)
        if shape != "random":
            # Dense triangles and chains are fully sequential.
            chain = np.arange(n)
            np.testing.assert_array_equal(
                expect, chain if kind == "lower" else chain[::-1])
        np.testing.assert_array_equal(sched.rows,
                                      np.lexsort((np.arange(n), expect)))
        np.testing.assert_array_equal(
            sched.level_ptr, np.concatenate(([0], np.cumsum(
                np.bincount(expect)))))

    @given(dense_matrix(lower=True))
    @settings(max_examples=30, deadline=None)
    def test_levels_bounded_by_critical_path(self, dense):
        from repro.graph import dependence_dag

        low = CSRMatrix.from_dense(dense)
        sched = level_schedule(low)
        assert sched.n_levels == dependence_dag(low).critical_path_length()


class TestTriangularSolveProperties:
    @given(dense_matrix(lower=True), st.integers(0, 2 ** 31))
    @settings(max_examples=50, deadline=None)
    def test_scheduled_equals_sequential(self, dense, seed):
        low = CSRMatrix.from_dense(dense)
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(low.n_rows)
        x1 = ScheduledTriangularSolver(low, kind="lower").solve(b)
        x2 = solve_lower_sequential(low, b)
        np.testing.assert_allclose(x1, x2, rtol=1e-7, atol=1e-7)

    @given(dense_matrix(lower=True), st.integers(0, 2 ** 31))
    @settings(max_examples=50, deadline=None)
    def test_solution_satisfies_system(self, dense, seed):
        low = CSRMatrix.from_dense(dense)
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(low.n_rows)
        x = ScheduledTriangularSolver(low, kind="lower").solve(b)
        np.testing.assert_allclose(low.matvec(x), b, rtol=1e-6, atol=1e-6)


class TestSparsifyProperties:
    @given(dense_matrix(spd=True), st.floats(0.0, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_decomposition_and_symmetry(self, dense, ratio):
        a = CSRMatrix.from_dense(dense)
        res = sparsify_magnitude(a, ratio)
        np.testing.assert_allclose(add(res.a_hat, res.s).to_dense(),
                                   dense, atol=1e-12)
        assert is_symmetric(res.a_hat, tol=1e-12)
        assert is_symmetric(res.s, tol=1e-12)
        np.testing.assert_allclose(res.a_hat.diagonal(), a.diagonal())
        assert res.dropped_nnz <= int(ratio / 100 * a.nnz)

    @given(tied_symmetric(),
           st.one_of(st.sampled_from([0.0, 100.0, "every lower entry"]),
                     st.floats(0.0, 100.0)))
    @settings(max_examples=200, deadline=None)
    def test_matches_stable_argsort_selection(self, a, ratio):
        rid = np.repeat(np.arange(a.n_rows), a.row_lengths())
        n_lower = int(np.count_nonzero(a.indices < rid))
        if ratio == "every lower entry":
            ratio = 100.0 * (2 * n_lower + 0.5) / a.nnz
            assert int(np.floor(ratio / 100.0 * a.nnz)) // 2 == n_lower
        res = sparsify_magnitude(a, ratio)
        drop = _argsort_drop_mask(a, ratio)
        for part, mask in ((res.s, drop), (res.a_hat, ~drop)):
            np.testing.assert_array_equal(
                part.indptr, np.concatenate(([0], np.cumsum(
                    np.bincount(rid[mask], minlength=a.n_rows)))))
            np.testing.assert_array_equal(part.indices, a.indices[mask])
            np.testing.assert_array_equal(part.data, a.data[mask])
        assert res.dropped_nnz == int(drop.sum())
        assert res.original_nnz == a.nnz
        assert res.ratio_percent == ratio

    @given(dense_matrix(spd=True))
    @settings(max_examples=20, deadline=None)
    def test_algorithm2_never_crashes_and_decomposes(self, dense):
        a = CSRMatrix.from_dense(dense)
        d = wavefront_aware_sparsify(a)
        np.testing.assert_allclose(
            add(d.result.a_hat, d.result.s).to_dense(), dense, atol=1e-12)
        assert d.chosen_ratio in (10.0, 5.0, 1.0)


class TestILUProperties:
    @given(dense_matrix(spd=True))
    @settings(max_examples=30, deadline=None)
    def test_ilu0_matches_a_on_pattern(self, dense):
        a = CSRMatrix.from_dense(dense)
        f = ilu0(a, raise_on_zero_pivot=False)
        prod = f.multiply()
        mask = dense != 0
        # Defining property of ILU(0): (LU)_ij = A_ij on the pattern.
        np.testing.assert_allclose(prod[mask], dense[mask], rtol=1e-6,
                                   atol=1e-8)


class TestStatProperties:
    @given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_gmean_bounds(self, xs):
        g = gmean(xs)
        assert min(xs) * (1 - 1e-9) <= g <= max(xs) * (1 + 1e-9)

    @given(st.lists(st.floats(0.01, 100.0), min_size=2, max_size=40),
           st.floats(0.5, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_gmean_scale_equivariant(self, xs, c):
        assert gmean([c * x for x in xs]) == pytest.approx(c * gmean(xs),
                                                           rel=1e-9)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_rankdata_sums(self, xs):
        r = rankdata(np.array(xs))
        n = len(xs)
        assert r.sum() == pytest.approx(n * (n + 1) / 2)
