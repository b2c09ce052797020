"""Tests for the CSR container against dense/SciPy oracles."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.sparse.csr as csr_module
from repro.errors import ShapeError, SparseFormatError
from repro.sparse import COOMatrix, CSRMatrix, stencil_poisson_2d
from repro.util import segment_sum

sp = pytest.importorskip("scipy.sparse")

from conftest import random_csr, run_interleaved  # noqa: E402


class TestConstructionValidation:
    def test_from_dense_roundtrip(self, rng):
        dense = rng.random((7, 5))
        dense[dense > 0.4] = 0.0
        a = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(a.to_dense(), dense)

    def test_figure1_layout(self, fig1_lower):
        # Figure 1b of the paper: rowptr/col/val of the CSR example.
        np.testing.assert_array_equal(fig1_lower.indptr, [0, 1, 2, 4, 7])
        np.testing.assert_array_equal(fig1_lower.indices,
                                      [0, 1, 0, 2, 0, 2, 3])
        np.testing.assert_allclose(fig1_lower.data,
                                   [2.0, 3.0, 1.0, 4.0, 5.0, 6.0, 7.0])

    def test_nnz_shape_density(self, fig1_lower):
        assert fig1_lower.nnz == 7
        assert fig1_lower.shape == (4, 4)
        assert fig1_lower.density == pytest.approx(7 / 16)

    def test_bad_indptr_length(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix(np.array([0, 1]), np.array([0]), np.array([1.0]),
                      (3, 3))

    def test_nonmonotone_indptr(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix(np.array([0, 2, 1]), np.array([0, 1]),
                      np.array([1.0, 2.0]), (2, 2))

    def test_column_out_of_bounds(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix(np.array([0, 1]), np.array([5]), np.array([1.0]),
                      (1, 2))

    def test_unsorted_columns_rejected(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix(np.array([0, 2]), np.array([1, 0]),
                      np.array([1.0, 2.0]), (1, 2))

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix(np.array([0, 2]), np.array([1, 1]),
                      np.array([1.0, 2.0]), (1, 2))

    def test_negative_shape(self):
        with pytest.raises(ShapeError):
            CSRMatrix(np.array([0]), np.array([]), np.array([]), (-1, 2))

    def test_empty_matrix(self):
        a = CSRMatrix(np.zeros(4, dtype=np.int64), np.array([], dtype=int),
                      np.array([]), (3, 3))
        assert a.nnz == 0
        np.testing.assert_allclose(a.to_dense(), np.zeros((3, 3)))


class TestMatvec:
    def test_matches_dense(self, rng):
        a = random_csr(rng, 40, 30)
        x = rng.standard_normal(30)
        np.testing.assert_allclose(a.matvec(x), a.to_dense() @ x,
                                   atol=1e-12)

    def test_matches_scipy(self, rng):
        a = random_csr(rng, 25, 25)
        s = sp.csr_matrix(a.to_dense())
        x = rng.standard_normal(25)
        np.testing.assert_allclose(a.matvec(x), s @ x, atol=1e-12)

    def test_matmul_operator(self, rng):
        a = random_csr(rng, 10, 10)
        x = rng.standard_normal(10)
        np.testing.assert_allclose(a @ x, a.matvec(x))

    def test_wrong_shape_raises(self, fig1_lower):
        with pytest.raises(ShapeError):
            fig1_lower.matvec(np.ones(5))

    def test_out_parameter(self, rng):
        a = random_csr(rng, 8, 8)
        x = rng.standard_normal(8)
        out = np.empty(8)
        res = a.matvec(x, out=out)
        assert res is out

    def test_float32(self, rng):
        a = random_csr(rng, 12, 12).astype(np.float32)
        x = rng.standard_normal(12).astype(np.float32)
        y = a.matvec(x)
        assert y.dtype == np.float32
        np.testing.assert_allclose(y, a.to_dense() @ x, rtol=1e-5)


@st.composite
def spmv_case(draw):
    """A CSR matrix with empty rows where asked (leading, interior,
    trailing), one row long enough for ``reduceat``'s unrolled and
    pairwise paths, values spread over 24 orders of magnitude so any
    change of summation order or accumulator precision shows, and its
    value and ``x`` dtypes drawn independently."""
    n_rows = draw(st.integers(1, 30))
    n_cols = draw(st.integers(1, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    dense = (rng.choice([-1.0, 1.0], size=(n_rows, n_cols))
             * 10.0 ** rng.uniform(-12.0, 12.0, size=(n_rows, n_cols)))
    dense[rng.random((n_rows, n_cols)) > draw(st.floats(0.05, 0.5))] = 0.0
    dense[int(rng.integers(n_rows))] = rng.standard_normal(n_cols)
    empty = draw(st.sets(st.sampled_from(["leading", "interior",
                                          "trailing"])))
    if "leading" in empty:
        dense[0] = 0.0
    if "interior" in empty and n_rows > 2:
        dense[int(rng.integers(1, n_rows - 1))] = 0.0
    if "trailing" in empty:
        dense[-1] = 0.0
    a = CSRMatrix.from_dense(
        dense.astype(draw(st.sampled_from([np.float32, np.float64]))))
    x_dtype = draw(st.sampled_from([np.float32, np.float64]))
    return a, x_dtype, rng


def _reference_spmv(a, x):
    """The kernel's specification: gather, multiply, checked
    ``segment_sum``, cast to the product's result type."""
    prod = (a.data if x.ndim == 1 else a.data[:, None]) * x[a.indices]
    return segment_sum(prod, a.indptr[:-1], a.indptr[1:]).astype(
        np.result_type(a.data.dtype, x.dtype), copy=False)


def _assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert (np.ascontiguousarray(got).tobytes()
            == np.ascontiguousarray(want).tobytes())


class TestLeanSpMV:
    """``matvec``/``matmat`` against the reference SpMV, bit for bit."""

    @given(spmv_case())
    @settings(max_examples=80, deadline=None)
    def test_matvec_bitwise(self, case):
        a, x_dtype, rng = case
        x = rng.standard_normal(a.n_cols).astype(x_dtype)
        want = _reference_spmv(a, x)
        _assert_bitwise(a.matvec(x), want)
        # A strided column of a wider block.
        wide = rng.standard_normal((a.n_cols, 3)).astype(x_dtype)
        _assert_bitwise(a.matvec(wide[:, 1]),
                        _reference_spmv(a, wide[:, 1].copy()))
        for out_dtype in (np.float32, np.float64):
            out = np.full(a.n_rows, np.nan, dtype=out_dtype)
            assert a.matvec(x, out=out) is out
            _assert_bitwise(out, want.astype(out_dtype))

    @given(spmv_case(), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_matmat_bitwise(self, case, width):
        a, x_dtype, rng = case
        block = rng.standard_normal((a.n_cols, width)).astype(x_dtype)
        want = _reference_spmv(a, block)
        _assert_bitwise(a.matmat(block), want)
        _assert_bitwise(a.matmat(np.asfortranarray(block)), want)
        wide = rng.standard_normal((a.n_cols, 2 * width)).astype(x_dtype)
        _assert_bitwise(a.matmat(wide[:, ::2]),
                        _reference_spmv(a, wide[:, ::2].copy()))
        y = a.matmat(block)
        for j in range(width):
            _assert_bitwise(y[:, j], a.matvec(block[:, j]))
        for out_dtype in (np.float32, np.float64):
            out = np.full((a.n_rows, width), np.nan, dtype=out_dtype)
            assert a.matmat(block, out=out) is out
            _assert_bitwise(out, want.astype(out_dtype))

    def test_all_rows_empty_and_no_rows(self):
        a = CSRMatrix(np.zeros(4, dtype=np.int64), np.array([], dtype=int),
                      np.array([]), (3, 5))
        _assert_bitwise(a.matvec(np.ones(5)), np.zeros(3))
        _assert_bitwise(a.matmat(np.ones((5, 2))), np.zeros((3, 2)))
        b = CSRMatrix(np.zeros(1, dtype=np.int64), np.array([], dtype=int),
                      np.array([]), (0, 4))
        _assert_bitwise(b.matvec(np.ones(4)), np.zeros(0))
        # The slot sums, forced on: two products build and use a plan.
        with mock.patch.object(csr_module, "_MIN_ROWS_PER_CALL", 0):
            for m, want in ((a, np.zeros((3, 8))), (b, np.zeros((0, 8)))):
                for _ in range(3):
                    _assert_bitwise(m.matmat(np.ones((m.n_cols, 8))), want)
                assert m._block_plan is not None


def _signed(rng, shape, dtype):
    """Magnitudes 1e-8 to 1e8 of both signs, a tenth of them signed
    zeros."""
    v = (rng.choice([-1.0, 1.0], size=shape)
         * 10.0 ** rng.uniform(-8.0, 8.0, size=shape))
    zero = rng.random(shape) < 0.1
    v[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
    return v.astype(dtype)


@st.composite
def slot_case(draw):
    """A CSR matrix whose rows store 0 to 140 entries: empty rows, rows
    of every branch of NumPy's pairwise summation (fewer than 8 addends
    after the first, 8 to 128 in blocks of eight plus a tail, and more,
    which ``reduceat`` itself sums), values and a block of 2 to 8
    columns in float32 or float64, in C, Fortran or strided layout, and
    maybe one ``inf`` or ``nan`` in the block."""
    lengths = draw(st.lists(st.one_of(st.integers(0, 8), st.integers(9, 129),
                                      st.integers(130, 140)),
                            min_size=1, max_size=16))
    n_cols = draw(st.integers(max(max(lengths), 1), 180))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    indices = [np.sort(rng.choice(n_cols, size=k, replace=False))
               for k in lengths]
    a = CSRMatrix(np.concatenate(([0], np.cumsum(lengths))),
                  np.concatenate(indices).astype(np.int64),
                  _signed(rng, sum(lengths),
                          draw(st.sampled_from([np.float32, np.float64]))),
                  (len(lengths), n_cols))
    width = draw(st.integers(2, 8))
    wide = _signed(rng, (n_cols, 2 * width),
                   draw(st.sampled_from([np.float32, np.float64])))
    x = {"C": np.ascontiguousarray(wide[:, :width]),
         "F": np.asfortranarray(wide[:, :width]),
         "strided": wide[:, ::2]}[draw(st.sampled_from(["C", "F",
                                                         "strided"]))]
    poison = draw(st.sampled_from([None, np.inf, -np.inf, np.nan]))
    if poison is not None:
        x[rng.integers(n_cols), rng.integers(width)] = poison
    return a, x


def _assert_same_sums(got, want):
    """Equal values and dtype, NaN where NaN, and the same sign bit
    wherever the value is a number (signed zeros included)."""
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    num = ~np.isnan(want)
    np.testing.assert_array_equal(np.signbit(got[num]), np.signbit(want[num]))


class TestSlotSums:
    """The block route of ``matmat``: the slot sums over a cached plan
    add each row's products in ``reduceat``'s order, so every column is
    bitwise ``matvec`` on that column."""

    @given(slot_case())
    @settings(max_examples=150, deadline=None)
    def test_columns_equal_matvec(self, case):
        a, x = case
        # Every drawn width and pattern takes the slot route.
        with np.errstate(all="ignore"), \
                mock.patch.object(csr_module, "_SLOT_MIN_WIDTH", 2), \
                mock.patch.object(csr_module, "_MIN_ROWS_PER_CALL", 0):
            first, second = a.matmat(x), a.matmat(x)
            assert isinstance(a._block_plan, csr_module._SlotPlan)
            cols = [a.matvec(x[:, j]) for j in range(x.shape[1])]
        for y in (first, second):
            for j, want in enumerate(cols):
                _assert_same_sums(y[:, j], want)
        # An inf or nan reaches exactly the rows that store its column.
        bad_x = ~np.isfinite(x)
        rows = np.repeat(np.arange(a.n_rows), a.row_lengths())
        for j in range(x.shape[1]):
            stores = np.zeros(a.n_rows, dtype=bool)
            stores[rows[np.isin(a.indices, np.flatnonzero(bad_x[:, j]))]] = True
            np.testing.assert_array_equal(~np.isfinite(second[:, j]), stores)

    def test_one_block_product_keeps_no_plan(self, rng):
        a = stencil_poisson_2d(40)
        width = csr_module._SLOT_MIN_WIDTH
        a.matvec(rng.standard_normal(a.n_cols))
        a.matmat(rng.standard_normal((a.n_cols, width - 1)))
        a.matmat(rng.standard_normal((a.n_cols, width)))
        assert a._block_plan is None
        a.matmat(rng.standard_normal((a.n_cols, width)))
        assert isinstance(a._block_plan, csr_module._SlotPlan)

    def test_pattern_with_few_rows_per_call_keeps_reduceat(self, rng):
        a = random_csr(rng, 60, 60, density=0.3)
        block = rng.standard_normal((60, csr_module._SLOT_MIN_WIDTH))
        y = a.matmat(block)
        _assert_bitwise(a.matmat(block), y)
        assert a._block_plan is None and a._block_products == 2

    def test_shared_matrix_across_threads(self, rng):
        a = stencil_poisson_2d(40)
        block = rng.standard_normal((a.n_cols, csr_module._SLOT_MIN_WIDTH))
        want = CSRMatrix(a.indptr, a.indices, a.data, a.shape).matmat(block)
        got = [[] for _ in range(6)]

        def worker(t):
            for _ in range(5):
                got[t].append(a.matmat(block))

        run_interleaved(worker, 6)
        assert isinstance(a._block_plan, csr_module._SlotPlan)
        for y in (y for ys in got for y in ys):
            _assert_bitwise(y, want)

    def test_plan_follows_data_written_in_place(self, rng):
        a = stencil_poisson_2d(40)
        block = np.asfortranarray(
            rng.standard_normal((a.n_cols, csr_module._SLOT_MIN_WIDTH)))
        a.matmat(block)
        a.matmat(block)
        assert a._block_plan is not None
        a.data[:] = rng.standard_normal(a.nnz)
        fresh = CSRMatrix(a.indptr, a.indices, a.data.copy(), a.shape)
        y = a.matmat(block)
        _assert_bitwise(y, fresh.matmat(block))
        for j in range(block.shape[1]):
            _assert_bitwise(y[:, j], fresh.matvec(block[:, j]))


class TestTransforms:
    def test_transpose_matches_dense(self, rng):
        a = random_csr(rng, 9, 14)
        np.testing.assert_allclose(a.transpose().to_dense(),
                                   a.to_dense().T)

    def test_transpose_is_canonical(self, rng):
        a = random_csr(rng, 20, 20)
        a.transpose().check_format()

    def test_double_transpose_identity(self, rng):
        a = random_csr(rng, 13, 7)
        t = a.transpose().transpose()
        np.testing.assert_array_equal(t.indptr, a.indptr)
        np.testing.assert_array_equal(t.indices, a.indices)
        np.testing.assert_allclose(t.data, a.data)

    def test_tocoo_roundtrip(self, rng):
        a = random_csr(rng, 11, 11)
        back = a.tocoo().tocsr()
        np.testing.assert_allclose(back.to_dense(), a.to_dense())

    def test_tocsc_dense(self, rng):
        a = random_csr(rng, 6, 9)
        np.testing.assert_allclose(a.tocsc().to_dense(), a.to_dense())

    def test_copy_is_deep(self, fig1_lower):
        c = fig1_lower.copy()
        c.data[0] = 99.0
        assert fig1_lower.data[0] == 2.0

    def test_astype(self, fig1_lower):
        f32 = fig1_lower.astype(np.float32)
        assert f32.dtype == np.float32
        np.testing.assert_allclose(f32.to_dense(), fig1_lower.to_dense())


class TestAccessors:
    def test_diagonal(self, rng):
        a = random_csr(rng, 15, 15)
        np.testing.assert_allclose(a.diagonal(), np.diag(a.to_dense()))

    def test_diagonal_rectangular(self, rng):
        a = random_csr(rng, 4, 8)
        np.testing.assert_allclose(a.diagonal(), np.diag(a.to_dense()))

    def test_diagonal_sums_duplicate_coordinates(self):
        # A check=False CSR may carry duplicate coordinates (COO input
        # before compression; matvec sums them).  diagonal() must follow
        # the same summing convention — the fancy-indexing version kept
        # only the last duplicate.
        a = CSRMatrix(np.array([0, 3, 5]), np.array([0, 0, 1, 1, 1]),
                      np.array([2.0, 3.0, 7.0, 4.0, 5.0]), (2, 2),
                      check=False)
        np.testing.assert_allclose(a.diagonal(), [5.0, 9.0])
        # Same convention as the dense rendering and matvec.
        np.testing.assert_allclose(a.diagonal(), np.diag(a.to_dense()))

    def test_get(self, fig1_lower):
        assert fig1_lower.get(3, 2) == 6.0
        assert fig1_lower.get(0, 3) == 0.0

    def test_row_slice(self, fig1_lower):
        cols, vals = fig1_lower.row_slice(3)
        np.testing.assert_array_equal(cols, [0, 2, 3])
        np.testing.assert_allclose(vals, [5.0, 6.0, 7.0])

    def test_row_lengths(self, fig1_lower):
        np.testing.assert_array_equal(fig1_lower.row_lengths(), [1, 1, 2, 3])

    def test_eliminate_zeros(self):
        a = CSRMatrix(np.array([0, 3]), np.array([0, 1, 2]),
                      np.array([1.0, 0.0, 1e-30]), (1, 3))
        b = a.eliminate_zeros()
        assert b.nnz == 2
        c = a.eliminate_zeros(tol=1e-20)
        assert c.nnz == 1


class TestCOOConversion:
    def test_duplicates_summed(self):
        coo = COOMatrix(np.array([0, 0, 1]), np.array([1, 1, 0]),
                        np.array([2.0, 3.0, 4.0]), (2, 2))
        a = coo.tocsr()
        assert a.nnz == 2
        assert a.get(0, 1) == 5.0

    def test_coo_bounds_check(self):
        with pytest.raises(SparseFormatError):
            COOMatrix(np.array([5]), np.array([0]), np.array([1.0]), (2, 2))

    def test_coo_transpose(self, rng):
        a = random_csr(rng, 6, 4).tocoo()
        np.testing.assert_allclose(a.transpose().to_dense(),
                                   a.to_dense().T)

    def test_empty_coo_to_csr(self):
        coo = COOMatrix(np.array([], dtype=int), np.array([], dtype=int),
                        np.array([]), (3, 3))
        assert coo.tocsr().nnz == 0
