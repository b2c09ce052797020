"""Tests for the CSR container against dense/SciPy oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ShapeError, SparseFormatError
from repro.sparse import COOMatrix, CSRMatrix
from repro.util import segment_sum

sp = pytest.importorskip("scipy.sparse")

from conftest import random_csr  # noqa: E402


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
