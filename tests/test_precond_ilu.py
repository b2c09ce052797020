"""Tests for ILU(0), ILU(K) and IC(0) against dense/SciPy oracles."""

import numpy as np
import pytest

from repro.errors import (NotPositiveDefiniteError, SingularFactorError,
                          SparseFormatError, FillLimitExceeded)
from repro.precond import (IC0Preconditioner, ILU0Preconditioner,
                           ILUKPreconditioner, ic0, ilu0, iluk,
                           iluk_symbolic, solve_lower_sequential,
                           solve_upper_sequential)
from repro.sparse import CSRMatrix, random_spd, stencil_poisson_2d
from repro.solvers import pcg

spla = pytest.importorskip("scipy.sparse.linalg")
sp = pytest.importorskip("scipy.sparse")


class TestILU0:
    def test_exact_on_dense_band_pattern(self, rng):
        # When the pattern admits no fill, ILU(0) equals exact LU.
        dense = np.tril(rng.random((8, 8)) + 0.5) @ \
            np.triu(rng.random((8, 8)) + 0.5)
        a = CSRMatrix.from_dense(dense)
        f = ilu0(a)
        np.testing.assert_allclose(f.multiply(), dense, rtol=1e-8)

    def test_factors_triangular_structure(self, poisson16):
        f = ilu0(poisson16)
        ld = f.lower.to_dense()
        ud = f.upper.to_dense()
        assert np.allclose(ld, np.tril(ld, -1))  # strictly lower
        assert np.allclose(ud, np.triu(ud))      # upper incl. diagonal

    def test_pattern_preserved(self, poisson16):
        f = ilu0(poisson16)
        assert f.nnz == poisson16.nnz  # L strict + U incl diag = pattern

    def test_matches_scipy_spilu_on_grid(self):
        # scipy.spilu with drop_tol=0 and no permutation approximates
        # ILU(0) only when there is no fill; compare preconditioner
        # *action* instead: LU z = r must equal A z ≈ r for exactness on
        # banded tridiagonal.
        a = CSRMatrix.from_dense(
            np.diag(np.full(10, 4.0)) + np.diag(np.full(9, -1.0), 1)
            + np.diag(np.full(9, -1.0), -1))
        f = ilu0(a)
        np.testing.assert_allclose(f.multiply(), a.to_dense(), rtol=1e-10)

    def test_residual_quality_on_poisson(self, poisson16):
        # ILU(0) of a 5-point grid is not exact but close: the product
        # must match A on A's pattern exactly (the defining property).
        f = ilu0(poisson16)
        prod = f.multiply()
        dense = poisson16.to_dense()
        mask = dense != 0
        np.testing.assert_allclose(prod[mask], dense[mask], rtol=1e-8)

    def test_missing_diagonal_rejected(self):
        a = CSRMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        # from_dense drops the zero diagonal entries entirely.
        with pytest.raises(SparseFormatError):
            ilu0(a)

    def test_zero_pivot_raises(self):
        dense = np.array([[1.0, 1.0, 0.0],
                          [1.0, 1.0, 1.0],
                          [0.0, 1.0, 1.0]])
        # Elimination makes the (1,1) pivot exactly zero.
        a = CSRMatrix.from_dense(dense)
        with pytest.raises(SingularFactorError):
            ilu0(a)

    def test_zero_pivot_boost_mode(self):
        dense = np.array([[1.0, 1.0, 0.0],
                          [1.0, 1.0, 1.0],
                          [0.0, 1.0, 1.0]])
        a = CSRMatrix.from_dense(dense)
        f = ilu0(a, raise_on_zero_pivot=False)
        assert np.all(np.isfinite(f.upper.data))

    def test_factor_flops_positive(self, poisson16):
        assert ilu0(poisson16).factor_flops > 0

    def test_preconditioner_apply_equals_two_solves(self, poisson16, rng):
        m = ILU0Preconditioner(poisson16)
        r = rng.standard_normal(poisson16.n_rows)
        z = m.apply(r)
        # L U z must reproduce r.
        lu = m.factors.multiply()
        np.testing.assert_allclose(lu @ z, r, atol=1e-8)

    def test_scheduled_equals_sequential_apply(self, poisson16, rng):
        r = rng.standard_normal(poisson16.n_rows)
        m = ILU0Preconditioner(poisson16)
        y = solve_lower_sequential(m.factors.lower, r, unit_diagonal=True)
        z_seq = solve_upper_sequential(m.factors.upper, y)
        np.testing.assert_allclose(m.apply(r), z_seq, atol=1e-9)

    def test_apply_levels_and_nnz(self, poisson16):
        m = ILU0Preconditioner(poisson16)
        fwd, bwd = m.apply_levels()
        assert fwd == 31 and bwd == 31  # 16+16-1 anti-diagonal levels
        assert m.apply_nnz() == poisson16.nnz + poisson16.n_rows


class TestILUK:
    def test_k0_equals_ilu0(self, poisson16):
        f0 = ilu0(poisson16)
        fk = iluk(poisson16, 0)
        np.testing.assert_allclose(fk.lower.to_dense(),
                                   f0.lower.to_dense(), atol=1e-12)
        np.testing.assert_allclose(fk.upper.to_dense(),
                                   f0.upper.to_dense(), atol=1e-12)

    def test_fill_grows_with_k(self, poisson16):
        nnzs = [iluk_symbolic(poisson16, k).nnz for k in (0, 1, 2, 4)]
        assert nnzs == sorted(nnzs)
        assert nnzs[0] < nnzs[-1]

    def test_large_k_equals_exact_lu(self, rng):
        a = random_spd(30, density=0.15, seed=7)
        f = iluk(a, 30)  # level closure = complete factorization
        np.testing.assert_allclose(f.multiply(), a.to_dense(), rtol=1e-7,
                                   atol=1e-9)

    def test_symbolic_levels_zero_for_original(self, poisson16):
        sym = iluk_symbolic(poisson16, 2)
        # Entries of A's own pattern have fill level 0.
        pat = sym.pattern
        for i in range(0, poisson16.n_rows, 37):
            cols_a, _ = poisson16.row_slice(i)
            cols_p, _ = pat.row_slice(i)
            lo = pat.indptr[i]
            lev = sym.fill_level[lo:pat.indptr[i + 1]]
            in_a = np.isin(cols_p, cols_a)
            assert np.all(lev[in_a] == 0)
            assert np.all(lev[~in_a] > 0)

    def test_fill_ratio(self, poisson16):
        sym = iluk_symbolic(poisson16, 3)
        assert sym.fill_ratio > 1.0
        assert sym.fill_nnz == sym.nnz - poisson16.nnz

    def test_nnz_cap_aborts(self, poisson16):
        with pytest.raises(FillLimitExceeded):
            iluk_symbolic(poisson16, 8, nnz_cap=poisson16.nnz + 10)

    def test_negative_k_rejected(self, poisson16):
        with pytest.raises(ValueError):
            iluk_symbolic(poisson16, -1)

    def test_better_preconditioner_fewer_iterations(self, rng):
        a = stencil_poisson_2d(20)
        b = a.matvec(np.ones(a.n_rows))
        it0 = pcg(a, b, ILU0Preconditioner(a)).n_iters
        it2 = pcg(a, b, ILUKPreconditioner(a, k=3)).n_iters
        assert it2 < it0

    def test_preconditioner_metadata(self, poisson16):
        m = ILUKPreconditioner(poisson16, k=1)
        assert m.n == poisson16.n_rows
        assert m.apply_nnz() > poisson16.nnz
        assert all(lv >= 1 for lv in m.apply_levels())


class TestIC0:
    def test_exact_on_tridiagonal(self):
        dense = (np.diag(np.full(12, 4.0)) + np.diag(np.full(11, -1.0), 1)
                 + np.diag(np.full(11, -1.0), -1))
        a = CSRMatrix.from_dense(dense)
        ell = ic0(a).to_dense()
        np.testing.assert_allclose(ell @ ell.T, dense, rtol=1e-10)

    def test_matches_numpy_cholesky_when_no_fill(self):
        dense = (np.diag(np.full(9, 4.0)) + np.diag(np.full(8, -1.0), 1)
                 + np.diag(np.full(8, -1.0), -1))
        a = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(ic0(a).to_dense(),
                                   np.linalg.cholesky(dense), rtol=1e-10)

    def test_pattern_is_lower_of_a(self, poisson16):
        ell = ic0(poisson16)
        lower_nnz = (poisson16.nnz + poisson16.n_rows) // 2
        assert ell.nnz == lower_nnz

    def test_product_matches_on_pattern(self, poisson16):
        ell = ic0(poisson16).to_dense()
        prod = ell @ ell.T
        dense = poisson16.to_dense()
        mask = np.tril(dense != 0)
        np.testing.assert_allclose(prod[mask], dense[mask], rtol=1e-8)

    def test_breakdown_raises_on_kershaw_matrix(self):
        # Kershaw (1978): the canonical SPD matrix on which incomplete
        # Cholesky breaks down with a non-positive pivot.
        dense = np.array([[3.0, -2.0, 0.0, 2.0],
                          [-2.0, 3.0, -2.0, 0.0],
                          [0.0, -2.0, 3.0, -2.0],
                          [2.0, 0.0, -2.0, 3.0]])
        assert np.linalg.eigvalsh(dense).min() > 0  # SPD indeed
        with pytest.raises(NotPositiveDefiniteError):
            ic0(CSRMatrix.from_dense(dense))

    def test_preconditioner_spd_action(self, poisson16, rng):
        m = IC0Preconditioner(poisson16)
        b = poisson16.matvec(rng.standard_normal(poisson16.n_rows))
        res = pcg(poisson16, b, m)
        assert res.converged

    def test_missing_diagonal_rejected(self):
        a = CSRMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(SparseFormatError):
            ic0(a)
