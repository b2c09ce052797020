"""Tests for Jacobi and identity preconditioners."""

import numpy as np
import pytest

from repro.errors import SingularFactorError
from repro.precond import IdentityPreconditioner, JacobiPreconditioner
from repro.solvers import cg, pcg
from repro.sparse import CSRMatrix


class TestIdentity:
    def test_apply_is_copy(self, rng):
        m = IdentityPreconditioner(5)
        r = rng.standard_normal(5)
        z = m.apply(r)
        np.testing.assert_array_equal(z, r)
        assert z is not r

    def test_out_param(self, rng):
        m = IdentityPreconditioner(4)
        r = rng.standard_normal(4)
        out = np.empty(4)
        assert m.apply(r, out=out) is out

    def test_metadata(self):
        m = IdentityPreconditioner(7)
        assert m.n == 7
        assert m.apply_nnz() == 0
        assert m.apply_levels() == (0, 0)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            IdentityPreconditioner(-1)

    def test_callable(self, rng):
        m = IdentityPreconditioner(3)
        r = rng.standard_normal(3)
        np.testing.assert_array_equal(m(r), r)


class TestJacobi:
    def test_apply(self, poisson16, rng):
        m = JacobiPreconditioner(poisson16)
        r = rng.standard_normal(poisson16.n_rows)
        np.testing.assert_allclose(m.apply(r),
                                   r / np.diag(poisson16.to_dense()))

    def test_zero_diagonal_rejected(self):
        a = CSRMatrix.from_dense(np.array([[1.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(SingularFactorError):
            JacobiPreconditioner(a)

    def test_denormal_diagonal_rejected(self):
        # 1e-40 is a float32 denormal: it passes an absolute ``d == 0``
        # test but 1/d overflows the scaling.  The relative dtype-aware
        # pivot test must reject it like the triangular solvers do.
        dense = np.array([[1.0, 0.0], [0.0, 1e-40]], dtype=np.float32)
        a = CSRMatrix.from_dense(dense)
        with pytest.raises(SingularFactorError):
            JacobiPreconditioner(a)

    def test_pivot_rtol_opt_out(self):
        # The default (dtype-eps) relative test rejects a pivot tiny
        # relative to the largest one; pivot_rtol=0.0 drops the
        # threshold to the denormal floor and accepts it.
        dense = np.array([[1.0, 0.0], [0.0, 1e-30]])
        a = CSRMatrix.from_dense(dense)
        with pytest.raises(SingularFactorError):
            JacobiPreconditioner(a)
        m = JacobiPreconditioner(a, pivot_rtol=0.0)
        np.testing.assert_allclose(m.apply(np.array([1.0, 1e-30])),
                                   [1.0, 1.0])

    def test_accelerates_cg_on_scaled_system(self, rng):
        # Badly scaled diagonal: Jacobi fixes it, plain CG crawls.
        n = 80
        scale = np.logspace(0, 4, n)
        dense = np.diag(scale) + 0.1 * np.eye(n, k=1) + 0.1 * np.eye(n, k=-1)
        a = CSRMatrix.from_dense(dense)
        b = a.matvec(np.ones(n))
        plain = cg(a, b)
        jac = pcg(a, b, JacobiPreconditioner(a))
        assert jac.n_iters < plain.n_iters

    def test_out_param(self, poisson16, rng):
        m = JacobiPreconditioner(poisson16)
        r = rng.standard_normal(poisson16.n_rows)
        out = np.empty_like(r)
        assert m.apply(r, out=out) is out

