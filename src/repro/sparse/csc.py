"""Compressed sparse column matrix.

CSC is the column-oriented view: column *j* of a lower factor lists the
rows that consume ``x_j`` (its children in the dependence DAG).  A
``CSCMatrix`` of ``L`` is the CSR of ``L^T`` with the logical shape kept
un-transposed.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError, SparseFormatError

__all__ = ["CSCMatrix"]


class CSCMatrix:
    """Sparse matrix in compressed sparse column format.

    Parameters
    ----------
    indptr:
        Column pointer array of length ``n_cols + 1``.
    indices:
        Row indices, length ``nnz``, sorted and unique within each column.
    data:
        Values, length ``nnz``.
    shape:
        ``(n_rows, n_cols)`` — the *logical* shape.
    """

    __slots__ = ("indptr", "indices", "data", "shape")

    def __init__(self, indptr, indices, data, shape: tuple[int, int], *,
                 check: bool = True):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data)
        if len(shape) != 2 or shape[0] < 0 or shape[1] < 0:
            raise ShapeError(f"invalid shape {shape!r}")
        self.shape = (int(shape[0]), int(shape[1]))
        if check:
            self.check_format()

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def col_slice(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of column *j*'s ``(rows, values)``."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def check_format(self) -> None:
        """Validate CSC invariants via the transposed-CSR validator."""
        from .csr import CSRMatrix

        n, m = self.shape
        if self.indptr.ndim != 1 or self.indptr.shape[0] != m + 1:
            raise SparseFormatError(
                f"indptr must have length n_cols+1={m + 1}, "
                f"got {self.indptr.shape}")
        # Reuse the CSR checks on the transposed view.
        CSRMatrix(self.indptr, self.indices, self.data, (m, n), check=True)

    def tocsr(self):
        """Convert to canonical CSR."""
        from .csr import CSRMatrix

        as_t = CSRMatrix(self.indptr, self.indices, self.data,
                         (self.n_cols, self.n_rows), check=False)
        return as_t.transpose()

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense 2-D array."""
        return self.tocsr().to_dense()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CSCMatrix(shape={self.shape}, nnz={self.nnz}, "
                f"dtype={self.data.dtype})")
