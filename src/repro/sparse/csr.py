"""Compressed sparse row matrix — the workhorse container.

Everything in the SPCG pipeline (sparsification, ILU factorization,
wavefront scheduling, triangular solves, SpMV) operates on this class.
The canonical form required by the numeric kernels is: sorted column
indices within each row and no duplicate entries; :meth:`check_format`
verifies it and conversions from COO establish it.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError, SparseFormatError
from ..util import segment_sum

__all__ = ["CSRMatrix"]


class CSRMatrix:
    """Sparse matrix in compressed sparse row format (Figure 1b of the paper).

    Parameters
    ----------
    indptr:
        Row pointer array of length ``n_rows + 1``.
    indices:
        Column indices, length ``nnz``.
    data:
        Values, length ``nnz``.
    shape:
        ``(n_rows, n_cols)``.
    check:
        When ``True`` (default) validate the format invariants.
    """

    __slots__ = ("indptr", "indices", "data", "shape", "_rows_nonempty")

    def __init__(self, indptr, indices, data, shape: tuple[int, int], *,
                 check: bool = True):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data)
        if len(shape) != 2 or shape[0] < 0 or shape[1] < 0:
            raise ShapeError(f"invalid shape {shape!r}")
        self.shape = (int(shape[0]), int(shape[1]))
        self._rows_nonempty: bool | None = None
        if check:
            self.check_format()

    # -- basic properties ------------------------------------------------
    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indptr[-1])

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def density(self) -> float:
        """Fraction of stored entries relative to a dense matrix."""
        n, m = self.shape
        return self.nnz / (n * m) if n and m else 0.0

    def row_lengths(self) -> np.ndarray:
        """Stored entries per row, length ``n_rows``."""
        return np.diff(self.indptr)

    def row_slice(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of row *i*'s ``(columns, values)``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    # -- validation ------------------------------------------------------
    def check_format(self) -> None:
        """Validate CSR invariants, raising :class:`SparseFormatError`.

        Checks: indptr length/monotonicity, index bounds, array lengths,
        sorted-and-unique columns within each row (the canonical form the
        numeric kernels assume).
        """
        n, m = self.shape
        if self.indptr.ndim != 1 or self.indptr.shape[0] != n + 1:
            raise SparseFormatError(
                f"indptr must have length n_rows+1={n + 1}, "
                f"got {self.indptr.shape}")
        if self.indptr[0] != 0:
            raise SparseFormatError("indptr[0] must be 0")
        if np.any(np.diff(self.indptr) < 0):
            raise SparseFormatError("indptr must be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.indices.shape != (nnz,) or self.data.shape != (nnz,):
            raise SparseFormatError(
                "indices/data length must equal indptr[-1]")
        if nnz:
            if self.indices.min() < 0 or self.indices.max() >= m:
                raise SparseFormatError("column index out of bounds")
            # Sorted & unique within rows: differences inside a row must be
            # strictly positive.  Row boundaries are exempt.
            d = np.diff(self.indices)
            row_start = np.zeros(nnz, dtype=bool)
            # Interior row starts; boundaries equal to nnz come from
            # trailing empty rows and mark no entry.
            starts = self.indptr[1:-1]
            row_start[starts[starts < nnz]] = True
            interior = ~row_start[1:]
            if np.any(d[interior] <= 0):
                raise SparseFormatError(
                    "column indices must be sorted and unique within rows")

    # -- constructors / conversions --------------------------------------
    @classmethod
    def from_dense(cls, dense, *, dtype=None) -> "CSRMatrix":
        """Build from a dense 2-D array, storing its nonzero entries."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ShapeError("from_dense expects a 2-D array")
        if dtype is not None:
            dense = dense.astype(dtype, copy=False)
        rows, cols = np.nonzero(dense)
        indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr, cols.astype(np.int64), dense[rows, cols].copy(),
                   dense.shape, check=False)

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense 2-D array.

        Duplicate coordinates (possible with ``check=False``) are
        summed, matching :meth:`matvec` and the COO convention.
        """
        out = np.zeros(self.shape, dtype=self.data.dtype)
        rows = np.repeat(np.arange(self.n_rows), self.row_lengths())
        np.add.at(out, (rows, self.indices), self.data)
        return out

    def tocoo(self):
        """Convert to :class:`~repro.sparse.coo.COOMatrix` (copies indices)."""
        from .coo import COOMatrix

        rows = np.repeat(np.arange(self.n_rows, dtype=np.int64),
                         self.row_lengths())
        return COOMatrix(rows, self.indices.copy(), self.data.copy(),
                         self.shape, check=False)

    def tocsc(self):
        """Convert to :class:`~repro.sparse.csc.CSCMatrix`."""
        from .csc import CSCMatrix

        t = self.transpose()
        return CSCMatrix(t.indptr, t.indices, t.data, self.shape, check=False)

    def transpose(self) -> "CSRMatrix":
        """Return the transpose as a new canonical CSR matrix."""
        n, m = self.shape
        rows = np.repeat(np.arange(n, dtype=np.int64), self.row_lengths())
        # Stable counting sort by column gives the transpose's row order;
        # within a column the original row order is already ascending, so
        # the result is canonical.
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.add.at(indptr, self.indices + 1, 1)
        np.cumsum(indptr, out=indptr)
        order = np.argsort(self.indices, kind="stable")
        return CSRMatrix(indptr, rows[order], self.data[order], (m, n),
                         check=False)

    def copy(self) -> "CSRMatrix":
        """Deep copy."""
        return CSRMatrix(self.indptr.copy(), self.indices.copy(),
                         self.data.copy(), self.shape, check=False)

    def astype(self, dtype) -> "CSRMatrix":
        """Return a copy with values cast to *dtype* (indices shared)."""
        return CSRMatrix(self.indptr, self.indices,
                         self.data.astype(dtype), self.shape, check=False)

    # -- numeric kernels ---------------------------------------------------
    def _spmv(self, x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """Row sums of ``data * x[indices]`` for a 1-D or ``(n, B)`` *x*.

        One path for both: a block is worked on as its transpose
        ``xᵀ``, ``(B, n)``, so each right-hand side is one contiguous
        row (``.T`` leaves a vector as it is).  One ``take`` gathers
        along those rows, one in-place multiply by ``data`` runs along
        them, and one ``np.add.reduceat`` over the row offsets
        ``indptr[:-1]`` sums each matrix row of each right-hand side
        with the pairwise additions of the 1-D call; the ``(B, n)``
        sums come back as the column-major ``(n, B)`` block ``.T``.
        The offsets are valid ``reduceat`` offsets only when every row
        stores an entry; the check runs on the first product and is
        kept (the pattern is never mutated in place; only ``data`` is).
        A matrix with an empty row goes through
        :func:`~repro.util.segment_sum`, whose masking keeps ``reduceat``
        off empty segments.  Scratch is allocated per call: cached
        matrices are shared across threads.
        """
        if self._rows_nonempty is None:
            self._rows_nonempty = bool(self.n_rows) and bool(
                (self.indptr[1:] > self.indptr[:-1]).all())
        dtype = np.result_type(self.data.dtype, x.dtype)
        prod = x.T.take(self.indices, -1)
        prod = np.multiply(prod, self.data,
                           out=prod if prod.dtype == dtype else None)
        # float32 products are summed in float64, as segment_sum does.
        acc = prod.astype(np.float64, copy=False)
        if self._rows_nonempty:
            y = np.add.reduceat(acc, self.indptr[:-1], axis=-1)
        else:
            y = np.empty(acc.shape[:-1] + (self.n_rows,))
            segment_sum(acc.T, self.indptr[:-1], self.indptr[1:], out=y.T)
        y = y.astype(dtype, copy=False).T
        if out is None:
            return y
        out[...] = y
        return out

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Sparse matrix–vector product ``y = A @ x``.

        The SpMV kernel on line 9 of Algorithm 1: a ``take`` gather of
        ``x``, an in-place multiply by the values and one
        ``np.add.reduceat`` over the row offsets, summing each row on its
        own.  float32 products are accumulated in float64 and the sums
        cast to ``result_type(A, x)``; a given ``out`` receives them with
        NumPy's assignment cast.
        """
        x = np.asarray(x)
        if x.shape != (self.n_cols,):
            raise ShapeError(
                f"x must have shape ({self.n_cols},), got {x.shape}")
        return self._spmv(x, out)

    def matmat(self, x: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
        """Sparse matrix–dense block product ``Y = A @ X``, ``X`` (n, B).

        The batched SpMV of the multi-RHS solver: one gather, multiply
        and row reduction serve all ``B`` columns.  The kernel works on
        ``Xᵀ`` with each right-hand side a contiguous row — free for a
        column-major ``X``, one transposing copy for any other layout —
        and returns the column-major ``(n, B)`` result.  Each column of
        the result is bitwise identical to :meth:`matvec` on that
        column alone (``reduceat`` sums each row of each right-hand
        side with the 1-D call's pairwise additions), so block solves
        decompose exactly into single-RHS ones.
        """
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[0] != self.n_cols:
            raise ShapeError(
                f"x must have shape ({self.n_cols}, B), got {x.shape}")
        return self._spmv(x, out)

    def __matmul__(self, x):
        if isinstance(x, np.ndarray) and x.ndim == 1:
            return self.matvec(x)
        if isinstance(x, np.ndarray) and x.ndim == 2:
            return self.matmat(x)
        return NotImplemented

    def diagonal(self) -> np.ndarray:
        """Main diagonal as a dense vector (zeros where unstored).

        Duplicate stored coordinates (representable when built with
        ``check=False``) are **summed** — the same assembly semantics
        :meth:`matvec` and the COO conversion apply — so every consumer
        of the diagonal sees the matrix the numeric kernels act on.
        """
        n = min(self.shape)
        out = np.zeros(n, dtype=self.data.dtype)
        for_rows = np.arange(self.n_rows, dtype=np.int64)
        rows = np.repeat(for_rows, self.row_lengths())
        mask = (rows == self.indices) & (rows < n)
        np.add.at(out, rows[mask], self.data[mask])
        return out

    def eliminate_zeros(self, tol: float = 0.0) -> "CSRMatrix":
        """Return a copy with entries of magnitude ``<= tol`` removed."""
        keep = np.abs(self.data) > tol
        rows = np.repeat(np.arange(self.n_rows, dtype=np.int64),
                         self.row_lengths())[keep]
        indptr = np.zeros(self.n_rows + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return CSRMatrix(indptr, self.indices[keep], self.data[keep],
                         self.shape, check=False)

    def get(self, i: int, j: int) -> float:
        """Value at ``(i, j)`` (0.0 when unstored). O(log row length)."""
        cols, vals = self.row_slice(i)
        k = np.searchsorted(cols, j)
        if k < cols.shape[0] and cols[k] == j:
            return float(vals[k])
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
                f"dtype={self.data.dtype})")
