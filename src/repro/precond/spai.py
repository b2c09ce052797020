"""Sparse approximate inverse (SPAI) preconditioner.

Instead of factoring ``A`` and applying triangular solves — the
wavefront-bound kernel the whole sparsification machinery exists to
speed up — SPAI fits an explicit sparse ``M ≈ A⁻¹`` by Frobenius
least squares on a *fixed* sparsity pattern:

    min_M ‖A M − I‖²_F  subject to  pattern(M) ⊆ P.

The objective decouples column-by-column (row-by-row for the symmetric
matrices CG cares about), so the fit is ``n`` **independent** small
dense least-squares problems — embarrassingly parallel setup, no
elimination DAG at all.  The application ``z = M r`` is then a single
SpMV: one launch, **zero** device-wide synchronization barriers.  That
is the trade this family makes against (sparsified) ILU: more setup
FLOPs and typically more CG iterations, bought back by a perfectly flat
per-iteration kernel whose cost does not grow with wavefront depth or
device sync latency (arXiv 2510.27517 learns exactly this family's
patterns; :func:`repro.precond.plan.plan_preconditioner` prices the
crossover).

The pattern ``P`` is the pattern of ``Aᵏ`` (powers via the existing
SpGEMM) — ``k = 1`` is the classic "pattern of A" choice, larger ``k``
buys accuracy with denser rows.  The fitted ``M`` is symmetrized,
``(M + Mᵀ)/2``, so the operator handed to CG is symmetric; positive
definiteness is *not* guaranteed (that is FSAI's job —
:mod:`repro.precond.fsai`), but on the SPD suites the symmetrized fit
is PD in practice.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..sparse.csr import CSRMatrix
from ..sparse.ops import symmetrize
from ..sparse.spgemm import spgemm
from .base import Preconditioner

__all__ = ["ainv_pattern", "spai", "SPAIPreconditioner"]


def ainv_pattern(a: CSRMatrix, k: int = 1) -> CSRMatrix:
    """Sparsity pattern of ``Aᵏ`` as a CSR matrix of ones.

    The structural power is computed on an all-ones copy so numeric
    cancellation can never delete a structurally present entry.  ``k``
    is the approximate-inverse family's accuracy/density knob, the
    analogue of ILU's level-of-fill.
    """
    if a.shape[0] != a.shape[1]:
        raise ShapeError("ainv_pattern requires a square matrix")
    if k < 1:
        raise ValueError(f"pattern power k must be at least 1, got {k}")
    ones = CSRMatrix(a.indptr, a.indices, np.ones(a.nnz), a.shape,
                     check=False)
    pat = ones
    for _ in range(k - 1):
        pat = spgemm(pat, ones)
        pat = CSRMatrix(pat.indptr, pat.indices, np.ones(pat.nnz),
                        pat.shape, check=False)
    return pat


def spai(a: CSRMatrix, *, k: int = 1) -> tuple[CSRMatrix, float, float]:
    """Frobenius least-squares fit of ``M ≈ A⁻¹`` on the pattern of ``Aᵏ``.

    For each row ``i`` with pattern support ``J``: gather the union
    ``I`` of columns touched by rows ``J`` of ``A``, form the dense
    ``|I| × |J|`` submatrix ``B = A[J, I]ᵀ`` and solve the small least
    squares ``min ‖B m − e_i|I‖₂``.  Every row is independent — the
    setup is one flat-parallel kernel per row batch, priced per-row by
    :func:`repro.machine.kernels.time_ainv_setup`.

    Returns ``(M, setup_flops, setup_bytes)`` with ``M`` symmetrized.
    """
    n = a.n_rows
    if a.shape[0] != a.shape[1]:
        raise ShapeError("spai requires a square matrix")
    pat = ainv_pattern(a, k)
    value_bytes = a.dtype.itemsize
    index_bytes = 8

    rows_cols: list[np.ndarray] = []
    rows_vals: list[np.ndarray] = []
    flops = 0.0
    bytes_ = 0.0
    for i in range(n):
        j_cols, _ = pat.row_slice(i)
        if j_cols.shape[0] == 0:
            j_cols = np.array([i], dtype=np.int64)
        # I = union of the columns of A's rows J (always contains i for
        # a stored diagonal); the residual is supported there.
        touched = [a.row_slice(int(j))[0] for j in j_cols]
        i_rows = np.unique(np.concatenate(touched + [np.array([i])]))
        b = np.zeros((i_rows.shape[0], j_cols.shape[0]))
        for c, j in enumerate(j_cols):
            cols_j, vals_j = a.row_slice(int(j))
            b[np.searchsorted(i_rows, cols_j), c] = vals_j
        rhs = np.zeros(i_rows.shape[0])
        rhs[np.searchsorted(i_rows, i)] = 1.0
        m_row, *_ = np.linalg.lstsq(b, rhs, rcond=None)
        rows_cols.append(j_cols)
        rows_vals.append(m_row)
        # QR of an r×c system: ~2rc² FLOPs; traffic = gathered entries
        # plus the written row.
        r, c = b.shape
        flops += 2.0 * r * c * c
        bytes_ += (r * c * (value_bytes + index_bytes)
                   + c * (value_bytes + index_bytes))

    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([c.shape[0] for c in rows_cols])
    m = CSRMatrix(indptr, np.concatenate(rows_cols),
                  np.concatenate(rows_vals).astype(a.dtype, copy=False),
                  a.shape, check=False)
    return symmetrize(m), flops, bytes_


class SPAIPreconditioner(Preconditioner):
    """``z = M r`` with ``M ≈ A⁻¹`` fitted by :func:`spai`.

    One SpMV per application: a single kernel launch, zero device-wide
    barriers (:meth:`apply_sync_barriers` → 0), no wavefront structure
    for the machine model to price.  ``k`` is the pattern power.
    """

    name = "spai"

    def __init__(self, a: CSRMatrix, *, k: int = 1):
        self.k = int(k)
        self._m, self._setup_flops, self._setup_bytes = spai(a, k=self.k)

    @property
    def n(self) -> int:
        return self._m.n_rows

    @property
    def matrix(self) -> CSRMatrix:
        """The explicit approximate inverse ``M`` (symmetrized)."""
        return self._m

    def apply(self, r: np.ndarray, out: np.ndarray | None = None
              ) -> np.ndarray:
        """``z = M r`` — one SpMV; ``(n, B)`` blocks use the batched
        SpMV whose columns are bitwise equal to the 1-D path."""
        r = np.asarray(r)
        if r.ndim == 1:
            return self._m.matvec(r, out=out)
        return self._m.matmat(r, out=out)

    @property
    def value_dtype(self) -> np.dtype:
        return self._m.dtype

    def apply_nnz(self) -> int:
        return self._m.nnz

    def apply_levels(self) -> tuple[int, int]:
        """One forward SpMV launch, no backward sweep — and therefore
        zero inter-level barriers."""
        return (1, 0)

    def spmv_profile(self) -> tuple[tuple[int, int, int], ...]:
        """Per-SpMV ``(n_rows, nnz, value_bytes)`` of one application —
        the machine model's pricing hook for barrier-free applies."""
        return ((self._m.n_rows, self._m.nnz, self._m.dtype.itemsize),)

    def setup_profile(self) -> dict:
        """Row-parallel setup statistics for
        :func:`repro.machine.kernels.time_ainv_setup`."""
        return {"n_rows": self._m.n_rows,
                "flops": self._setup_flops,
                "bytes": self._setup_bytes}
