"""Zero fill-in incomplete Cholesky factorization — IC(0).

The SPD-specialized sibling of ILU(0) (Section 6.2 of the paper mentions
IC(K) as the same sparsification family).  Computes ``A ≈ L·Lᵀ`` on the
pattern of the lower triangle of ``A``; the preconditioner application is
a forward sweep with ``L`` and a backward sweep with ``Lᵀ``, so it has the
same wavefront structure as ILU(0) at roughly half the storage.
"""

from __future__ import annotations

import numpy as np

from ..errors import (NotPositiveDefiniteError, ShapeError,
                      SparseFormatError)
from ..sparse.csr import CSRMatrix
from ..sparse.ops import extract_lower
from .engine import TriangularPreconditioner

__all__ = ["ic0", "IC0Preconditioner"]


def ic0(a: CSRMatrix, *, shift: float = 0.0) -> CSRMatrix:
    """Incomplete Cholesky factorization with zero fill-in.

    Parameters
    ----------
    a:
        Symmetric positive definite CSR matrix (only the lower triangle is
        read; a stored diagonal is required).
    shift:
        Relative diagonal shift α: the factorization runs on
        ``A + α·diag(A)`` (Manteuffel-style shifted IC).  0 disables it;
        the resilience ladder escalates the shift when plain IC(0)
        breaks down on a barely-definite or perturbed matrix.

    Returns
    -------
    CSRMatrix
        The lower-triangular factor ``L`` (diagonal included) such that
        ``L Lᵀ`` matches ``A`` on the retained pattern.

    Raises
    ------
    NotPositiveDefiniteError
        When a pivot becomes non-positive — possible for SPD matrices
        under incomplete factorization (a known IC(0) breakdown mode).
    """
    if a.shape[0] != a.shape[1]:
        raise ShapeError("ic0 requires a square matrix")
    low = extract_lower(a)
    n = low.n_rows
    indptr, indices = low.indptr, low.indices
    vals = low.data.astype(np.float64, copy=True)

    diag_pos = np.empty(n, dtype=np.int64)
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        if hi == lo or indices[hi - 1] != i:
            raise SparseFormatError(
                f"IC(0) requires a stored diagonal entry in row {i}")
        diag_pos[i] = hi - 1

    if shift:
        vals[diag_pos] *= 1.0 + float(shift)

    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        # Off-diagonal entries L[i, k], ascending k.
        for t in range(lo, hi - 1):
            kcol = indices[t]
            # dot(L[i, :kcol], L[k, :kcol]) over the shared pattern.
            klo, khi = indptr[kcol], indptr[kcol + 1] - 1  # excl. diagonal
            acc = vals[t]
            # Sorted intersection of the two strictly-lower row patterns.
            cols_k = indices[klo:khi]
            if cols_k.size and t > lo:
                my_cols = indices[lo:t]
                sel = np.searchsorted(cols_k, my_cols)
                inb = sel < cols_k.size
                match = np.zeros(my_cols.shape[0], dtype=bool)
                match[inb] = cols_k[sel[inb]] == my_cols[inb]
                if match.any():
                    acc -= np.dot(vals[lo:t][match],
                                  vals[klo + sel[match]])
            vals[t] = acc / vals[diag_pos[kcol]]
        # Pivot.
        d = vals[diag_pos[i]]
        if hi - 1 > lo:
            d -= float(np.dot(vals[lo:hi - 1], vals[lo:hi - 1]))
        if d <= 0.0:
            raise NotPositiveDefiniteError(
                f"IC(0) breakdown: non-positive pivot {float(d)!r} "
                f"at row {i}")
        vals[diag_pos[i]] = np.sqrt(d)

    return CSRMatrix(indptr, indices, vals.astype(a.dtype, copy=False),
                     low.shape, check=False)


class IC0Preconditioner(TriangularPreconditioner):
    """PCG preconditioner applying ``M⁻¹ = L⁻ᵀ L⁻¹`` from IC(0).

    Notes
    -----
    The backward sweep operates on the explicit transpose ``Lᵀ`` with its
    own wavefront schedule, exactly mirroring the two cuSPARSE analysis
    objects a GPU implementation would create.  :func:`ic0` counts no
    flops, so its setup is priced as a factorization of 0 flops: the
    wavefront launches and barriers alone.
    """

    name = "ic0"

    def __init__(self, a: CSRMatrix, *, shift: float = 0.0):
        self.factor = ic0(a, shift=shift)
        super().__init__(self.factor, self.factor.transpose(),
                         factor_flops=0.0)
