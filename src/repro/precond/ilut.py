"""Threshold-based incomplete LU — ILUT(p, τ_drop).

Saad's dual-threshold ILUT: during the elimination of each row, entries
whose magnitude falls below ``drop_tol`` times the row's **RMS value**
— ``‖row‖₂ / √len``, the 2-norm normalized by the row's entry count,
not the raw 2-norm — are discarded, and only the ``p`` largest-magnitude
entries are kept in each of the L and U parts.  The RMS scaling keeps
the threshold comparable to a *typical entry magnitude* regardless of
row length (a raw-norm rule would drop ever more aggressively as rows
fill in); this is the semantics :func:`ilut` documents and the tests
pin.  This is the drop-strategy family the paper's
related work compares against (ParILUT of Anzt et al. is its parallel
variant): ILUT drops *during* factorization based on factor values,
whereas SPCG drops *before* factorization based on matrix values —
which is exactly why SPCG can also shrink the wavefront structure that
ILUT inherits unchanged.

Provided as an extension preconditioner: it slots into PCG and the
machine model like the others, enabling a direct drop-before vs
drop-during ablation.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..errors import ShapeError, SingularFactorError, SparseFormatError
from ..sparse.csr import CSRMatrix
from .engine import TriangularPreconditioner
from .ilu0 import ILUFactors

__all__ = ["ilut", "ILUTPreconditioner"]


def ilut(a: CSRMatrix, *, p: int = 10, drop_tol: float = 1e-3
         ) -> ILUFactors:
    """Dual-threshold incomplete LU factorization (Saad's ILUT).

    Parameters
    ----------
    a:
        Square CSR matrix with nonzero diagonal entries.
    p:
        Maximum retained entries in each of the strictly-lower and
        strictly-upper parts of every factored row.
    drop_tol:
        Entries below ``drop_tol · ‖row‖₂ / √len`` — *drop_tol* times
        the row's RMS entry magnitude — are dropped during elimination
        (the relative rule of Saad §10.4.1, normalized per entry so the
        threshold does not grow with row length).

    Returns
    -------
    ILUFactors
        Same container as :func:`~repro.precond.ilu0.ilu0`: strictly
        lower ``L`` with implicit unit diagonal and upper ``U`` with
        diagonal.
    """
    n = a.n_rows
    if a.shape[0] != a.shape[1]:
        raise ShapeError("ilut requires a square matrix")
    if p < 1:
        raise ValueError("p must be at least 1")
    if drop_tol < 0:
        raise ValueError("drop_tol must be non-negative")

    # Factored rows kept as (cols, vals) arrays; U rows include the diag.
    u_cols: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    u_vals: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    l_cols: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    l_vals: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    u_diag = np.empty(n, dtype=np.float64)
    flops = 0.0

    for i in range(n):
        cols_i, vals_i = a.row_slice(i)
        if not np.any(cols_i == i):
            raise SparseFormatError(
                f"ILUT requires a stored diagonal entry in row {i}")
        work: dict[int, float] = {int(c): float(v)
                                  for c, v in zip(cols_i, vals_i)}
        row_norm = float(np.linalg.norm(vals_i)) / max(
            1.0, np.sqrt(len(vals_i)))
        threshold = drop_tol * row_norm

        # Eliminate through factored rows k < i in ascending order.
        heap = [c for c in work if c < i]
        heapq.heapify(heap)
        done: set[int] = set()
        while heap:
            k = heapq.heappop(heap)
            if k in done:
                continue
            done.add(k)
            factor = work[k] / u_diag[k]
            flops += 1.0
            if abs(factor) <= threshold:
                # Drop the multiplier itself (too small to matter).
                del work[k]
                continue
            work[k] = factor
            for c, v in zip(u_cols[k], u_vals[k]):
                c = int(c)
                if c == k:
                    continue
                upd = factor * float(v)
                flops += 2.0
                cur = work.get(c)
                if cur is None:
                    if abs(upd) > threshold:
                        work[c] = -upd
                        if c < i:
                            heapq.heappush(heap, c)
                else:
                    work[c] = cur - upd

        diag = work.pop(i, 0.0)
        if diag == 0.0:
            raise SingularFactorError(i, 0.0)
        lower = [(c, v) for c, v in work.items()
                 if c < i and abs(v) > threshold]
        upper = [(c, v) for c, v in work.items()
                 if c > i and abs(v) > threshold]
        lower.sort(key=lambda cv: abs(cv[1]), reverse=True)
        upper.sort(key=lambda cv: abs(cv[1]), reverse=True)
        lower = sorted(lower[:p])
        upper = sorted(upper[:p])
        l_cols[i] = np.array([c for c, _ in lower], dtype=np.int64)
        l_vals[i] = np.array([v for _, v in lower])
        u_cols[i] = np.array([i] + [c for c, _ in upper], dtype=np.int64)
        u_vals[i] = np.array([diag] + [v for _, v in upper])
        u_diag[i] = diag

    def assemble(col_rows: list[np.ndarray], val_rows: list[np.ndarray]
                 ) -> CSRMatrix:
        indptr = np.zeros(n + 1, dtype=np.int64)
        for i in range(n):
            indptr[i + 1] = indptr[i] + col_rows[i].shape[0]
        cols = (np.concatenate(col_rows) if indptr[-1]
                else np.empty(0, dtype=np.int64))
        vals = (np.concatenate(val_rows) if indptr[-1]
                else np.empty(0))
        return CSRMatrix(indptr, cols, vals.astype(a.dtype, copy=False),
                         a.shape, check=False)

    return ILUFactors(lower=assemble(l_cols, l_vals),
                      upper=assemble(u_cols, u_vals),
                      factor_flops=flops)


class ILUTPreconditioner(TriangularPreconditioner):
    """PCG preconditioner from ILUT(p, drop_tol) factors."""

    name = "ilut"

    def __init__(self, a: CSRMatrix, *, p: int = 10,
                 drop_tol: float = 1e-3):
        self.factors = ilut(a, p=p, drop_tol=drop_tol)
        self.p = int(p)
        self.drop_tol = float(drop_tol)
        super().__init__(self.factors.lower, self.factors.upper,
                         unit_lower=True,
                         lower_schedule=self.factors.lower_schedule,
                         upper_schedule=self.factors.upper_schedule,
                         factor_flops=self.factors.factor_flops)
