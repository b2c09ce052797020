"""Level-of-fill incomplete LU factorization — ILU(K).

ILU(K) extends the ILU(0) pattern with *fill-in*: a fill entry created by
eliminating through entries of levels ``p`` and ``q`` gets level
``p + q + 1``, and entries with level ``> K`` are discarded (Section 3.3
of the paper; Saad, *Iterative Methods*, §10.3.3).  Larger K yields a
denser, more accurate preconditioner at higher cost — the trade-off the
paper evaluates with K ∈ {10, 20, 30, 40}.

The implementation separates the symbolic phase (pattern + fill levels)
from the numeric phase; the latter reuses the fixed-pattern sweep of
:func:`repro.precond.ilu0.ilu_numeric_inplace`, mirroring how the paper
computes ILU(K) factors once on the CPU and reuses them on the GPU.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError, SparseFormatError
from ..sparse.csr import CSRMatrix
from .engine import TriangularPreconditioner
from .ilu0 import ILUFactors, _factor_pattern

__all__ = ["SymbolicILU", "iluk_symbolic", "iluk", "ILUKPreconditioner"]


@dataclass(frozen=True)
class SymbolicILU:
    """Result of the symbolic ILU(K) phase.

    Attributes
    ----------
    pattern:
        CSR matrix over the fill-extended pattern; values hold the entries
        of ``A`` where present and explicit zeros at fill positions.
    fill_level:
        Per stored entry, its level of fill (0 for original entries of A).
    k:
        The level-of-fill bound used.
    """

    pattern: CSRMatrix
    fill_level: np.ndarray
    k: int

    @property
    def nnz(self) -> int:
        return self.pattern.nnz

    @property
    def fill_nnz(self) -> int:
        """Number of fill entries added beyond the pattern of A."""
        return int(np.count_nonzero(self.fill_level > 0))

    @property
    def fill_ratio(self) -> float:
        """nnz(pattern) / nnz(A)."""
        orig = self.nnz - self.fill_nnz
        return self.nnz / orig if orig else 1.0


def iluk_symbolic(a: CSRMatrix, k: int, *,
                  nnz_cap: int | None = None) -> SymbolicILU:
    """Symbolic level-of-fill pattern computation.

    Parameters
    ----------
    a:
        Square canonical CSR matrix with stored diagonal in every row.
    k:
        Maximum permitted fill level (``k = 0`` reproduces the ILU(0)
        pattern exactly).
    nnz_cap:
        Abort with :class:`~repro.errors.FillLimitExceeded` as soon as
        the accumulated pattern exceeds this many stored entries.  Large
        K on irregular matrices can fill quadratically; K-selection
        sweeps use the cap to fail fast instead of paying the full
        symbolic cost of a candidate they would reject anyway.

    Notes
    -----
    Row-by-row merge with a lazily-fed heap so fill entries below the
    diagonal created mid-row are themselves eliminated through, as the
    algorithm requires.  Complexity is O(Σᵢ rowᵢ²) in the factored row
    lengths — the classic symbolic cost.
    """
    from ..errors import FillLimitExceeded

    n = a.n_rows
    if a.shape[0] != a.shape[1]:
        raise ShapeError("iluk_symbolic requires a square matrix")
    if k < 0:
        raise ValueError("fill level k must be non-negative")
    indptr, indices = a.indptr, a.indices

    # Factored upper patterns and levels, per row (lists of np arrays).
    upper_cols: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    upper_levs: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    out_cols: list[np.ndarray] = []
    out_levs: list[np.ndarray] = []
    out_rowptr = np.zeros(n + 1, dtype=np.int64)

    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        row0 = indices[lo:hi]
        if row0.size == 0 or not np.any(row0 == i):
            raise SparseFormatError(
                f"ILU(K) requires a stored diagonal entry in row {i}")
        lev: dict[int, int] = {int(c): 0 for c in row0}
        heap = [int(c) for c in row0 if c < i]
        heapq.heapify(heap)
        done: set[int] = set()
        while heap:
            kcol = heapq.heappop(heap)
            if kcol in done:
                continue
            done.add(kcol)
            lev_ik = lev[kcol]
            if lev_ik > k:
                continue
            ucols = upper_cols[kcol]
            ulevs = upper_levs[kcol]
            for j, lev_kj in zip(ucols, ulevs):
                j = int(j)
                if j == kcol:
                    continue
                new_lev = lev_ik + int(lev_kj) + 1
                cur = lev.get(j)
                if cur is None:
                    if new_lev <= k:
                        lev[j] = new_lev
                        if j < i:
                            heapq.heappush(heap, j)
                elif new_lev < cur:
                    lev[j] = new_lev
                    # A reduced level cannot re-enable elimination through
                    # j if j was already processed; standard IKJ semantics.
                    if j < i and j not in done:
                        heapq.heappush(heap, j)
        cols_i = np.fromiter((c for c in sorted(lev) if lev[c] <= k),
                             dtype=np.int64)
        levs_i = np.fromiter((lev[c] for c in cols_i), dtype=np.int64,
                             count=cols_i.size)
        out_cols.append(cols_i)
        out_levs.append(levs_i)
        out_rowptr[i + 1] = out_rowptr[i] + cols_i.size
        if nnz_cap is not None and out_rowptr[i + 1] > nnz_cap:
            raise FillLimitExceeded(
                f"symbolic ILU({k}) exceeded {nnz_cap} stored entries at "
                f"row {i} of {n}")
        upmask = cols_i >= i
        upper_cols[i] = cols_i[upmask]
        upper_levs[i] = levs_i[upmask]

    all_cols = (np.concatenate(out_cols) if out_cols
                else np.empty(0, dtype=np.int64))
    all_levs = (np.concatenate(out_levs) if out_levs
                else np.empty(0, dtype=np.int64))

    # Inject A's values at original positions, zeros at fill.
    vals = np.zeros(all_cols.shape[0], dtype=a.dtype)
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        plo, phi = out_rowptr[i], out_rowptr[i + 1]
        tgt = plo + np.searchsorted(all_cols[plo:phi], indices[lo:hi])
        vals[tgt] = a.data[lo:hi]
    pattern = CSRMatrix(out_rowptr, all_cols, vals, a.shape, check=False)
    return SymbolicILU(pattern=pattern, fill_level=all_levs, k=k)


def iluk(a: CSRMatrix, k: int, *, raise_on_zero_pivot: bool = True,
         pivot_boost: float = 1e-8) -> ILUFactors:
    """Incomplete LU factorization with level-of-fill bound *k*.

    Equivalent to ILU(0) on the fill-extended pattern returned by
    :func:`iluk_symbolic`, with the same wavefront-batched sweep as
    :func:`repro.precond.ilu0.ilu0`.
    """
    return _factor_pattern(iluk_symbolic(a, k).pattern,
                           raise_on_zero_pivot=raise_on_zero_pivot,
                           pivot_boost=pivot_boost)


class ILUKPreconditioner(TriangularPreconditioner):
    """PCG preconditioner from ILU(K) factors.

    Parameters
    ----------
    a:
        System matrix (ignored when *factors* given).
    k:
        Level-of-fill bound.
    factors, raise_on_zero_pivot, pivot_boost:
        As for :class:`~repro.precond.ilu0.ILU0Preconditioner`.
    """

    name = "iluk"

    def __init__(self, a: CSRMatrix | None = None, k: int = 1, *,
                 factors: ILUFactors | None = None,
                 raise_on_zero_pivot: bool = True,
                 pivot_boost: float = 1e-8):
        if factors is None:
            if a is None:
                raise ValueError("provide either a matrix or factors")
            factors = iluk(a, k, raise_on_zero_pivot=raise_on_zero_pivot,
                           pivot_boost=pivot_boost)
        self.factors = factors
        self.k = int(k)
        super().__init__(factors.lower, factors.upper, unit_lower=True,
                         lower_schedule=factors.lower_schedule,
                         upper_schedule=factors.upper_schedule,
                         factor_flops=factors.factor_flops)
