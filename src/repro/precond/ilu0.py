"""Zero fill-in incomplete LU factorization — ILU(0).

ILU(0) computes ``A ≈ L·U`` where the union of the factors' patterns
equals the pattern of ``A`` (no fill-in, Section 3.3 of the paper).  The
factorization is the cuSPARSE-style CSR algorithm: an in-place row sweep
(IKJ ordering) whose inner update is vectorized over the pivot row's
upper entries.

The resulting :class:`ILUFactors` carries a unit lower factor ``L``
(strictly-lower storage, implicit unit diagonal) and an upper factor
``U`` including the diagonal, plus their wavefront schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import ShapeError, SingularFactorError, SparseFormatError
from ..graph.levels import LevelSchedule
from ..perf.cache import cached_level_schedule
from ..perf.vectorized import build_factor_plan, ilu_numeric_vectorized
from ..sparse.csr import CSRMatrix
from .engine import TriangularPreconditioner

__all__ = ["ILUFactors", "ilu0", "ilu_numeric_inplace", "ILU0Preconditioner"]


@dataclass(frozen=True)
class ILUFactors:
    """Triangular factors of an incomplete LU factorization.

    Attributes
    ----------
    lower:
        Strictly lower triangle of ``L`` (unit diagonal implicit).
    upper:
        Upper triangle of ``U`` including the diagonal.
    """

    lower: CSRMatrix
    upper: CSRMatrix
    #: FLOPs performed by the numeric factorization (for the cost model).
    factor_flops: float = 0.0
    #: The factor plan's schedule of the factored pattern's lower
    #: triangle, which has ``lower``'s dependence graph; ``None`` when
    #: the factors were computed without a plan.
    plan_schedule: LevelSchedule | None = field(default=None, repr=False,
                                                compare=False)

    @property
    def n(self) -> int:
        return self.lower.n_rows

    @property
    def nnz(self) -> int:
        """Total stored entries (implicit unit diagonal not counted)."""
        return self.lower.nnz + self.upper.nnz

    @cached_property
    def lower_schedule(self) -> LevelSchedule:
        """Wavefront schedule of the forward substitution: the plan's
        when there is one (the same schedule, field by field), else
        ``lower``'s own."""
        if self.plan_schedule is not None:
            return self.plan_schedule
        return cached_level_schedule(self.lower, kind="lower")

    @cached_property
    def upper_schedule(self) -> LevelSchedule:
        """Wavefront schedule of the backward substitution."""
        return cached_level_schedule(self.upper, kind="upper")

    @property
    def total_levels(self) -> int:
        """Wavefronts of one preconditioner application (both sweeps)."""
        return self.lower_schedule.n_levels + self.upper_schedule.n_levels

    def multiply(self) -> np.ndarray:
        """Dense product ``L @ U`` (tests/diagnostics only)."""
        ld = self.lower.to_dense()
        np.fill_diagonal(ld, 1.0)
        return ld @ self.upper.to_dense()


def _split_factored(a: CSRMatrix, fdata: np.ndarray,
                    factor_flops: float = 0.0,
                    plan_schedule: LevelSchedule | None = None
                    ) -> ILUFactors:
    """Split an in-place factored value array on A's pattern into L and U."""
    n = a.n_rows
    rid = np.repeat(np.arange(n, dtype=np.int64), a.row_lengths())
    lower_mask = a.indices < rid
    upper_mask = ~lower_mask

    def take(mask: np.ndarray) -> CSRMatrix:
        rows = rid[mask]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return CSRMatrix(indptr, a.indices[mask], fdata[mask], a.shape,
                         check=False)

    return ILUFactors(lower=take(lower_mask), upper=take(upper_mask),
                      factor_flops=factor_flops, plan_schedule=plan_schedule)


def _factor_pattern(a: CSRMatrix, *, raise_on_zero_pivot: bool,
                    pivot_boost: float) -> ILUFactors:
    """Numeric ILU on *a*'s fixed pattern, split into factors of
    ``a.dtype`` — the shared tail of :func:`ilu0` and ILU(K)."""
    plan = build_factor_plan(a)
    fdata, flops = ilu_numeric_vectorized(
        a, raise_on_zero_pivot=raise_on_zero_pivot,
        pivot_boost=pivot_boost, plan=plan)
    return _split_factored(a, fdata.astype(a.dtype, copy=False), flops,
                           plan.schedule)


def ilu_numeric_inplace(a: CSRMatrix, *, raise_on_zero_pivot: bool = True,
                        pivot_boost: float = 1e-8
                        ) -> tuple[np.ndarray, float]:
    """Numeric ILU sweep on a *fixed* pattern — the per-row reference.

    Returns ``(factored values, flop count)``.

    The executable specification of the sweep :func:`ilu0` (pattern =
    pattern of ``A``) and :func:`repro.precond.iluk.iluk` (pattern =
    level-of-fill closure with explicit zeros injected at fill
    positions) run wavefront-batched; the tests hold the two bitwise
    equal.  The pattern is never extended: this is exactly the
    "incomplete" in ILU.

    ``pivot_boost`` is the *relative* magnitude (fraction of
    ``max |A|``) substituted for a zero pivot when
    ``raise_on_zero_pivot`` is ``False`` — the knob the resilience
    fallback ladder escalates when a boosted factorization still yields
    a useless preconditioner.
    """
    n = a.n_rows
    if a.shape[0] != a.shape[1]:
        raise ShapeError("ilu requires a square matrix")
    indptr, indices = a.indptr, a.indices
    fdata = a.data.astype(np.float64, copy=True)

    # Diagonal position of each row (structural requirement).
    diag_pos = np.empty(n, dtype=np.int64)
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        k = lo + np.searchsorted(indices[lo:hi], i)
        if k >= hi or indices[k] != i:
            raise SparseFormatError(
                f"ILU(0) requires a stored diagonal entry in row {i}")
        diag_pos[i] = k

    boost = float(pivot_boost) * (np.abs(fdata).max() if fdata.size else 1.0)
    pos = np.full(n, -1, dtype=np.int64)
    flops = 0.0
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        row_cols = indices[lo:hi]
        pos[row_cols] = np.arange(lo, hi)
        # Eliminate using each already-factored row k < i in the pattern.
        for kk in range(lo, diag_pos[i]):
            k = indices[kk]
            dk = fdata[diag_pos[k]]
            a_ik = fdata[kk] / dk
            fdata[kk] = a_ik
            # Subtract a_ik * U[k, j] for j > k where (i, j) is in pattern.
            up_lo, up_hi = diag_pos[k] + 1, indptr[k + 1]
            flops += 1.0  # the pivot division
            if up_lo < up_hi:
                cols_k = indices[up_lo:up_hi]
                tgt = pos[cols_k]
                valid = tgt >= 0
                n_upd = int(np.count_nonzero(valid))
                if n_upd:
                    fdata[tgt[valid]] -= a_ik * fdata[up_lo:up_hi][valid]
                    flops += 2.0 * n_upd  # multiply-subtract per update
        piv = fdata[diag_pos[i]]
        if piv == 0.0:
            if raise_on_zero_pivot:
                pos[row_cols] = -1
                raise SingularFactorError(i, 0.0)
            fdata[diag_pos[i]] = boost if boost > 0 \
                else max(float(pivot_boost), 1e-8)
        pos[row_cols] = -1
    return fdata, flops


def ilu0(a: CSRMatrix, *, raise_on_zero_pivot: bool = True,
         pivot_boost: float = 1e-8) -> ILUFactors:
    """Incomplete LU factorization with zero fill-in.

    Parameters
    ----------
    a:
        Square CSR matrix in canonical form whose every row stores a
        diagonal entry (the standard ILU(0) structural requirement).
    raise_on_zero_pivot:
        When ``True`` (default) a zero pivot raises
        :class:`SingularFactorError`; otherwise the pivot is replaced by
        ``pivot_boost`` times the largest absolute value in the matrix
        (cuSPARSE's boost-style fallback) and factorization continues.
    pivot_boost:
        Relative boost magnitude used for the substitution (default
        1e-8; the resilience ladder escalates it when retrying).

    Returns
    -------
    ILUFactors

    Notes
    -----
    Runs the wavefront-batched sweep of :mod:`repro.perf.vectorized`,
    whose factors are bitwise those of the per-row reference sweep
    :func:`ilu_numeric_inplace` (the correctness oracle).  Works in
    float64 internally regardless of the input dtype and casts the
    factors back, mirroring how production codes guard the pivot
    divisions.
    """
    return _factor_pattern(a, raise_on_zero_pivot=raise_on_zero_pivot,
                           pivot_boost=pivot_boost)


class ILU0Preconditioner(TriangularPreconditioner):
    """PCG preconditioner applying ``M⁻¹ = U⁻¹ L⁻¹`` from ILU(0) factors.

    Parameters
    ----------
    a:
        The (possibly sparsified) system matrix to factor.
    factors:
        Optionally reuse precomputed :class:`ILUFactors`.
    raise_on_zero_pivot, pivot_boost:
        Zero-pivot policy, as for :func:`ilu0`.
    """

    name = "ilu0"

    def __init__(self, a: CSRMatrix | None = None, *,
                 factors: ILUFactors | None = None,
                 raise_on_zero_pivot: bool = True,
                 pivot_boost: float = 1e-8):
        if factors is None:
            if a is None:
                raise ValueError("provide either a matrix or factors")
            factors = ilu0(a, raise_on_zero_pivot=raise_on_zero_pivot,
                           pivot_boost=pivot_boost)
        self.factors = factors
        super().__init__(factors.lower, factors.upper, unit_lower=True,
                         lower_schedule=factors.lower_schedule,
                         upper_schedule=factors.upper_schedule,
                         factor_flops=factors.factor_flops)

    # perfbench's span tracer wraps this class's own ``apply`` entry.
    apply = TriangularPreconditioner.apply
