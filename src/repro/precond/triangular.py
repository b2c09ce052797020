"""Sparse triangular solvers: sequential reference and the GPU executor.

Solving the two triangular systems of the preconditioner application is
where PCG spends its time on GPUs (Section 2 of the paper).
:class:`ScheduledTriangularSolver` follows the inspector–executor
pattern with level scheduling: the inspector
(:func:`repro.graph.level_schedule`) runs once per factor, the executor
then performs **one segmented, fully-vectorized kernel per wavefront**
— the NumPy analogue of one CUDA kernel launch per level, with the
inter-level Python step standing in for the barrier synchronization.
Fewer wavefronts therefore mean both fewer modeled synchronizations
*and* measurably less interpreter overhead.

The partitioned (domain-decomposition) SpTRSV of arXiv 2508.04917 is
priced, not run: see :func:`repro.precond.engine.plan_trisolve`.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import (NotTriangularError, ScheduleError, ShapeError,
                      SingularFactorError)
from ..graph.dag import _entry_rows
from ..graph.levels import LevelSchedule, level_schedule
from ..sparse.csr import CSRMatrix

__all__ = [
    "solve_lower_sequential",
    "solve_upper_sequential",
    "ScheduledTriangularSolver",
]

#: Default relative pivot tolerance: ``None`` selects the factor dtype's
#: machine epsilon.  Pivot magnitudes at or below
#: ``max(rtol · max|pivot|, tiny)`` raise :class:`SingularFactorError`
#: at solver construction — the ``tiny`` floor rejects denormal pivots
#: whose reciprocal overflows to inf (a float32 pivot of 1e-40 passes an
#: exact-zero test yet produces an unusable solver).
_PIVOT_RTOL: float | None = None


def _check_square(t: CSRMatrix) -> int:
    if t.shape[0] != t.shape[1]:
        raise ShapeError(f"triangular solve requires square matrix, "
                         f"got {t.shape}")
    return t.n_rows


def _pivot_threshold(dtype, max_abs_pivot: float,
                     rtol: float | None) -> float:
    """Absolute rejection threshold for pivot magnitudes.

    Genuinely relative: ``rtol`` (the dtype's eps when ``None``) scales
    the largest pivot magnitude; the dtype's smallest normal number is
    the floor so denormal pivots are always rejected.
    """
    fi = np.finfo(np.dtype(dtype))
    r = float(fi.eps) if rtol is None else float(rtol)
    return max(r * float(max_abs_pivot), float(fi.tiny))


def _summed_diag(tri: CSRMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-row diagonal values (duplicates summed, float64) + presence.

    Summing duplicate diagonal entries is the CSR convention (assembly
    semantics); both the sequential oracles and the executor use this
    helper so non-canonical input cannot make them diverge.
    """
    n = tri.n_rows
    rid = np.repeat(np.arange(n, dtype=np.int64), tri.row_lengths())
    dmask = tri.indices == rid
    diag = np.zeros(n, dtype=np.float64)
    np.add.at(diag, rid[dmask], tri.data[dmask].astype(np.float64))
    present = np.zeros(n, dtype=bool)
    present[rid[dmask]] = True
    return diag, present


def _pivot_error(row: int, pivot: float, thr: float) -> SingularFactorError:
    return SingularFactorError(
        row, pivot,
        f"pivot magnitude {abs(pivot):.3e} at row {row} is at or below "
        f"the rejection threshold {thr:.3e} "
        f"(relative to the largest pivot)")


def _checked_diag(tri: CSRMatrix, pivot_rtol: float | None) -> np.ndarray:
    """The summed diagonal, after pivot validation.

    Duplicates are summed (matching the sequential oracles), and a
    missing pivot or a magnitude at or below the relative threshold
    raises :class:`SingularFactorError` — including the denormal pivots
    whose float32 reciprocal would overflow to inf.
    """
    diag, present = _summed_diag(tri)
    if not present.all():
        row = int(np.flatnonzero(~present)[0])
        raise SingularFactorError(row, 0.0)
    thr = _pivot_threshold(tri.dtype, float(np.abs(diag).max(initial=0.0)),
                           pivot_rtol)
    bad = np.abs(diag) <= thr
    if np.any(bad):
        row = int(np.flatnonzero(bad)[0])
        raise _pivot_error(row, float(diag[row]), thr)
    return diag


def solve_lower_sequential(lower: CSRMatrix, b: np.ndarray, *,
                           unit_diagonal: bool = False,
                           pivot_rtol: float | None = _PIVOT_RTOL
                           ) -> np.ndarray:
    """Forward substitution ``L x = b`` — the executable specification.

    Row-by-row Python loop used as the correctness oracle for the
    wavefront executor and in the property-based tests.  Accumulation
    happens in ``np.result_type(lower.dtype, b.dtype)`` — the same
    arithmetic the vectorized executor performs — so float32
    oracle-vs-executor comparisons exercise float32 arithmetic, not a
    hidden float64 reference.  Duplicate diagonal entries are summed.
    """
    n = _check_square(lower)
    b = np.asarray(b)
    if b.shape != (n,):
        raise ShapeError(f"b must have shape ({n},)")
    dtype = np.result_type(lower.dtype, b.dtype)
    bd = b.astype(dtype, copy=False)
    x = np.zeros(n, dtype=dtype)
    indptr, indices, data = lower.indptr, lower.indices, lower.data
    if not unit_diagonal:
        diag, _ = _summed_diag(lower)
        thr = _pivot_threshold(lower.dtype,
                               float(np.abs(diag).max(initial=0.0)),
                               pivot_rtol)
    for i in range(n):
        cols = indices[indptr[i]:indptr[i + 1]]
        vals = data[indptr[i]:indptr[i + 1]]
        if cols.size and cols[-1] > i:
            raise NotTriangularError(f"entry above diagonal in row {i}")
        below = cols < i
        acc = bd[i] - np.dot(vals[below], x[cols[below]])
        if unit_diagonal:
            x[i] = acc
        else:
            dmask = cols == i
            if not dmask.any():
                raise SingularFactorError(i, 0.0)
            d = vals[dmask].astype(dtype, copy=False).sum()
            if abs(d) <= thr:
                raise _pivot_error(i, float(d), thr)
            x[i] = acc / d
    return x


def solve_upper_sequential(upper: CSRMatrix, b: np.ndarray, *,
                           unit_diagonal: bool = False,
                           pivot_rtol: float | None = _PIVOT_RTOL
                           ) -> np.ndarray:
    """Backward substitution ``U x = b`` — the executable specification.

    Same accumulation-dtype and duplicate-diagonal conventions as
    :func:`solve_lower_sequential`.
    """
    n = _check_square(upper)
    b = np.asarray(b)
    if b.shape != (n,):
        raise ShapeError(f"b must have shape ({n},)")
    dtype = np.result_type(upper.dtype, b.dtype)
    bd = b.astype(dtype, copy=False)
    x = np.zeros(n, dtype=dtype)
    indptr, indices, data = upper.indptr, upper.indices, upper.data
    if not unit_diagonal:
        diag, _ = _summed_diag(upper)
        thr = _pivot_threshold(upper.dtype,
                               float(np.abs(diag).max(initial=0.0)),
                               pivot_rtol)
    for i in range(n - 1, -1, -1):
        cols = indices[indptr[i]:indptr[i + 1]]
        vals = data[indptr[i]:indptr[i + 1]]
        if cols.size and cols[0] < i:
            raise NotTriangularError(f"entry below diagonal in row {i}")
        above = cols > i
        acc = bd[i] - np.dot(vals[above], x[cols[above]])
        if unit_diagonal:
            x[i] = acc
        else:
            dmask = cols == i
            if not dmask.any():
                raise SingularFactorError(i, 0.0)
            d = vals[dmask].astype(dtype, copy=False).sum()
            if abs(d) <= thr:
                raise _pivot_error(i, float(d), thr)
            x[i] = acc / d
    return x


class ScheduledTriangularSolver:
    """Level-scheduled (wavefront) triangular solver.

    Parameters
    ----------
    tri:
        Square lower- or upper-triangular CSR matrix in canonical form.
    kind:
        ``"lower"`` (forward substitution) or ``"upper"`` (backward).
    unit_diagonal:
        Treat the diagonal as implicitly 1 (stored diagonal entries, if
        any, are ignored).  This matches the unit-lower factor convention
        of LU.
    schedule:
        Optional precomputed :class:`LevelSchedule` (the inspector result)
        to reuse; computed on construction otherwise.  It must list
        every row once and put each row in a strictly later wavefront
        than every row it depends on (it need not be tight);
        :class:`~repro.errors.ScheduleError` names the first row that
        breaks this.
    pivot_rtol:
        Relative pivot-rejection tolerance (``None`` = the factor
        dtype's eps); see :data:`_PIVOT_RTOL`.

    Notes
    -----
    Construction performs the inspector work once.  It permutes the rows
    into schedule order, so wavefront *k* is the contiguous slice
    ``level_ptr[k]:level_ptr[k+1]`` of the permuted solution, and folds
    the diagonal into the coefficients: row *i* becomes one segment,
    its own entry (coefficient ``1/d_i``, or 1 for a unit diagonal)
    followed by its off-diagonal entries (coefficients ``-t_ij/d_i``),
    with columns renumbered to permuted positions, so that
    ``x_i = (1/d_i)·b_i + Σ_j (-t_ij/d_i)·x_j`` is one segmented sum.
    :meth:`solve` then makes exactly three NumPy calls per wavefront,
    on the views of a workspace built at the first solve of a shape and
    dtype and kept for the next (see :meth:`_workspace`).  The
    per-level row and nonzero counts are exposed via
    :meth:`kernel_profile` for the machine model.
    """

    def __init__(self, tri: CSRMatrix, *, kind: str = "lower",
                 unit_diagonal: bool = False,
                 schedule: LevelSchedule | None = None,
                 pivot_rtol: float | None = _PIVOT_RTOL):
        if kind not in ("lower", "upper"):
            raise ValueError(f"kind must be 'lower' or 'upper', got {kind!r}")
        n = _check_square(tri)
        self.kind = kind
        self.unit_diagonal = bool(unit_diagonal)
        self.n = n
        self.dtype = tri.dtype
        self.schedule = (schedule if schedule is not None
                         else level_schedule(tri, kind=kind))
        if self.schedule.n_rows != n:
            raise ShapeError("schedule size does not match matrix order")

        # A schedule built here has already checked the triangle.
        rid = _entry_rows(tri, kind, strict=schedule is not None)
        off = np.flatnonzero(tri.indices < rid if kind == "lower"
                             else tri.indices > rid)
        rows, cols = rid[off], tri.indices[off]
        diag = None if self.unit_diagonal else _checked_diag(tri, pivot_rtol)

        # perm[p] is the row solved at position p; pos inverts it.
        lp = self.schedule.level_ptr
        sizes = np.diff(lp)
        perm = self.schedule.rows.astype(np.int64)
        pos = np.full(n, -1, dtype=np.int64)
        if perm.shape == (n,) and lp[0] == 0 and lp[-1] == n:
            pos[perm] = np.arange(n, dtype=np.int64)
        missing = pos < 0
        if missing.any():
            row = int(np.argmax(missing))
            raise ScheduleError(row, f"schedule does not list row {row} "
                                     f"exactly once")
        level = np.repeat(np.arange(sizes.shape[0], dtype=np.int64),
                          sizes)[pos]
        early = level[cols] < level[rows]
        if not early.all():
            row = int(rows[np.argmin(early)])
            raise ScheduleError(row, f"row {row} is not in a later "
                                     f"wavefront than a row it depends on")

        # One segment per row in schedule order: the row's own entry,
        # then its off-diagonal entries in stored order.  An entry's slot
        # is its row's segment start, plus one, plus its rank in the row.
        counts = np.bincount(rows, minlength=n)
        seg = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts[perm] + 1, out=seg[1:])
        own = seg[:-1]
        shift = own[pos] + 1 - (np.cumsum(counts) - counts)
        slot = shift[rows] + np.arange(rows.shape[0], dtype=np.int64)
        gcols = np.empty(seg[-1], dtype=np.int64)
        gcols[own] = np.arange(n, dtype=np.int64)
        gcols[slot] = pos[cols]
        # Quotients are taken in float64, against the float64 summed
        # diagonal, and stored in the factor dtype: a float64 factor's
        # coefficients are each rounded once.
        coef = np.empty(seg[-1], dtype=tri.dtype)
        if diag is None:
            coef[own] = 1
            coef[slot] = -tri.data[off]
        else:
            coef[own] = 1.0 / diag[perm]
            coef[slot] = -tri.data[off] / diag[rows]
        # The arrays stay writeable and private: NumPy's take and
        # reduceat copy a read-only index array on every call.
        self._perm = perm
        self._cols = gcols
        self._coef = coef
        # Each row's segment start relative to its wavefront's first entry.
        self._offsets = own - np.repeat(own[lp[:-1]], sizes)
        # Wavefront k's entries are _cols[_entry_ptr[k]:_entry_ptr[k+1]].
        self._entry_ptr = seg[lp]
        # At most one workspace, taken and returned under the lock.
        self._spare = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def n_levels(self) -> int:
        """Number of wavefronts (≡ synchronizations per solve)."""
        return self.schedule.n_levels

    @property
    def nnz(self) -> int:
        """Stored off-diagonal entries plus diagonal contributions."""
        return int(self._entry_ptr[-1])

    def kernel_profile(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-level ``(rows, nnz)`` arrays for the machine cost model.

        ``nnz`` counts the off-diagonal entries gathered in each level plus
        one diagonal operation per row.
        """
        return np.diff(self.schedule.level_ptr), np.diff(self._entry_ptr)

    def _workspace(self, shape: tuple, dtype) -> tuple:
        """Scratch for solves of right-hand sides of *shape* in *dtype*.

        Returns ``(key, y, levels)``: *key* is ``(shape, dtype)``, *y*
        the permuted solution (row-interleaved for a block), and
        *levels* one ``(gather indices, products, coefficients,
        offsets, y[lo:hi])`` tuple per wavefront, every array a view
        built here.  A 1-D workspace's coefficients are views of the
        folded coefficients in *dtype*.  A block multiplies by a
        contiguous ``(nnz, B)`` copy of them that each solve makes and
        drops, as keeping one per solver costs ``8·nnz·B`` bytes for
        every factor in memory, so a block workspace holds each
        wavefront's ``slice`` of that copy instead.
        """
        y = np.empty(shape, dtype)
        prod = np.empty((int(np.diff(self._entry_ptr).max(initial=0)),)
                        + shape[1:], dtype)
        coef = (self._coef.astype(dtype, copy=False) if len(shape) == 1
                else None)
        lp = self.schedule.level_ptr.tolist()
        ep = self._entry_ptr.tolist()
        cols, offsets = self._cols, self._offsets
        levels = [(cols[s0:s1], prod[:s1 - s0],
                   slice(s0, s1) if coef is None else coef[s0:s1],
                   offsets[lo:hi], y[lo:hi])
                  for lo, hi, s0, s1 in zip(lp[:-1], lp[1:], ep[:-1], ep[1:])]
        return (shape, dtype), y, levels

    # ------------------------------------------------------------------
    def solve(self, b: np.ndarray, out: np.ndarray | None = None
              ) -> np.ndarray:
        """Solve the triangular system for *b*, ``(n,)`` or ``(n, B)``.

        One sweep over the wavefronts serves every column: the
        right-hand side is permuted into schedule order once, into a
        row-interleaved block (a row's ``B`` values side by side), each
        wavefront gathers its segments' operands (the right-hand side of
        each of its rows and the solutions of earlier levels),
        multiplies them by the folded coefficients and sums each segment
        with ``np.add.reduceat`` straight into its slice of the
        solution, and the result is scattered back once, into a
        column-major block unless *out* is given (the layout the CG
        kernel keeps its blocks in; *b* may have any layout).  The
        per-level barriers are paid once per sweep, not once per
        column, and column ``j`` of a block solve is bitwise identical
        to the single-RHS solve of ``b[:, j]``.  The permuted solution,
        the products and every per-level view come from the solver's
        kept workspace when it is free and of this shape and dtype;
        otherwise the call builds its own, and returns it to the solver
        afterwards in place of the kept one.  So one solver serves
        concurrent callers, and a warm solve allocates only its answer
        (and, for a block, its coefficient block).
        """
        b = np.asarray(b)
        if b.ndim not in (1, 2) or b.shape[0] != self.n:
            raise ShapeError(f"b must have shape ({self.n},) or "
                             f"({self.n}, B), got {b.shape}")
        dtype = np.result_type(self.dtype, b.dtype)
        x = out if out is not None else np.empty(b.shape[::-1], dtype).T
        if x.shape != b.shape:
            raise ShapeError(f"out must have shape {b.shape}")
        res = x
        if b.ndim == 2 and b.shape[1] == 1:
            # One column runs the 1-D sweep on its column views: the
            # same numbers, without an (nnz, 1) coefficient block.
            b, x = b[:, 0], x[:, 0]
        with self._lock:
            ws, self._spare = self._spare, None
        if ws is None or ws[0] != (b.shape, dtype):
            ws = self._workspace(b.shape, dtype)
        _, y, levels = ws
        if b.dtype == dtype:
            b.take(self._perm, 0, y, "clip")
        else:
            y[...] = b[self._perm]
        block = None
        if b.ndim == 2:
            # A contiguous (nnz, B) coefficient block: multiplying by a
            # broadcast (k, 1) column costs several times as much.
            k, width = self._coef.shape[0], b.shape[1]
            block = self._coef.astype(dtype, copy=False).repeat(
                width).reshape(k, width)
        # Outputs are passed positionally and the gather skips its bounds
        # check (the inspector built every index): per-call overhead is
        # what a wavefront costs here.
        mul, reduceat = np.multiply, np.add.reduceat
        for cols, p, coef, offs, yv in levels:
            y.take(cols, 0, p, "clip")
            mul(p, coef if block is None else block[coef], p)
            reduceat(p, offs, 0, None, yv)
        x[self._perm] = y
        with self._lock:
            self._spare = ws
        return res

    __call__ = solve

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ScheduledTriangularSolver(kind={self.kind!r}, n={self.n}, "
                f"levels={self.n_levels}, unit_diagonal={self.unit_diagonal})")
