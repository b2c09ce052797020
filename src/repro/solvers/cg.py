"""Conjugate gradient and left-preconditioned conjugate gradient.

:func:`pcg` implements Algorithm 1 of the paper line by line:

.. code-block:: text

    r0 = b - A x0;  z0 = M^-1 r0;  p0 = z0
    repeat:
        w  = A p
        alpha = (r, z) / (p, w)
        x += alpha p;  r -= alpha w
        z  = M^-1 r
        beta = (r+, z+) / (r, z)
        p  = z + beta p

Each iteration performs one SpMV, one preconditioner application, two
inner products and three AXPYs — the kernel mix the machine model prices.

The loop exists once, in :class:`_BlockCG`: it iterates an ``(n, B)``
working block of columns, each with its own scalars, convergence test
and breakdown classification, and drops a column from the block the
moment it terminates.  :func:`pcg` is its one-column call; Krylov
recycling (:func:`repro.streams.recycling_pcg`) hands it a deflation
hook and a Lanczos recorder; :func:`repro.batch.pcg_block` adds the
serving hooks (admission, cancellation, verification, checkpoints) at
the iteration boundary and after the block SpMV.  Because a column's
arithmetic never depends on its neighbours, a block column *is* the
one-column solve, bitwise.

The working blocks ``x``, ``r`` and ``p`` are column-major (Fortran
order), each column one contiguous right-hand side, as are the blocks
the SpMV and the preconditioners return.  So every per-column inner
product, norm and scaling reads a view with the BLAS call the 1-D solve
makes, with no copy, and the block SpMV runs each right-hand side along
contiguous memory.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..errors import AbortSolve, InvalidRequestError, ShapeError
from ..obs.metrics import get_metrics
from ..obs.trace import get_recorder
from ..precond.base import Preconditioner
from ..precond.identity import IdentityPreconditioner
from ..sparse.csr import CSRMatrix
from .result import SolveResult, TerminationReason
from .stopping import StoppingCriterion

__all__ = ["cg", "pcg"]

_CONVERGED = TerminationReason.CONVERGED
_BREAKDOWN = TerminationReason.NUMERICAL_BREAKDOWN


def _prepare(a: CSRMatrix, b: np.ndarray,
             preconditioner: Preconditioner | None,
             criterion: StoppingCriterion | None, x0: np.ndarray | None,
             *, block: bool = False):
    """Validate one solve's arguments the way every CG loop needs them.

    Checks that *a* is square, that *b* has shape ``(n,)`` — or
    ``(n, B)`` with ``block=True``, where a 1-D *b* becomes one column —
    and that the preconditioner's order matches; defaults the
    preconditioner to the identity and the criterion to the paper's;
    and returns ``(b, m, crit, x)`` with ``x`` a fresh iterate in the
    working dtype ``result_type(a, b)``: zeros, or a copy of *x0* after
    checking its shape against *b* and its entries for NaN/Inf.
    """
    n = a.n_rows
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"CG needs a square matrix, got {a.shape}")
    b = np.asarray(b)
    if block:
        if b.ndim == 1:
            b = b[:, None]
        if b.ndim != 2 or b.shape[0] != n:
            raise ShapeError(f"b must have shape ({n}, B), got {b.shape}")
    elif b.shape != (n,):
        raise ShapeError(f"b must have shape ({n},), got {b.shape}")
    m = preconditioner if preconditioner is not None \
        else IdentityPreconditioner(n)
    if m.n != n:
        raise ShapeError("preconditioner order does not match the matrix")
    crit = criterion if criterion is not None \
        else StoppingCriterion.paper_default()
    dtype = np.result_type(a.dtype, b.dtype)
    if x0 is None:
        return b, m, crit, np.zeros(b.shape, dtype=dtype)
    x = np.asarray(x0, dtype=dtype).copy()
    if x.shape != b.shape:
        raise ShapeError(f"x0 must have shape {b.shape}, got {x.shape}")
    if not np.isfinite(x).all():
        raise InvalidRequestError(
            "x0 contains non-finite entries; a NaN/Inf warm start would "
            "silently poison every iterate")
    return b, m, crit, x


def _col(u: np.ndarray, t: int) -> np.ndarray:
    """Column *t* of a block as a contiguous vector, so every reduction
    is the BLAS call a 1-D solve makes (BLAS sums strided views in
    another order, and a last-ulp difference grows into off-by-one
    iteration counts near the threshold).  A view of a column-major
    block, the kernel's own layout; a copy of any other."""
    return np.ascontiguousarray(u[:, t])


def _block(cols) -> np.ndarray:
    """The column-major ``(n, k)`` block of *k* length-``n`` columns."""
    return np.stack(cols).T


def _vdots(u: np.ndarray, v: np.ndarray) -> list:
    """Per-column inner products in the operands' dtype (``vdot`` reads
    a one-column block as its column)."""
    if u.shape[1] == 1:
        return [np.vdot(u, v)]
    return [np.vdot(_col(u, t), _col(v, t)) for t in range(u.shape[1])]


def _dots(u: np.ndarray, v: np.ndarray) -> list[float]:
    if u.shape[1] == 1:
        return [float(np.vdot(u, v))]
    return [float(d) for d in _vdots(u, v)]


def _norms(u: np.ndarray) -> list[float]:
    """Per-column ``sqrt(u·u)`` in the block's dtype: what
    ``np.linalg.norm`` computes (``math.sqrt`` rounds a float64 alike)."""
    return [math.sqrt(d) if d.dtype == np.float64 else float(np.sqrt(d))
            for d in ([np.vdot(u, u)] if u.shape[1] == 1 else _vdots(u, u))]


def _times(s: list[float], u: np.ndarray) -> np.ndarray:
    """``u`` with column ``t`` scaled by ``s[t]`` exactly as a 1-D vector
    times the Python float ``s[t]`` is (a factor in ``u``'s dtype)."""
    return (s[0] if len(s) == 1 else np.array(s, dtype=u.dtype)) * u


def _usable(rz: float) -> bool:
    """Whether ``rᵀz`` can scale a step (nonzero and finite)."""
    return rz != 0.0 and math.isfinite(rz)


def _per_column(f: Callable, u: np.ndarray) -> np.ndarray:
    return _block([f(_col(u, t)) for t in range(u.shape[1])])


class _BlockCG:
    """Algorithm 1 over an ``(n, B)`` working block of columns.

    Each column has its own scalars (Python floats), threshold, budget
    and residual history, and leaves the block (compaction) the moment
    it converges, breaks down or runs out of budget, so no column's
    arithmetic ever depends on another's.  Per-column records are
    indexed by column, in admission order; slot ``t`` of ``x, r, p, rz``
    holds column ``idx[t]``, and ``x, r, p`` stay column-major through
    every admission and compaction.  ``born[j]`` is the boundary column
    ``j`` joined at, ``died[j]`` the last sweep it held a slot in (0 =
    before the first sweep), ``widths`` every sweep's entering width.  A
    frozen column keeps a copy of its iterate, so no retired block
    outlives the sweep that dropped it.  A *deflator*
    (``galerkin(x, r)``, ``project(z)``) and a *lanczos* recorder
    (``alphas``, ``betas``, ``vector(z, rz)``) get one column at a time
    as a 1-D vector.
    """

    def __init__(self, a: CSRMatrix, m: Preconditioner,
                 crit: StoppingCriterion, dtype, deflator=None,
                 lanczos=None):
        self.a, self.m, self.crit, self.dtype = a, m, crit, dtype
        self.deflator, self.lanczos = deflator, lanczos
        self.b_norms: list[float] = []
        self.thresholds: list[float] = []
        self.histories: list[list[float]] = []
        self.reasons: list[TerminationReason] = []
        self.iters: list[int] = []
        self.born: list[int] = []
        self.died: list[int] = []
        self.xs: list[np.ndarray | None] = []
        self.idx: list[int] = []
        self.x = self.r = self.p = np.empty((a.n_rows, 0), dtype=dtype)
        self.w: np.ndarray | None = None
        self.rz: list[float] = []
        self.widths: list[int] = []
        self.abort: AbortSolve | None = None
        self.earliest = 0

    def last_norms(self) -> np.ndarray:
        return np.array([h[-1] for h in self.histories])

    def retire(self, outcomes: list, k_done: int,
               died: int | None = None) -> list[int]:
        """Freeze the slots of ``(slot, reason)`` pairs with the iterate
        and iteration count of sweep *k_done* (*died*, the last sweep
        they held a slot in, defaults to it) and drop them from the
        block; returns the kept slots."""
        for t, reason in outcomes:
            j = self.idx[t]
            self.reasons[j] = reason
            self.iters[j] = k_done - self.born[j]
            self.died[j] = k_done if died is None else died
            self.xs[j] = self.x[:, t].copy()
        gone = {t for t, _ in outcomes}
        keep = [t for t in range(len(self.idx)) if t not in gone]
        self.idx = [self.idx[t] for t in keep]
        self.rz = [self.rz[t] for t in keep]
        self.x, self.r, self.p = (self.x[:, keep], self.r[:, keep],
                                  self.p[:, keep])
        if self.w is not None:
            self.w = self.w[:, keep]
        return keep

    def admit(self, k: int, entries, callback=None) -> None:
        """Start columns at boundary *k*, before sweep *k*.

        *entries* are ``(b, start)`` pairs in column order.  *start*
        ``None`` (zero guess) or an ``(n,)`` warm start runs the
        column's own iteration 0 — residual, *callback* at 0,
        convergence check, preconditioner (one batched apply), breakdown
        check, first direction; a checkpoint (``x, r, p, rz, iters,
        history``) resumes the column where it was captured.  New slots
        take the fresh columns first.
        """
        a, crit, dtype, n = self.a, self.crit, self.dtype, self.a.n_rows
        fresh, saved = [], []
        for b, start in entries:
            resumed = start is not None and not isinstance(start, np.ndarray)
            (saved if resumed else fresh).append((len(self.reasons), b,
                                                  start))
            bn = float(np.linalg.norm(b))
            self.b_norms.append(bn)
            self.thresholds.append(crit.threshold(bn))
            self.reasons.append(TerminationReason.MAX_ITERATIONS)
            self.iters.append(0)
            self.born.append(k - 1 - (start.iters if resumed else 0))
            self.died.append(k - 1)
            self.xs.append(None)
            self.histories.append(
                [float(v) for v in start.history] if resumed else [])
        self.earliest = min(self.born, default=0)
        blocks = [np.empty((n, 0), dtype=dtype)] * 3
        if fresh:
            x = _block([np.zeros(n, dtype=dtype) if s is None else s
                        for _, _, s in fresh])
            b = _block([v for _, v, _ in fresh])
            # r0 = b - A x0  (skip the SpMV for the common zero guess)
            r = b.astype(dtype, copy=False) if not x.any() \
                else b - a.matmat(x)
            if self.deflator is not None:
                x, r = (_block(v) for v in zip(*(
                    self.deflator.galerkin(_col(x, t), _col(r, t))
                    for t in range(x.shape[1]))))
            for (j, _, _), v in zip(fresh, _norms(r)):
                self.histories[j].append(v)
            blocks = [x, r, np.zeros_like(x)]
        if saved:
            blocks = [_block([*blk.T] + [np.asarray(getattr(s, f), dtype=dtype)
                                         for _, _, s in saved])
                      for blk, f in zip(blocks, "xrp")]
        cols = [j for j, _, _ in fresh + saved]
        first = len(self.idx)
        # Joined through the transposes: concatenating two one-column
        # blocks side by side would give a C-ordered block.
        self.x, self.r, self.p = (np.concatenate((old.T, new.T)).T
                                  if first else new for old, new in
                                  zip((self.x, self.r, self.p), blocks))
        self.idx += cols
        self.rz += [math.nan] * len(fresh) + [float(s.rz)
                                               for _, _, s in saved]
        new = range(first, len(self.idx))
        if callback is not None:
            try:
                callback(0, self.last_norms())
            except AbortSolve as exc:
                self.abort = exc
                self.retire([(t, TerminationReason.GUARD_TRIPPED)
                             for t in new], k - 1)
                return
        fresh = {j for j, _, _ in fresh}
        out = []
        for t in new:
            j = self.idx[t]
            v = self.histories[j][-1]
            if math.isfinite(v) and v <= self.thresholds[j]:
                out.append((t, _CONVERGED))
            elif j not in fresh and not _usable(self.rz[t]):
                out.append((t, _BREAKDOWN))
        if out:
            self.retire(out, k - 1)
        slots = [t for t, j in enumerate(self.idx) if j in fresh]
        if not slots:
            return
        r = self.r[:, slots]
        z = self.m.apply(r)
        rz = _dots(r, z)
        if self.lanczos is not None:
            for u, v in enumerate(rz):
                if _usable(v):
                    self.lanczos.vector(_col(z, u), v)
        self.p[:, slots] = z if self.deflator is None \
            else _per_column(self.deflator.project, z)
        for t, v in zip(slots, rz):
            self.rz[t] = v
        out = [(t, _BREAKDOWN) for t, v in zip(slots, rz) if not _usable(v)]
        if out:
            self.retire(out, k - 1)

    def run(self, callback=None, boundary=None, checksum=None) -> None:
        """Sweep until the block is empty.  *boundary(k)* runs before
        sweep ``k`` and may retire or admit columns; *checksum(k)* runs
        right after its SpMV (the product is ``w``) and may retire
        columns at their pre-sweep state.  *callback(k, norms)* follows
        each convergence check; raising :class:`AbortSolve` freezes
        every live column with ``GUARD_TRIPPED`` and ends the run."""
        a, m, max_iters = self.a, self.m, self.crit.max_iters
        deflator, lanczos = self.deflator, self.lanczos
        histories, thresholds = self.histories, self.thresholds
        k = 0
        while True:
            k += 1
            if boundary is not None:
                boundary(k)
            if not self.idx:
                return
            self.widths.append(len(self.idx))
            self.w = a.matmat(self.p)
            if checksum is not None:
                checksum(k)
                if not self.idx:
                    continue
            alpha, out = [], []
            for t, v in enumerate(_dots(self.p, self.w)):
                if 0.0 < v < math.inf:
                    alpha.append(self.rz[t] / v)
                else:
                    # Curvature freezes a column *before* the update: its
                    # iterate keeps k - 1 iterations, no norm appended.
                    out.append((t, TerminationReason.INDEFINITE
                                if math.isfinite(v) else _BREAKDOWN))
            if out:
                self.retire(out, k - 1, k)
                if not self.idx:
                    continue
            if lanczos is not None:
                lanczos.alphas += alpha
            self.x += _times(alpha, self.p)
            self.r -= _times(alpha, self.w)
            self.w = None
            out = []
            for t, v in enumerate(_norms(self.r)):
                j = self.idx[t]
                histories[j].append(v)
                if v <= thresholds[j]:
                    out.append((t, _CONVERGED))
                elif not math.isfinite(v):
                    out.append((t, _BREAKDOWN))
            if callback is not None:
                try:
                    callback(k, self.last_norms())
                except AbortSolve as exc:
                    self.abort = exc
                    self.retire([(t, TerminationReason.GUARD_TRIPPED)
                                 for t in range(len(self.idx))], k)
                    return
            if out:
                self.retire(out, k)
                if not self.idx:
                    continue
            z = m.apply(self.r)
            rz, beta, out = [], [], []
            for t, v in enumerate(_dots(self.r, z)):
                if _usable(v):
                    rz.append(v)
                    beta.append(v / self.rz[t])
                else:
                    out.append((t, _BREAKDOWN))
            if out:
                z = z[:, self.retire(out, k)]
                if not self.idx:
                    continue
            self.rz = rz
            if lanczos is not None:
                lanczos.betas += beta
                for t, v in enumerate(rz):
                    lanczos.vector(_col(z, t), v)
            if deflator is not None:
                z = _per_column(deflator.project, z)
            # Added into the freshly scaled direction, so p stays
            # column-major whatever layout the preconditioner returned.
            p = _times(beta, self.p)
            self.p = np.add(z, p, p)
            # Each column's budget counts from its own start, so a block
            # that admits columns may run more sweeps than any budget.
            if k - self.earliest >= max_iters:
                out = [(t, TerminationReason.MAX_ITERATIONS)
                       for t, j in enumerate(self.idx)
                       if k - self.born[j] >= max_iters]
                if out:
                    self.retire(out, k)


def pcg(a: CSRMatrix, b: np.ndarray, preconditioner: Preconditioner | None
        = None, *, x0: np.ndarray | None = None,
        criterion: StoppingCriterion | None = None,
        callback: Callable[[int, float], None] | None = None) -> SolveResult:
    """Left-preconditioned conjugate gradient (Algorithm 1).

    Parameters
    ----------
    a:
        SPD system matrix in CSR form (symmetry is assumed, not checked —
        use :func:`repro.sparse.is_symmetric` when in doubt).
    b:
        Right-hand side.
    preconditioner:
        Any :class:`~repro.precond.base.Preconditioner`; identity when
        ``None``.
    x0:
        Initial guess (zero vector when ``None``, as in the paper).
    criterion:
        Stopping rule; the paper's ``‖r‖ < 1e-12`` / 1000-iteration cap
        when ``None``.
    callback:
        Invoked as ``callback(k, r_norm)`` after each convergence check.
        A callback may raise :class:`repro.errors.AbortSolve` (or a
        subclass, e.g. a :class:`repro.resilience.GuardTrip`) to stop
        the iteration early; the solve then returns a best-effort
        result with reason ``GUARD_TRIPPED`` and the exception stored
        under ``result.extra["abort"]``.

    Returns
    -------
    SolveResult
        Never raises on non-convergence; inspect ``result.reason``.
    """
    b, m, crit, x = _prepare(a, b, preconditioner, criterion, x0)
    return _solve(a, b, m, crit, x, callback)


def _solve(a: CSRMatrix, b: np.ndarray, m: Preconditioner,
           crit: StoppingCriterion, x: np.ndarray,
           callback: Callable[[int, float], None] | None = None,
           deflator=None, lanczos=None) -> SolveResult:
    """One column through :class:`_BlockCG`, from the validated
    arguments of :func:`_prepare`, with ``pcg``'s trace events and
    metrics — the body of :func:`pcg` and, with a *deflator* and a
    *lanczos* recorder, of :func:`repro.streams.recycling_pcg`."""
    # Observability: one attribute load + branch when disabled (the
    # NULL_RECORDER default), so the untraced loop gets no extra call.
    rec = get_recorder()
    step = None if callback is None \
        else (lambda k, norms: callback(k, float(norms[0])))
    if rec.enabled:
        rec.emit("solve_start", n=a.n_rows, nnz=a.nnz, precond=m.name,
                 max_iters=crit.max_iters,
                 tolerance=crit.threshold(float(np.linalg.norm(b))))
        inner = step

        def step(k, norms):
            if k:
                rec.emit("iteration", k=k, r_norm=float(norms[0]))
            if inner is not None:
                inner(k, norms)

    kern = _BlockCG(a, m, crit, x.dtype, deflator, lanczos)
    kern.admit(1, [(b, x)], step)
    if kern.abort is None:
        kern.run(step)
    res = SolveResult(
        x=kern.xs[0], converged=kern.reasons[0] is _CONVERGED,
        n_iters=kern.iters[0], residual_norms=np.asarray(kern.histories[0]),
        reason=kern.reasons[0], tolerance=kern.thresholds[0],
        extra={"abort": kern.abort} if kern.abort is not None else {})
    if rec.enabled:
        rec.emit("solve_end", converged=res.converged, n_iters=res.n_iters,
                 reason=res.reason.value, final_residual=res.final_residual)
    metrics = get_metrics()
    metrics.inc("pcg.solves")
    metrics.inc("pcg.iterations", res.n_iters)
    if not res.converged:
        metrics.inc(f"pcg.terminations.{res.reason.value}")
    return res


def cg(a: CSRMatrix, b: np.ndarray, **kwargs) -> SolveResult:
    """Unpreconditioned conjugate gradient (PCG with ``M = I``)."""
    return pcg(a, b, None, **kwargs)
