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

This is the one single-vector copy of the loop: Krylov recycling
(:func:`repro.streams.recycling_pcg`) runs it through a deflation hook
and a Lanczos recorder, and the communication-reduced variants of
:mod:`repro.solvers.comm` share its argument checks (:func:`_prepare`)
and hand stalled solves to :func:`pcg`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import AbortSolve, InvalidRequestError, ShapeError
from ..obs.metrics import get_metrics
from ..obs.trace import TraceRecorder, get_recorder
from ..precond.base import Preconditioner
from ..precond.identity import IdentityPreconditioner
from ..sparse.csr import CSRMatrix
from .result import SolveResult, TerminationReason
from .stopping import StoppingCriterion

__all__ = ["cg", "pcg"]


def _finish(rec: TraceRecorder, res: SolveResult) -> SolveResult:
    """Emit the ``solve_end`` event + per-solve metrics; returns *res*."""
    if rec.enabled:
        rec.emit("solve_end", converged=res.converged, n_iters=res.n_iters,
                 reason=res.reason.value, final_residual=res.final_residual)
    metrics = get_metrics()
    metrics.inc("pcg.solves")
    metrics.inc("pcg.iterations", res.n_iters)
    if not res.converged:
        metrics.inc(f"pcg.terminations.{res.reason.value}")
    return res


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
    return _pcg_loop(a, b, m, crit, x, callback)


def _pcg_loop(a: CSRMatrix, b: np.ndarray, m: Preconditioner,
              crit: StoppingCriterion, x: np.ndarray,
              callback: Callable[[int, float], None] | None = None,
              deflator=None, lanczos=None) -> SolveResult:
    """Algorithm 1 from the validated arguments of :func:`_prepare`.

    Two optional hooks turn it into the deflated, harvesting loop of
    :func:`repro.streams.recycling_pcg`; without them it is plain
    ``pcg``.  A *deflator* absorbs its subspace into the start,
    ``x, r = deflator.galerkin(x, r)``, and every preconditioned
    residual passes through ``deflator.project(z)`` before it enters
    the search direction.  A *lanczos* recorder receives each step's
    scalars on its ``alphas`` and ``betas`` lists and each accepted
    ``(z, rᵀz)`` pair through ``lanczos.vector(z, rz)``; it only reads
    what the loop computes.
    """
    n = a.n_rows
    dtype = x.dtype
    b_norm = float(np.linalg.norm(b))
    threshold = crit.threshold(b_norm)

    # Observability: one attribute load + branch per site when disabled
    # (the NULL_RECORDER default), so the iteration hot path stays
    # allocation-free without tracing — the perf-guard invariant.
    rec = get_recorder()
    if rec.enabled:
        rec.emit("solve_start", n=n, nnz=a.nnz, precond=m.name,
                 max_iters=crit.max_iters, tolerance=threshold)

    # r0 = b - A x0  (skip the SpMV for the common zero initial guess)
    r = b.astype(dtype, copy=True) if not x.any() else b - a.matvec(x)
    if deflator is not None:
        x, r = deflator.galerkin(x, r)
    res_norms = [float(np.linalg.norm(r))]
    if callback is not None:
        try:
            callback(0, res_norms[0])
        except AbortSolve as exc:
            return _finish(rec, SolveResult(
                x=x, converged=False, n_iters=0,
                residual_norms=np.array(res_norms),
                reason=TerminationReason.GUARD_TRIPPED,
                tolerance=threshold,
                extra={"abort": exc}))
    if crit.is_met(res_norms[0], b_norm):
        return _finish(rec, SolveResult(
            x=x, converged=True, n_iters=0,
            residual_norms=np.array(res_norms),
            reason=TerminationReason.CONVERGED,
            tolerance=threshold))

    z = m.apply(r)
    rz = float(np.dot(r, z))
    if rz == 0.0 or not np.isfinite(rz):
        return _finish(rec, SolveResult(
            x=x, converged=False, n_iters=0,
            residual_norms=np.array(res_norms),
            reason=TerminationReason.NUMERICAL_BREAKDOWN,
            tolerance=threshold))
    if lanczos is not None:
        lanczos.vector(z, rz)
    p = z.astype(dtype, copy=True) if deflator is None \
        else deflator.project(z)

    reason = TerminationReason.MAX_ITERATIONS
    abort: AbortSolve | None = None
    k = 0
    for k in range(1, crit.max_iters + 1):
        w = a.matvec(p)
        pw = float(np.dot(p, w))
        if not np.isfinite(pw):
            reason = TerminationReason.NUMERICAL_BREAKDOWN
            k -= 1
            break
        if pw <= 0.0:
            reason = TerminationReason.INDEFINITE
            k -= 1
            break
        alpha = rz / pw
        if lanczos is not None:
            lanczos.alphas.append(alpha)
        x += alpha * p
        r -= alpha * w
        r_norm = float(np.linalg.norm(r))
        res_norms.append(r_norm)
        if rec.enabled:
            rec.emit("iteration", k=k, r_norm=r_norm)
        if callback is not None:
            try:
                callback(k, r_norm)
            except AbortSolve as exc:
                reason = TerminationReason.GUARD_TRIPPED
                abort = exc
                break
        if not np.isfinite(r_norm):
            reason = TerminationReason.NUMERICAL_BREAKDOWN
            break
        if crit.is_met(r_norm, b_norm):
            reason = TerminationReason.CONVERGED
            break
        z = m.apply(r)
        rz_new = float(np.dot(r, z))
        if rz_new == 0.0 or not np.isfinite(rz_new):
            reason = TerminationReason.NUMERICAL_BREAKDOWN
            break
        beta = rz_new / rz
        rz = rz_new
        if lanczos is not None:
            lanczos.betas.append(beta)
            lanczos.vector(z, rz)
        p = (z if deflator is None else deflator.project(z)) + beta * p

    return _finish(rec, SolveResult(
        x=x,
        converged=reason is TerminationReason.CONVERGED,
        n_iters=k,
        residual_norms=np.asarray(res_norms),
        reason=reason,
        tolerance=threshold,
        extra={"abort": abort} if abort is not None else {},
    ))


def cg(a: CSRMatrix, b: np.ndarray, **kwargs) -> SolveResult:
    """Unpreconditioned conjugate gradient (PCG with ``M = I``)."""
    return pcg(a, b, None, **kwargs)
