"""Communication-reduced CG variants: pipelined CG and s-step CG.

On one device, a dot product is a kernel-level reduction; on a fleet it
is an **allreduce** whose ring latency grows with the device count.
Algorithm 1 (:func:`~repro.solvers.cg.pcg`) synchronizes three times
per iteration — ``(r, z)``, ``(p, w)`` and the residual-norm check —
which is exactly the term that collapses under inter-device latency.
Following *Communication-reduced Conjugate Gradient Variants for
GPU-accelerated Clusters* (arXiv 2501.03743), this module restructures
the iteration around its synchronization points:

:func:`pipelined_cg`
    Ghysels–Vanroose pipelined PCG: the two dots and the norm check are
    **fused into one allreduce per iteration**, and the recurrence is
    rearranged so that allreduce overlaps the next preconditioner
    application and SpMV (the machine model prices the overlap in
    :func:`repro.fleet.comm_iteration_cost`).  Costs three extra vector
    recurrences per iteration — latency is bought with FLOPs.

:func:`s_step_cg`
    Communication-avoiding s-step PCG: each outer step builds a
    ``2s+1``-vector Krylov basis (monomial, under the preconditioned
    operator ``Q = M⁻¹A``), computes every inner product the next ``s``
    iterations need as **one fused Gram-matrix allreduce**, then runs
    the ``s`` CG updates in coefficient space.  One more reduction per
    outer step verifies the true residual at reconstruction (the
    residual-replacement guard that keeps the monomial basis honest),
    so the variant pays **2 allreduces per s iterations** against
    standard PCG's ``3s``.  At ``s = 1`` the algorithm *is* standard
    PCG — the code path is shared with :func:`~repro.solvers.cg.pcg`,
    so the residual history is reproduced exactly.

Both variants return the same :class:`~repro.solvers.result.SolveResult`
as ``pcg`` with a ``result.extra["comm"]`` dict recording the variant,
the allreduce count, and the scalars moved per fused reduction — the
hooks the fleet cost model and the benchmarks read.  Numerics are
column-independent: a ``(n, B)`` right-hand-side block returns one
result per column (batching changes the *pricing*, never the iterates).

Both variants trade rounding robustness for synchronization: the
pipelined recurrences drift, and the monomial s-step basis conditions
like ``κ(Q)^s`` (a *strong* preconditioner makes ``Q ≈ I`` and the
basis nearly collinear).  Convergence is therefore only ever declared
on a **verified true residual**, and when verification shows a stalled
trajectory the solver degrades gracefully — s-step halves ``s``, and
both variants ultimately fall back to a warm-started standard ``pcg``
for the remaining iteration budget (``extra["comm"]["fallback_iters"]``
reports how many iterations ran at full synchronization).
"""

from __future__ import annotations

import math

import numpy as np

from ..precond.base import Preconditioner
from ..sparse.csr import CSRMatrix
from .cg import _prepare, pcg
from .result import SolveResult, TerminationReason
from .stopping import StoppingCriterion

__all__ = ["pipelined_cg", "s_step_cg"]


def _norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(v))


def _per_column(solve_one, a, b, preconditioner, criterion, x0):
    """Solve an ``(n, B)`` block column by column with *solve_one*,
    after checking the whole block and ``x0`` against each other."""
    b, _, _, x = _prepare(a, b, preconditioner, criterion, x0, block=True)
    return [solve_one(np.ascontiguousarray(b[:, j]),
                      None if x0 is None else x[:, j])
            for j in range(b.shape[1])]


#: A block/verification that fails to shrink the *true* residual below
#: this fraction of the previous verified norm marks a stalled
#: trajectory (the communication-reduced recurrence hit its attainable
#: accuracy floor) and triggers graceful degradation.
_STALL_RATIO = 0.9


class _Run:
    """State one communication-reduced solve shares with its exits: the
    checked problem, the residual history, the ``extra["comm"]``
    counters, and the warm-started ``pcg`` a stalled recurrence hands
    the remaining iteration budget to."""

    def __init__(self, a: CSRMatrix, b: np.ndarray,
                 preconditioner: Preconditioner | None,
                 criterion: StoppingCriterion | None,
                 x0: np.ndarray | None, comm: dict):
        self.a = a
        self.b, self.m, self.crit, self.x = _prepare(
            a, b, preconditioner, criterion, x0)
        self.b_norm = _norm(self.b)
        self.threshold = self.crit.threshold(self.b_norm)
        self.res_norms: list[float] = []
        self.comm = comm

    def finish(self, reason: TerminationReason, iters: int) -> SolveResult:
        return SolveResult(
            x=self.x, converged=reason is TerminationReason.CONVERGED,
            n_iters=iters,
            residual_norms=np.asarray(self.res_norms, dtype=float),
            reason=reason, tolerance=self.threshold,
            extra={"comm": dict(self.comm)})

    def fallback(self, reason: TerminationReason, iters: int) -> SolveResult:
        """Finish a stalled solve with warm-started standard PCG;
        *reason* stands when no iteration budget is left."""
        crit = self.crit
        remaining = crit.max_iters - iters
        if remaining <= 0:
            return self.finish(reason, iters)
        tail = pcg(self.a, self.b, self.m, x0=self.x,
                   criterion=StoppingCriterion(rtol=crit.rtol,
                                               atol=crit.atol,
                                               max_iters=remaining))
        self.x = tail.x
        self.res_norms.extend(tail.residual_norms[1:].tolist())
        self.comm["allreduces"] += 3 * tail.n_iters
        self.comm["fallback_iters"] = tail.n_iters
        return self.finish(tail.reason, iters + tail.n_iters)


# ---------------------------------------------------------------------------
# Pipelined CG (Ghysels & Vanroose)
# ---------------------------------------------------------------------------

def pipelined_cg(a: CSRMatrix, b: np.ndarray,
                 preconditioner: Preconditioner | None = None, *,
                 x0: np.ndarray | None = None,
                 criterion: StoppingCriterion | None = None):
    """Preconditioned pipelined CG: one fused allreduce per iteration.

    The recurrence (Ghysels & Vanroose, 2014) computes ``γ = (r, u)``,
    ``δ = (w, u)`` and ``‖r‖`` in a single fused reduction, then hides
    that allreduce behind ``m = M⁻¹w`` and ``n = A m`` — the two
    operator applications the next iteration needs anyway.  In exact
    arithmetic the iterates equal standard PCG's; in floating point
    they drift by rounding only (the property suite pins agreement to
    1e-8 at convergence).

    Returns a :class:`SolveResult` for a 1-D ``b``, or a list of
    per-column results for an ``(n, B)`` block.
    """
    if np.ndim(b) == 2:
        return _per_column(
            lambda bj, xj: pipelined_cg(a, bj, preconditioner, x0=xj,
                                        criterion=criterion),
            a, b, preconditioner, criterion, x0)
    run = _Run(a, b, preconditioner, criterion, x0,
               {"variant": "pipelined", "allreduces": 0,
                "scalars_per_allreduce": 3, "verifications": 0,
                "fallback_iters": 0})
    b_arr, m, crit, x = run.b, run.m, run.crit, run.x
    comm, res_norms, b_norm = run.comm, run.res_norms, run.b_norm
    n = a.n_rows
    dtype = x.dtype

    r = b_arr.astype(dtype, copy=True) if not x.any() else b_arr - a.matvec(x)
    res_norms.append(_norm(r))
    if crit.is_met(res_norms[0], b_norm):
        return run.finish(TerminationReason.CONVERGED, 0)
    u = m.apply(r)
    w = a.matvec(u)

    z = np.zeros(n, dtype=dtype)
    q = np.zeros(n, dtype=dtype)
    s_vec = np.zeros(n, dtype=dtype)
    p = np.zeros(n, dtype=dtype)
    gamma_old = 0.0
    alpha_old = 0.0
    last_true = None
    reason = TerminationReason.MAX_ITERATIONS
    k = 0
    while k < crit.max_iters:
        k += 1
        # Fused allreduce: γ, δ and the previous residual's norm travel
        # together; it overlaps the M⁻¹w / A(M⁻¹w) applications below.
        gamma = float(np.dot(r, u))
        delta = float(np.dot(w, u))
        comm["allreduces"] += 1
        if gamma == 0.0 or not math.isfinite(gamma):
            return run.fallback(TerminationReason.NUMERICAL_BREAKDOWN,
                                k - 1)
        mw = m.apply(w)
        nw = a.matvec(mw)
        if k > 1:
            beta = gamma / gamma_old
            denom = delta - beta * gamma / alpha_old
        else:
            beta = 0.0
            denom = delta
        # denom equals (p, A p) of the equivalent standard iteration; a
        # non-positive or non-finite value may be genuine indefiniteness
        # or recurrence drift — either way standard PCG is the arbiter.
        if not math.isfinite(denom) or denom <= 0.0:
            return run.fallback(TerminationReason.INDEFINITE, k - 1)
        alpha = gamma / denom
        z = nw + beta * z
        q = mw + beta * q
        s_vec = w + beta * s_vec
        p = u + beta * p
        x += alpha * p
        r -= alpha * s_vec
        u -= alpha * q
        w -= alpha * z
        gamma_old, alpha_old = gamma, alpha
        r_norm = _norm(r)
        res_norms.append(r_norm)
        if not math.isfinite(r_norm):
            if not np.isfinite(x).all():
                reason = TerminationReason.NUMERICAL_BREAKDOWN
                break
            return run.fallback(TerminationReason.NUMERICAL_BREAKDOWN, k)
        if crit.is_met(r_norm, b_norm):
            # Convergence is only declared on a verified true residual
            # (one extra reduction): the pipelined recurrence drifts.
            r_true = b_arr - a.matvec(x)
            true_norm = _norm(r_true)
            comm["verifications"] += 1
            comm["allreduces"] += 1
            res_norms[-1] = true_norm
            if crit.is_met(true_norm, b_norm):
                reason = TerminationReason.CONVERGED
                break
            if last_true is not None and true_norm > _STALL_RATIO * last_true:
                return run.fallback(TerminationReason.MAX_ITERATIONS, k)
            last_true = true_norm
            # Residual replacement: rebuild every recurrence vector from
            # x and p, discarding the accumulated drift.
            r = r_true
            u = m.apply(r)
            w = a.matvec(u)
            s_vec = a.matvec(p)
            q = m.apply(s_vec)
            z = a.matvec(q)
    return run.finish(reason, k)


# ---------------------------------------------------------------------------
# s-step (communication-avoiding) CG
# ---------------------------------------------------------------------------

def _shift_matrix(s: int) -> np.ndarray:
    """Coefficient-space representation of ``Q = M⁻¹A`` on the monomial
    basis ``[p, Qp, …, Qˢp, z, Qz, …, Qˢ⁻¹z]`` (2s+1 vectors).

    ``Q`` shifts within each chain; the top-degree columns are never
    touched by the inner loop (the coefficient degrees stay one below
    the chain tops by construction).
    """
    k = 2 * s + 1
    bmat = np.zeros((k, k))
    for j in range(s):
        bmat[j + 1, j] = 1.0
    for j in range(s - 1):
        bmat[s + 2 + j, s + 1 + j] = 1.0
    return bmat


def s_step_cg(a: CSRMatrix, b: np.ndarray,
              preconditioner: Preconditioner | None = None, *,
              s: int = 2, x0: np.ndarray | None = None,
              criterion: StoppingCriterion | None = None):
    """Communication-avoiding s-step PCG: one Gram allreduce per s
    iterations (plus one true-residual verification per outer step).

    Each outer step builds the monomial basis ``V = [p, Qp, …, Qˢp, z,
    Qz, …, Qˢ⁻¹z]`` with ``Q = M⁻¹A`` and its image ``U = M·V`` (free:
    ``M·Qᵏv = A·Qᵏ⁻¹v`` falls out of the construction, ``M·z = r``, and
    ``M·p`` rides a one-AXPY recurrence).  The cross-Gram ``G = VᵀU``
    prices every M-inner product the next ``s`` CG updates need —
    ``(r, z) = ⟨z, z⟩_M`` and ``(p, Ap) = ⟨p, Qp⟩_M`` become quadratic
    forms of coefficient vectors — while ``H = UᵀU`` yields the
    per-iteration residual norms, all from **one fused allreduce**.
    At reconstruction the true residual ``b − Ax`` is recomputed and
    re-checked (residual replacement), bounding monomial-basis rounding
    across outer steps.

    ``s = 1`` degenerates to standard PCG — one fused reduction per
    iteration with no basis to build — and shares
    :func:`~repro.solvers.cg.pcg`'s code path, reproducing its residual
    history bit for bit.

    Returns a :class:`SolveResult` for a 1-D ``b``, or a list of
    per-column results for an ``(n, B)`` block.
    """
    s = int(s)
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")
    if np.ndim(b) == 2:
        return _per_column(
            lambda bj, xj: s_step_cg(a, bj, preconditioner, s=s, x0=xj,
                                     criterion=criterion),
            a, b, preconditioner, criterion, x0)
    if s == 1:
        res = pcg(a, b, preconditioner, x0=x0, criterion=criterion)
        res.extra["comm"] = {"variant": "s_step", "s": 1,
                             "allreduces": res.n_iters,
                             "scalars_per_allreduce": 3,
                             "blocks": res.n_iters,
                             "fallback_iters": 0, "s_final": 1}
        return res
    k_basis = 2 * s + 1
    run = _Run(a, b, preconditioner, criterion, x0,
               {"variant": "s_step", "s": s, "allreduces": 0,
                "scalars_per_allreduce": k_basis * k_basis, "blocks": 0,
                "fallback_iters": 0, "s_final": s})
    # The coefficient-space recurrences run in at least float64.
    run.x = run.x.astype(np.result_type(run.x.dtype, np.float64),
                         copy=False)
    b_arr, m, crit, x = run.b, run.m, run.crit, run.x
    comm, res_norms, b_norm = run.comm, run.res_norms, run.b_norm
    n = a.n_rows
    dtype = x.dtype
    s_eff = s

    r = b_arr.astype(dtype, copy=True) if not x.any() else b_arr - a.matvec(x)
    res_norms.append(_norm(r))
    if crit.is_met(res_norms[0], b_norm):
        return run.finish(TerminationReason.CONVERGED, 0)
    z = m.apply(r)
    p = z.copy()
    mp = r.copy()          # M·p, maintained alongside p (p₀ = z ⇒ Mp₀ = r)
    bmat = _shift_matrix(s_eff)
    k_eff = k_basis
    last_true = res_norms[0]
    iters = 0
    reason = TerminationReason.MAX_ITERATIONS
    while iters < crit.max_iters:
        comm["blocks"] += 1
        # ---- basis construction: 2s−1 operator applications ----------
        v_basis = np.empty((n, k_eff), dtype=dtype)
        u_basis = np.empty((n, k_eff), dtype=dtype)
        v_basis[:, 0] = p
        u_basis[:, 0] = mp
        for j in range(1, s_eff + 1):
            u_basis[:, j] = a.matvec(v_basis[:, j - 1])
            v_basis[:, j] = m.apply(u_basis[:, j])
        v_basis[:, s_eff + 1] = z
        u_basis[:, s_eff + 1] = r
        for j in range(1, s_eff):
            u_basis[:, s_eff + 1 + j] = a.matvec(v_basis[:, s_eff + j])
            v_basis[:, s_eff + 1 + j] = m.apply(u_basis[:, s_eff + 1 + j])
        # ---- the one allreduce: both Gram matrices travel fused ------
        gram = v_basis.T @ u_basis          # ⟨·,·⟩_M on the basis
        gram = 0.5 * (gram + gram.T)
        hgram = u_basis.T @ u_basis         # Euclidean, for ‖r‖
        hgram = 0.5 * (hgram + hgram.T)
        comm["allreduces"] += 1
        if not (np.isfinite(gram).all() and np.isfinite(hgram).all()):
            return run.fallback(TerminationReason.NUMERICAL_BREAKDOWN,
                                iters)
        # ---- s inner iterations in coefficient space -----------------
        c_p = np.zeros(k_eff)
        c_p[0] = 1.0
        c_z = np.zeros(k_eff)
        c_z[s_eff + 1] = 1.0
        c_x = np.zeros(k_eff)
        gamma = float(c_z @ gram @ c_z)     # (r, z)
        if gamma == 0.0 or not math.isfinite(gamma):
            return run.fallback(TerminationReason.NUMERICAL_BREAKDOWN,
                                iters)
        inner_break = None
        for _ in range(s_eff):
            w_c = bmat @ c_p
            pap = float(c_p @ gram @ w_c)   # (p, A p)
            if not math.isfinite(pap) or pap <= 0.0:
                # Genuine indefiniteness or a collapsed basis — either
                # way the fallback's standard PCG is the arbiter.
                inner_break = TerminationReason.INDEFINITE
                break
            alpha = gamma / pap
            c_x += alpha * c_p
            c_z = c_z - alpha * w_c
            iters += 1
            r_norm = math.sqrt(max(0.0, float(c_z @ hgram @ c_z)))
            res_norms.append(r_norm)
            if not math.isfinite(r_norm):
                inner_break = TerminationReason.NUMERICAL_BREAKDOWN
                break
            if crit.is_met(r_norm, b_norm) or iters >= crit.max_iters:
                break
            gamma_new = float(c_z @ gram @ c_z)
            if gamma_new == 0.0 or not math.isfinite(gamma_new):
                inner_break = TerminationReason.NUMERICAL_BREAKDOWN
                break
            beta = gamma_new / gamma
            gamma = gamma_new
            c_p = c_z + beta * c_p
        # ---- reconstruction + residual replacement -------------------
        x += v_basis @ c_x
        if not np.isfinite(x).all():
            reason = TerminationReason.NUMERICAL_BREAKDOWN
            break
        if inner_break is not None:
            return run.fallback(inner_break, iters)
        # Verify against the true residual (second reduction per outer
        # step): the recurrence norms above came through the monomial
        # Gram matrix, whose conditioning grows like κ(Q)^s.
        r = b_arr - a.matvec(x)
        true_norm = _norm(r)
        comm["allreduces"] += 1
        res_norms[-1] = true_norm
        if not math.isfinite(true_norm):
            reason = TerminationReason.NUMERICAL_BREAKDOWN
            break
        if crit.is_met(true_norm, b_norm):
            reason = TerminationReason.CONVERGED
            break
        z = m.apply(r)
        if true_norm > _STALL_RATIO * last_true:
            # Stalled block: the monomial basis hit its conditioning
            # floor.  Halve s (restarting the search direction from the
            # verified residual); below s=2 hand over to standard PCG.
            last_true = true_norm
            s_eff //= 2
            comm["s_final"] = s_eff
            if s_eff < 2:
                return run.fallback(TerminationReason.MAX_ITERATIONS,
                                    iters)
            bmat = _shift_matrix(s_eff)
            k_eff = 2 * s_eff + 1
            p = z.copy()
            mp = r.copy()
            continue
        last_true = true_norm
        p = v_basis @ c_p
        mp = u_basis @ c_p
    return run.finish(reason, iters)
