"""`robust_spcg`: a retry/fallback ladder around the SPCG pipeline.

The paper's protocol simply *drops* configurations that fail to converge
(Section 4).  A production solve cannot: it must degrade gracefully and
report what happened.  :func:`robust_spcg` runs the ladder

    Algorithm-2 chosen ratio → most conservative ratio →
    unsparsified ILU → IC(0) → FSAI → Jacobi → plain CG

with, at every rung, (1) a :class:`~repro.resilience.guards.ResidualGuard`
that aborts diverging or stagnating attempts early, (2) per-attempt
budgets in iterations *and modeled seconds* (priced by the machine
model, so a rung whose per-iteration cost is high gets proportionally
fewer iterations), and (3) in-rung escalation: a zero pivot retries the
same rung once with cuSPARSE-style pivot boosting (:data:`PIVOT_BOOST`),
an IC(0) breakdown once with a Manteuffel diagonal shift
(:data:`IC0_SHIFT`), and a transient failure
(:data:`~repro.resilience.guards.TRANSIENT`) earns one same-rung retry
before the ladder descends.

Below the unsparsified rung the ladder walks :data:`DOWNGRADE`, the one
preconditioner downgrade order, which the serving scheduler's circuit
breaker walks too (:func:`precond_ladder`).

Every attempt is recorded in a structured :class:`RobustSolveReport`
naming its failure class and the rung that finally recovered — the
input the suite aggregates into a failure taxonomy and recovery rate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..core.sparsify import sparsify_magnitude
from ..core.spcg import make_preconditioner
from ..core.wavefront_aware import (SparsificationDecision,
                                    wavefront_aware_sparsify)
from ..errors import ReproError
from ..machine.device import A100, DeviceModel
from ..machine.kernels import iteration_cost
from ..obs.metrics import get_metrics
from ..obs.trace import get_recorder
from ..precond.identity import IdentityPreconditioner
from ..solvers.cg import pcg
from ..solvers.result import SolveResult, TerminationReason
from ..solvers.stopping import StoppingCriterion
from ..sparse.csr import CSRMatrix
from .guards import (TRANSIENT, FailureClass, GuardConfig, ResidualGuard,
                     classify_failure)

__all__ = ["DOWNGRADE", "PIVOT_BOOST", "IC0_SHIFT", "precond_ladder",
           "FallbackRung", "FallbackPolicy", "AttemptRecord",
           "RobustSolveReport", "default_ladder", "robust_spcg"]

#: The preconditioner downgrade order, most capable first.  FSAI sits
#: between IC(0) and Jacobi: it needs no factorization at all (per-row
#: dense solves — a zero pivot cannot occur), its ``Gᵀ G`` operator is
#: SPD by construction, and its barrier-free apply sidesteps the
#: wavefront path entirely — so it catches factorization breakdowns
#: IC(0) shares with ILU while remaining a far stronger rung than bare
#: Jacobi.  SPAI is deliberately absent: its symmetrized fit is not
#: guaranteed SPD, which a *fallback* rung must be.
DOWNGRADE = ("ic0", "fsai", "jacobi")
#: Relative pivot boost of a rung's retry after a zero pivot.
PIVOT_BOOST = 1e-4
#: Relative diagonal shift of an IC(0) rung's retry after a breakdown.
IC0_SHIFT = 1e-2


def precond_ladder(kind: str) -> tuple[str, ...]:
    """*kind* followed by every :data:`DOWNGRADE` entry after it (all of
    them for a kind not in the table), so a rung is never an upgrade of
    the one before it: ``ilu0 → ic0 → fsai → jacobi``,
    ``fsai → jacobi``."""
    rest = DOWNGRADE[DOWNGRADE.index(kind) + 1:] if kind in DOWNGRADE \
        else DOWNGRADE
    return (kind,) + rest


@dataclass(frozen=True)
class FallbackRung:
    """One rung of the ladder.

    Attributes
    ----------
    name:
        Rung identifier — also the scope key fault plans match against.
    method:
        ``"spcg"`` (Algorithm-2 chosen ratio), ``"spcg-fixed"`` (fixed
        *ratio*), ``"pcg"`` (unsparsified preconditioner) or ``"cg"``.
    precond:
        Preconditioner kind for the first three methods.
    ratio:
        Sparsification percentage for ``"spcg-fixed"``.
    k:
        Fill level when *precond* is ``"iluk"``.
    """

    name: str
    method: str
    precond: str | None = None
    ratio: float | None = None
    k: int = 1


def default_ladder(preconditioner: str = "ilu0", *, k: int = 1,
                   ratios: tuple[float, ...] = (10.0, 5.0, 1.0)
                   ) -> tuple[FallbackRung, ...]:
    """The default ladder: chosen ratio → safe ratio → unsparsified →
    the :func:`precond_ladder` downgrades of *preconditioner* → plain
    CG (``ilu0``: ``… → full → ic0 → fsai → jacobi → cg``)."""
    return (
        FallbackRung("spcg", "spcg", preconditioner, k=k),
        FallbackRung("spcg-safe", "spcg-fixed", preconditioner,
                     ratio=float(min(ratios)), k=k),
        FallbackRung("full", "pcg", preconditioner, k=k),
        *(FallbackRung(kind, "pcg", kind)
          for kind in precond_ladder(preconditioner)[1:]),
        FallbackRung("cg", "cg"))


@dataclass(frozen=True)
class FallbackPolicy:
    """Knobs of the fallback ladder.

    Attributes
    ----------
    max_iters_per_attempt:
        Iteration cap per attempt (the criterion's cap when ``None``).
    seconds_budget_per_attempt:
        Modeled wall-clock budget per attempt; translated into an extra
        iteration cap via the machine model's per-iteration cost on
        *device*.  ``None`` disables it.
    device:
        Machine model pricing the seconds budget.
    """

    max_iters_per_attempt: int | None = None
    seconds_budget_per_attempt: float | None = None
    device: DeviceModel = A100


@dataclass(frozen=True)
class AttemptRecord:
    """One attempt of the ladder (one build + solve)."""

    rung: str
    method: str
    preconditioner: str | None
    ratio_percent: float
    converged: bool
    n_iters: int
    final_residual: float
    failure: FailureClass | None
    detail: str = ""
    pivot_boosted: bool = False
    shifted: bool = False
    modeled_seconds: float = float("nan")

    @property
    def failure_name(self) -> str:
        """Taxonomy string (empty when the attempt converged)."""
        return self.failure.value if self.failure is not None else ""


@dataclass
class RobustSolveReport:
    """Structured outcome of :func:`robust_spcg`.

    Attributes
    ----------
    attempts:
        Every attempt in execution order, failed ones included.
    result:
        The converged :class:`SolveResult`, or the best-effort result of
        the attempt with the smallest final residual when nothing
        converged (``None`` only if every attempt died before solving).
    converged:
        Whether any rung met the tolerance.
    recovered_by:
        Name of the rung that converged (``None`` when none did).
    decision:
        Algorithm 2's diagnostic for the first rung (``None`` when the
        ladder never ran an ``"spcg"`` rung).
    """

    attempts: list[AttemptRecord]
    result: SolveResult | None
    converged: bool
    recovered_by: str | None
    decision: SparsificationDecision | None = None

    @property
    def x(self) -> np.ndarray | None:
        """Best-effort solution vector."""
        return self.result.x if self.result is not None else None

    @property
    def n_attempts(self) -> int:
        return len(self.attempts)

    @property
    def recovered(self) -> bool:
        """Converged only after at least one failed attempt."""
        return self.converged and len(self.attempts) > 1

    @property
    def failure_classes(self) -> tuple[str, ...]:
        """Failure-class names of the failed attempts, in order."""
        return tuple(a.failure_name for a in self.attempts
                     if a.failure is not None)

    def summary(self) -> str:
        """One line per attempt, human-readable."""
        lines = []
        for a in self.attempts:
            status = "converged" if a.converged else a.failure_name
            extras = "".join([" [boosted]" if a.pivot_boosted else "",
                              " [shifted]" if a.shifted else ""])
            lines.append(f"{a.rung:10s} {a.method:10s} "
                         f"iters={a.n_iters:4d} "
                         f"residual={a.final_residual:.3e} "
                         f"{status}{extras}")
        tail = (f"recovered by {self.recovered_by!r}" if self.converged
                else "all rungs failed")
        return "\n".join(lines + [tail])


def _attempt_criterion(crit: StoppingCriterion, policy: FallbackPolicy,
                       per_iter_seconds: float) -> StoppingCriterion:
    """Per-attempt stopping rule: tolerance unchanged, cap tightened by
    the policy's iteration and modeled-seconds budgets."""
    cap = policy.max_iters_per_attempt or crit.max_iters
    budget = policy.seconds_budget_per_attempt
    if budget is not None and per_iter_seconds > 0:
        cap = min(cap, max(1, int(budget / per_iter_seconds)))
    if cap == crit.max_iters:
        return crit
    return replace(crit, max_iters=int(cap))


def robust_spcg(a: CSRMatrix, b: np.ndarray, *,
                policy: FallbackPolicy | None = None,
                preconditioner: str = "ilu0", k: int = 1,
                tau: float = 1.0, omega: float = 10.0,
                ratios: tuple[float, ...] = (10.0, 5.0, 1.0),
                criterion: StoppingCriterion | None = None,
                x0: np.ndarray | None = None,
                callback=None, fault_plan=None,
                cache=None) -> RobustSolveReport:
    """Solve ``A x = b``, falling back until something converges.

    Parameters match :func:`repro.core.spcg.spcg` plus:

    policy:
        :class:`FallbackPolicy`: attempt budgets and the pricing device
        (defaults when ``None``).
    callback:
        Chained in front of the health guard of every attempt.
    fault_plan:
        A :class:`~repro.resilience.faults.FaultPlan` threaded through
        every rung (fault scopes match rung names) — the testability
        hook that makes the ladder's recovery claims verifiable.
    cache:
        Forwarded to :func:`~repro.core.spcg.make_preconditioner` on
        every rung: an :class:`~repro.perf.ArtifactCache`, ``False`` to
        bypass caching entirely, or ``None`` for the process default.
        Rungs whose matrix a fault plan actually corrupted bypass the
        cache *unconditionally* — corrupted factors never occupy cache
        slots.  Keys are content-addressed, so a corrupted ``Â`` can
        never *alias* a clean entry either way.

    Returns
    -------
    RobustSolveReport
        Never raises on failure; ``report.converged`` and
        ``report.attempts`` carry the full story.
    """
    policy = policy or FallbackPolicy()
    crit = criterion or StoppingCriterion.paper_default()
    rungs = default_ladder(preconditioner, k=k, ratios=ratios)
    b = np.asarray(b)
    # Guards floored at the stopping threshold, so a solve that has
    # effectively converged is never misread as stagnating.
    guard_cfg = GuardConfig(
        floor=max(0.0, crit.threshold(float(np.linalg.norm(b)))))

    attempts: list[AttemptRecord] = []
    decision: SparsificationDecision | None = None
    best: SolveResult | None = None

    def record(rung: FallbackRung, ratio: float, *, boosted=False,
               shifted=False, solve: SolveResult | None = None,
               exc: BaseException | None = None,
               seconds: float = float("nan")) -> FailureClass | None:
        nonlocal best
        if solve is not None:
            failure = classify_failure(solve)
            n_iters, resid = solve.n_iters, solve.final_residual
            detail = solve.reason.value
            if solve.converged or best is None or (
                    np.isfinite(resid)
                    and resid < (best.final_residual
                                 if np.isfinite(best.final_residual)
                                 else np.inf)):
                best = solve
        else:
            failure = classify_failure(exc)
            n_iters, resid = 0, float("nan")
            detail = f"{type(exc).__name__}: {exc}"
        attempts.append(AttemptRecord(
            rung=rung.name, method=rung.method,
            preconditioner=rung.precond, ratio_percent=ratio,
            converged=solve is not None and solve.converged,
            n_iters=n_iters, final_residual=resid, failure=failure,
            detail=detail, pivot_boosted=boosted, shifted=shifted,
            modeled_seconds=seconds))
        rec = get_recorder()
        if rec.enabled:
            rec.emit("fallback_rung", rung=rung.name, method=rung.method,
                     ratio_percent=ratio,
                     converged=attempts[-1].converged,
                     n_iters=n_iters,
                     failure=attempts[-1].failure_name,
                     detail=detail, boosted=boosted, shifted=shifted,
                     modeled_seconds=seconds)
            if solve is not None and \
                    solve.reason is TerminationReason.GUARD_TRIPPED:
                rec.emit("guard_trip", rung=rung.name,
                         detail=str(solve.extra.get("abort", "")),
                         n_iters=n_iters)
        get_metrics().inc("robust.attempts")
        if failure is not None:
            get_metrics().inc(f"robust.failures.{failure.value}")
        return failure

    def run_once(rung: FallbackRung, *, boosted: bool,
                 shifted: bool) -> FailureClass | None:
        """One build + solve; returns the failure class (None = success)."""
        nonlocal decision
        # -- matrix selection ------------------------------------------
        ratio = 0.0
        rung_cache = cache
        try:
            if rung.method == "spcg":
                if decision is None:
                    decision = wavefront_aware_sparsify(
                        a, tau=tau, omega=omega, ratios=ratios)
                m_mat, ratio = decision.a_hat, decision.chosen_ratio
            elif rung.method == "spcg-fixed":
                ratio = rung.ratio
                m_mat = sparsify_magnitude(a, ratio).a_hat
            else:
                m_mat = a
            if fault_plan is not None and rung.method != "cg":
                corrupted = fault_plan.corrupt_matrix(m_mat, rung.name)
                if corrupted is not m_mat:
                    # The ladder's invariant: corrupted factors never
                    # occupy cache slots.  A fault fired, so this rung's
                    # build bypasses every cache unconditionally.
                    rung_cache = False
                m_mat = corrupted

            # -- preconditioner build ----------------------------------
            if rung.method == "cg":
                m = None
            else:
                kwargs: dict = {"k": rung.k}
                if rung.precond in ("ilu0", "iluk"):
                    kwargs["raise_on_zero_pivot"] = not boosted
                    if boosted:
                        kwargs["pivot_boost"] = PIVOT_BOOST
                if rung.precond == "ic0" and shifted:
                    kwargs["shift"] = IC0_SHIFT
                m = make_preconditioner(m_mat, rung.precond,
                                        cache=rung_cache, **kwargs)
                if fault_plan is not None:
                    m = fault_plan.wrap(m, rung.name)
        except (ReproError, FloatingPointError, ZeroDivisionError) as exc:
            return record(rung, ratio, boosted=boosted, shifted=shifted,
                          exc=exc)

        # -- budgets and solve -----------------------------------------
        cost = iteration_cost(
            policy.device, a,
            m if m is not None else IdentityPreconditioner(a.n_rows)).total
        attempt_crit = _attempt_criterion(crit, policy, cost)
        guard = ResidualGuard(guard_cfg, chain=callback)
        try:
            solve = pcg(a, b, m, criterion=attempt_crit, x0=x0,
                        callback=guard)
        except (ReproError, FloatingPointError, ZeroDivisionError) as exc:
            return record(rung, ratio, boosted=boosted, shifted=shifted,
                          exc=exc)
        return record(rung, ratio, boosted=boosted, shifted=shifted,
                      solve=solve, seconds=solve.n_iters * cost)

    recovered_by: str | None = None
    for rung in rungs:
        boosted = shifted = retried = False
        while True:
            failure = run_once(rung, boosted=boosted, shifted=shifted)
            if failure is None:
                recovered_by = rung.name
                break
            # -- in-rung escalation, each at most once per rung --------
            if failure is FailureClass.ZERO_PIVOT and not boosted \
                    and rung.precond in ("ilu0", "iluk"):
                boosted = True
            elif failure is FailureClass.INDEFINITE and not shifted \
                    and rung.precond == "ic0":
                shifted = True
            elif failure in TRANSIENT and not retried:
                retried = True
            else:
                break
        if recovered_by is not None:
            break

    report = RobustSolveReport(
        attempts=attempts, result=best,
        converged=recovered_by is not None,
        recovered_by=recovered_by, decision=decision)
    metrics = get_metrics()
    metrics.inc("robust.solves")
    if report.converged:
        metrics.inc("robust.converged")
    if report.recovered:
        metrics.inc("robust.recovered")
    return report
