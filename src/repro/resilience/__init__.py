"""Resilience layer: fault injection, breakdown guards, robust solves.

SPCG perturbs the preconditioner on purpose, so breakdown is a design
consequence, not an edge case: sparsification can zero a pivot, degrade
a factor into uselessness, or strip definiteness from ``Â``.  The paper
handles this by dropping non-converging configurations from its
statistics; a production solver must instead degrade gracefully and say
what happened.  This subpackage is the one resilience stack, shared by
``robust_spcg`` and the self-healing serving scheduler:

* :mod:`~repro.resilience.faults` — one deterministic fault injector,
  :class:`FaultPlan`: declared, rung-scoped faults (zeroed pivots,
  corrupted sparsified values, NaN/stuck/frozen preconditioner applies)
  and a seeded per-boundary draw of device faults (stalls, crashes,
  transient and silent kernel corruption), every kernel-output fault
  landing through one operator proxy (:meth:`FaultPlan.wrap`);
* :mod:`~repro.resilience.guards` — residual-stream health monitors
  (divergence, stagnation, NaN) that abort a doomed solve early via the
  solver's callback hook, the breakdown classifier mapping any outcome
  onto the :class:`FailureClass` taxonomy, and :data:`TRANSIENT`, the
  one set of classes worth a re-run;
* :mod:`~repro.resilience.fallback` — :func:`robust_spcg`, a fallback
  ladder (chosen ratio → safe ratio → unsparsified ILU → IC(0) → FSAI
  → Jacobi → CG) with per-attempt iteration/modeled-seconds budgets,
  pivot-boost and diagonal-shift escalation, and a structured
  :class:`RobustSolveReport`; and :data:`DOWNGRADE`, the one
  preconditioner downgrade order, which :func:`precond_ladder` reads
  for both that ladder and the scheduler's circuit breaker.
"""

from .faults import (APPLY_FAULTS, BOUNDARY_FAULTS, MATRIX_FAULTS,
                     FaultEvent, FaultPlan, FaultSpec)
from .guards import (TRANSIENT, FailureClass, GuardConfig, GuardTrip,
                     ResidualGuard, classify_failure)
from .fallback import (DOWNGRADE, AttemptRecord, FallbackPolicy,
                       FallbackRung, RobustSolveReport, default_ladder,
                       precond_ladder, robust_spcg)

__all__ = [
    "FaultSpec",
    "FaultEvent",
    "FaultPlan",
    "MATRIX_FAULTS",
    "APPLY_FAULTS",
    "BOUNDARY_FAULTS",
    "FailureClass",
    "TRANSIENT",
    "GuardTrip",
    "GuardConfig",
    "ResidualGuard",
    "classify_failure",
    "DOWNGRADE",
    "precond_ladder",
    "FallbackRung",
    "FallbackPolicy",
    "AttemptRecord",
    "RobustSolveReport",
    "default_ladder",
    "robust_spcg",
]
