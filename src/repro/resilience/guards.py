"""Mid-solve health monitoring built on the PCG callback.

Algorithm 1 already reports ``(k, ‖r_k‖)`` after every convergence check;
:class:`ResidualGuard` turns that stream into three online health checks
— NaN/Inf detection, divergence detection, and residual-plateau
(stagnation) detection — and aborts the solve via
:class:`repro.errors.AbortSolve` the moment one trips.  The point of
aborting *early* is budget: a stagnating solve otherwise burns its full
1000-iteration cap before the fallback ladder gets a chance to try a
safer configuration.

:func:`classify_failure` is the breakdown classifier: it maps whatever a
solve attempt produced — a :class:`~repro.solvers.result.SolveResult`
with a non-converged :class:`~repro.solvers.result.TerminationReason`, a
factorization exception, a guard trip — onto the small
:class:`FailureClass` taxonomy the suite aggregates.  :data:`TRANSIENT`
is the one set of classes worth a re-run: the fallback ladder's
same-rung retry and the serving scheduler's checkpointed retry both
read it through :func:`classify_failure`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..errors import (AbortSolve, FillLimitExceeded,
                      NotPositiveDefiniteError, ReproError,
                      SingularFactorError)
from ..solvers.result import SolveResult, TerminationReason

__all__ = ["FailureClass", "TRANSIENT", "GuardTrip", "GuardConfig",
           "ResidualGuard", "classify_failure"]


class FailureClass(enum.Enum):
    """Failure taxonomy of one solve attempt."""

    #: Factorization met a zero (or negligible) pivot.
    ZERO_PIVOT = "zero_pivot"
    #: Indefiniteness detected — non-positive CG curvature or an IC(0)
    #: non-positive pivot (the sparsified Â lost definiteness).
    INDEFINITE = "indefinite"
    #: NaN/Inf appeared in the iteration or the preconditioner apply.
    NAN_OR_INF = "nan_or_inf"
    #: Residual norm grew far beyond its best value (guard-detected).
    DIVERGENCE = "divergence"
    #: Residual plateaued: no meaningful reduction over the guard window.
    STAGNATION = "stagnation"
    #: Iteration budget exhausted without meeting the tolerance.
    NO_CONVERGENCE = "no_convergence"
    #: Symbolic ILU(K) fill exceeded its cap.
    FILL_EXPLOSION = "fill_explosion"
    #: Silent data corruption caught by a detector — ABFT column-
    #: checksum mismatch on the batched SpMV or true-vs-recurrence
    #: residual drift beyond tolerance (bit-flip-style SDC).
    SILENT_CORRUPTION = "silent_corruption"
    #: The (modeled) device crashed outright mid-block; recovery is a
    #: checkpoint restart, not a numerical fallback.
    DEVICE_CRASH = "device_crash"
    #: Anything else the classifier could not name.
    UNKNOWN = "unknown"


#: Failure classes a re-run may survive — the fault may have been
#: transient: the same rung's retry in
#: :func:`~repro.resilience.fallback.robust_spcg`, a checkpointed retry
#: in the serving scheduler.
TRANSIENT = frozenset({FailureClass.NAN_OR_INF,
                       FailureClass.SILENT_CORRUPTION,
                       FailureClass.DEVICE_CRASH})

_BY_REASON = {
    TerminationReason.MAX_ITERATIONS: FailureClass.NO_CONVERGENCE,
    TerminationReason.INDEFINITE: FailureClass.INDEFINITE,
    TerminationReason.NUMERICAL_BREAKDOWN: FailureClass.NAN_OR_INF,
    TerminationReason.CORRUPTED: FailureClass.SILENT_CORRUPTION,
    TerminationReason.DEVICE_CRASH: FailureClass.DEVICE_CRASH,
}


class GuardTrip(AbortSolve):
    """Raised by :class:`ResidualGuard` to abort an unhealthy solve.

    Because it subclasses :class:`repro.errors.AbortSolve`,
    :func:`repro.solvers.pcg` converts it into a ``GUARD_TRIPPED``
    result (keeping the best-effort iterate) rather than propagating.
    """

    def __init__(self, failure: FailureClass, iteration: int,
                 residual: float, detail: str = ""):
        self.failure = failure
        self.iteration = int(iteration)
        self.residual = float(residual)
        super().__init__(
            detail or f"{failure.value} at iteration {iteration} "
                      f"(residual {residual:.3e})")


@dataclass(frozen=True)
class GuardConfig:
    """Tunable thresholds of :class:`ResidualGuard`.

    Attributes
    ----------
    divergence_factor:
        Trip :data:`FailureClass.DIVERGENCE` when ``‖r_k‖`` exceeds this
        multiple of the best residual seen so far.
    stagnation_window:
        Number of *completed* iterations a plateau must span.
    stagnation_improvement:
        Minimum relative reduction required over the window: the guard
        trips :data:`FailureClass.STAGNATION` when
        ``min(recent) > (1 - improvement) · min(older)``.
    floor:
        Residuals at or below this value never trip (set to the stopping
        threshold so a solve that has effectively converged is not
        misread as stagnating).
    min_iterations:
        Grace period before divergence/stagnation checks engage.
    """

    divergence_factor: float = 1e4
    stagnation_window: int = 25
    stagnation_improvement: float = 1e-3
    floor: float = 0.0
    min_iterations: int = 5

    def __post_init__(self):
        if self.divergence_factor <= 1.0:
            raise ValueError("divergence_factor must exceed 1")
        if self.stagnation_window < 2:
            raise ValueError("stagnation_window must be at least 2")
        if not 0.0 < self.stagnation_improvement < 1.0:
            raise ValueError("stagnation_improvement must lie in (0, 1)")


class ResidualGuard:
    """Callback object watching the residual stream of one solve.

    Usage::

        guard = ResidualGuard(GuardConfig(stagnation_window=20))
        result = pcg(a, b, m, callback=guard)
        if result.reason is TerminationReason.GUARD_TRIPPED:
            print(guard.tripped.failure)

    Parameters
    ----------
    config:
        Thresholds; defaults when ``None``.
    chain:
        Optional downstream ``callback(k, r_norm)`` invoked first, so a
        guard composes with user callbacks instead of replacing them.
    """

    def __init__(self, config: GuardConfig | None = None,
                 chain=None):
        self.config = config or GuardConfig()
        self.chain = chain
        self.history: list[float] = []
        self.tripped: GuardTrip | None = None

    def reset(self) -> None:
        self.history.clear()
        self.tripped = None

    def _trip(self, failure: FailureClass, k: int, r_norm: float) -> None:
        self.tripped = GuardTrip(failure, k, r_norm)
        raise self.tripped

    def __call__(self, k: int, r_norm: float) -> None:
        if self.chain is not None:
            self.chain(k, r_norm)
        cfg = self.config
        self.history.append(float(r_norm))
        if not np.isfinite(r_norm):
            self._trip(FailureClass.NAN_OR_INF, k, r_norm)
        if r_norm <= cfg.floor or k < cfg.min_iterations:
            return
        best = min(self.history)
        if r_norm > cfg.divergence_factor * best:
            self._trip(FailureClass.DIVERGENCE, k, r_norm)
        w = cfg.stagnation_window
        if len(self.history) > 2 * w:
            older = min(self.history[:-w])
            recent = min(self.history[-w:])
            if older > 0 and recent > (1.0 - cfg.stagnation_improvement) \
                    * older:
                self._trip(FailureClass.STAGNATION, k, r_norm)


def classify_failure(outcome) -> FailureClass | None:
    """Map a solve outcome onto the :class:`FailureClass` taxonomy.

    Parameters
    ----------
    outcome:
        Either a :class:`~repro.solvers.result.SolveResult` or the
        exception a preconditioner build / solve raised.

    Returns
    -------
    FailureClass | None
        ``None`` for a converged result (no failure to classify).
    """
    if isinstance(outcome, SolveResult):
        if outcome.converged:
            return None
        if outcome.reason is TerminationReason.GUARD_TRIPPED:
            abort = outcome.extra.get("abort")
            if isinstance(abort, GuardTrip):
                return abort.failure
            return FailureClass.UNKNOWN
        return _BY_REASON.get(outcome.reason, FailureClass.UNKNOWN)
    if isinstance(outcome, GuardTrip):
        return outcome.failure
    if isinstance(outcome, SingularFactorError):
        return FailureClass.ZERO_PIVOT
    if isinstance(outcome, NotPositiveDefiniteError):
        return FailureClass.INDEFINITE
    if isinstance(outcome, FillLimitExceeded):
        return FailureClass.FILL_EXPLOSION
    if isinstance(outcome, FloatingPointError):
        return FailureClass.NAN_OR_INF
    if isinstance(outcome, (ReproError, ArithmeticError)):
        return FailureClass.UNKNOWN
    raise TypeError(f"cannot classify {type(outcome).__name__}")
