"""Self-healing policies for the online scheduler.

Three policy knobs, each optional and orthogonal, all on the modeled
clock:

* :class:`RetryPolicy` — checkpointed retries.  It both arms the block
  solver's corruption detectors (ABFT checksums + periodic true-residual
  checks, see :class:`~repro.batch.VerifyConfig`) and governs what
  happens when they — or a device crash — kill a column: a request
  whose failure class is :data:`~repro.resilience.TRANSIENT` is
  re-enqueued after exponential backoff, resuming from its last
  *verified* checkpoint instead of iteration 0.
* :class:`BreakerPolicy` — a per-fingerprint circuit breaker.  Repeated
  transient failures on one matrix open the breaker, which downgrades
  that fingerprint's dispatches one rung down the preconditioner ladder
  :func:`~repro.resilience.precond_ladder` (chosen kind → IC(0) → FSAI
  → Jacobi, the order ``robust_spcg`` falls back in): a cheaper,
  better-conditioned setup that trades iterations for not tripping
  again.  Sustained success after a cooldown closes it back up one rung
  at a time.
* :class:`BrownoutPolicy` — graceful overload degradation.  When the
  queue's modeled backlog-seconds crosses ``enter_backlog_s`` the
  server *browns out*: dispatches run with a loosened tolerance and
  (optionally) a one-rung preconditioner downgrade, shedding accuracy
  instead of requests; it recovers once backlog falls below
  ``exit_backlog_s`` (hysteresis so the mode doesn't flap).

The mutable per-fingerprint breaker state lives in
:class:`CircuitBreaker`; the scheduler owns one per fingerprint and
emits ``breaker_open`` / ``breaker_close`` trace events on every rung
transition.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetryPolicy", "BreakerPolicy", "BrownoutPolicy",
           "CircuitBreaker"]


@dataclass(frozen=True)
class RetryPolicy:
    """Checkpointed-retry knobs.

    Attributes
    ----------
    max_retries:
        Re-dispatch attempts per request after its first; an exhausted
        request completes unconverged with its failure reason intact.
    backoff_base_s:
        Modeled-seconds delay before the first retry; it doubles with
        every further attempt.
    checkpoint_every:
        Period (local sweeps per column) of the block solver's true-
        residual verification; columns that pass are checkpointed, so
        this is also the maximum re-executed work after a fault.
        Checkpoint captures are priced on the modeled clock
        (:func:`~repro.machine.kernels.time_checkpoint`), so cranking
        the frequency up visibly costs modeled time.
    """

    max_retries: int = 2
    backoff_base_s: float = 1e-3
    checkpoint_every: int = 10

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")

    def backoff_s(self, attempt: int) -> float:
        """Delay before retry *attempt* (1-based)."""
        return self.backoff_base_s * 2.0 ** (attempt - 1)


@dataclass(frozen=True)
class BreakerPolicy:
    """Per-fingerprint circuit-breaker knobs.

    ``threshold`` consecutive-ish transient failures (breakdown,
    corruption, crashes) on one fingerprint open the breaker one rung;
    after ``cooldown_s`` modeled seconds of the downgraded configuration
    succeeding, it closes one rung back up.
    """

    threshold: int = 3
    cooldown_s: float = 0.05

    def __post_init__(self):
        if self.threshold < 1:
            raise ValueError("threshold must be positive")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")


@dataclass(frozen=True)
class BrownoutPolicy:
    """Overload-brownout knobs (hysteresis on modeled backlog-seconds).

    ``tolerance_factor`` multiplies the stopping tolerances of
    dispatches made while browned out; ``downgrade`` additionally drops
    one preconditioner rung.  ``exit_backlog_s`` must sit below
    ``enter_backlog_s`` so recovery doesn't oscillate.
    """

    enter_backlog_s: float
    exit_backlog_s: float
    tolerance_factor: float = 100.0
    downgrade: bool = True

    def __post_init__(self):
        if self.enter_backlog_s <= 0:
            raise ValueError("enter_backlog_s must be positive")
        if not 0 <= self.exit_backlog_s < self.enter_backlog_s:
            raise ValueError("exit_backlog_s must lie in "
                             "[0, enter_backlog_s)")
        if self.tolerance_factor < 1.0:
            raise ValueError("tolerance_factor must be >= 1")


class CircuitBreaker:
    """Mutable breaker state for one fingerprint.

    ``rung`` indexes the preconditioner ladder (0 = configured kind).
    :meth:`record_failure` counts trips and opens (rung += 1) at the
    policy threshold; :meth:`record_success` closes one rung once the
    current rung has been open for the cooldown.  Both return ``True``
    on a rung transition so the caller can trace it.
    """

    def __init__(self, policy: BreakerPolicy, n_rungs: int):
        self.policy = policy
        self.n_rungs = max(1, int(n_rungs))
        self.rung = 0
        self.failures = 0
        self.opened_at: float | None = None

    def record_failure(self, now_s: float) -> bool:
        self.failures += 1
        if (self.failures >= self.policy.threshold
                and self.rung < self.n_rungs - 1):
            self.rung += 1
            self.failures = 0
            self.opened_at = now_s
            return True
        return False

    def record_success(self, now_s: float) -> bool:
        self.failures = 0
        if (self.rung > 0 and self.opened_at is not None
                and now_s - self.opened_at >= self.policy.cooldown_s):
            self.rung -= 1
            self.opened_at = now_s if self.rung > 0 else None
            return True
        return False
