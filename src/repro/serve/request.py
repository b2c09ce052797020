"""Request and outcome records for the online solver server.

A :class:`ServeRequest` is one ``A x = b`` job with serving metadata —
arrival time, priority, optional deadline — on the **modeled device
clock** (the :mod:`repro.machine` cost model's seconds, the same axis
the scheduler prices block sweeps on).  A :class:`ServeOutcome` is its
terminal record: completed with a :class:`~repro.solvers.result.
SolveResult`, shed by admission control or a queued-deadline expiry, or
cancelled (caller cancellation / mid-solve deadline timeout).

:func:`validate_rhs` is the shared submission-time validator — both
:meth:`repro.batch.SolverService.submit` and
:meth:`repro.serve.ServeScheduler.submit` run it so a malformed
right-hand side fails at the call site that produced it, naming the
offending ``tag``, instead of surfacing mid-dispatch deep inside a
batched block solve.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidRequestError, ShapeError
from ..solvers.result import SolveResult
from ..sparse.csr import CSRMatrix

__all__ = ["validate_rhs", "validate_x0", "RequestStatus", "ServeRequest",
           "ServeOutcome"]


def validate_rhs(a: CSRMatrix, b: np.ndarray, *, tag: str = "") -> np.ndarray:
    """Validate one right-hand side against its matrix at submission.

    Returns ``b`` as a contiguous 1-D :class:`numpy.ndarray`.  Shape
    problems raise :class:`~repro.errors.ShapeError`; a non-numeric
    dtype or NaN/Inf entries raise
    :class:`~repro.errors.InvalidRequestError` naming *tag*.
    """
    if a.shape[0] != a.shape[1]:
        raise ShapeError("solve requests require a square matrix")
    b = np.asarray(b)
    if b.ndim != 1 or b.shape[0] != a.n_rows:
        raise ShapeError(f"b must have shape ({a.n_rows},), got {b.shape}")
    label = f" (tag {tag!r})" if tag else ""
    if not np.issubdtype(b.dtype, np.number):
        raise InvalidRequestError(
            f"request{label}: b has non-numeric dtype {b.dtype}")
    if np.issubdtype(b.dtype, np.complexfloating):
        raise InvalidRequestError(
            f"request{label}: complex right-hand sides are not supported")
    if not np.isfinite(b).all():
        n_bad = int(np.count_nonzero(~np.isfinite(b)))
        raise InvalidRequestError(
            f"request{label}: b contains {n_bad} non-finite "
            f"entr{'y' if n_bad == 1 else 'ies'} (NaN/Inf)")
    return np.ascontiguousarray(b)


def validate_x0(a: CSRMatrix, x0: np.ndarray | None, *,
                tag: str = "") -> np.ndarray | None:
    """Validate an optional warm-start guess at submission time.

    Same contract as :func:`validate_rhs` — shape ``(n,)`` or
    :class:`~repro.errors.ShapeError`, numeric real finite entries or
    :class:`~repro.errors.InvalidRequestError` naming *tag* — so a
    poisoned warm start fails at the call site, not mid-dispatch.
    ``None`` (cold start) passes through.
    """
    if x0 is None:
        return None
    x0 = np.asarray(x0)
    if x0.ndim != 1 or x0.shape[0] != a.n_rows:
        raise ShapeError(
            f"x0 must have shape ({a.n_rows},), got {x0.shape}")
    label = f" (tag {tag!r})" if tag else ""
    if not np.issubdtype(x0.dtype, np.number):
        raise InvalidRequestError(
            f"request{label}: x0 has non-numeric dtype {x0.dtype}")
    if np.issubdtype(x0.dtype, np.complexfloating):
        raise InvalidRequestError(
            f"request{label}: complex warm starts are not supported")
    if not np.isfinite(x0).all():
        n_bad = int(np.count_nonzero(~np.isfinite(x0)))
        raise InvalidRequestError(
            f"request{label}: x0 contains {n_bad} non-finite "
            f"entr{'y' if n_bad == 1 else 'ies'} (NaN/Inf)")
    return np.ascontiguousarray(x0)


class RequestStatus(enum.Enum):
    """Lifecycle state of one serving request."""

    #: Accepted, waiting in the queue for a slot.
    QUEUED = "queued"
    #: Occupying a column of a running block.
    RUNNING = "running"
    #: Solve finished (converged or not — see the result's ``reason``).
    COMPLETED = "completed"
    #: Never ran: rejected at admission or expired/cancelled while
    #: queued (``shed_reason`` says which).
    SHED = "shed"
    #: Ran but was cancelled at an iteration boundary — deadline expiry
    #: (``timed_out``) or caller cancellation (``cancelled``); the
    #: best-effort iterate is retained in the result.
    CANCELLED = "cancelled"


@dataclass
class ServeRequest:
    """One queued/dispatched solve request.

    ``deadline_s`` is an *absolute* modeled-clock deadline: the request
    should be finished by then, or it is shed while queued
    (``deadline_queued``) / cancelled at the next iteration boundary
    while running (``timed_out``).  ``priority`` orders dispatch within
    a fingerprint group (lower value = more urgent; FIFO within a
    priority level).
    """

    req_id: int
    a: CSRMatrix
    b: np.ndarray
    fingerprint: str
    tag: str = ""
    priority: int = 0
    deadline_s: float | None = None
    arrival_s: float = 0.0
    arrival_wall: float = 0.0
    #: Checkpointed CG state (:class:`~repro.batch.CheckpointState`)
    #: to resume from — set by the scheduler's retry path when it
    #: re-enqueues a corrupted/crashed request; ``None`` solves from
    #: scratch.
    restore: object | None = None
    #: Optional warm-start guess, shape ``(n,)`` (validated by
    #: :func:`validate_x0`); ``None`` starts from zero.  Sessions use
    #: this to carry the previous step's solution into the next solve.
    x0: np.ndarray | None = None

    def sort_key(self) -> tuple:
        return (self.priority, self.arrival_s, self.req_id)


@dataclass
class ServeOutcome:
    """Terminal record of one request, on both clocks.

    ``t_*`` fields are modeled-device seconds (absolute, same axis as
    the arrival); ``wall_s`` is the real Python time from submission to
    completion.  Dispatch/completion fields stay ``None`` for shed
    requests — they never held a slot.
    """

    req_id: int
    tag: str
    status: RequestStatus
    fingerprint: str = ""
    result: SolveResult | None = None
    shed_reason: str | None = None
    priority: int = 0
    deadline_s: float | None = None
    t_arrival: float = 0.0
    t_dispatch: float | None = None
    t_complete: float | None = None
    wall_s: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def latency_s(self) -> float:
        """Modeled arrival-to-completion latency (NaN when never ran)."""
        if self.t_complete is None:
            return float("nan")
        return self.t_complete - self.t_arrival

    @property
    def completed(self) -> bool:
        return self.status is RequestStatus.COMPLETED

    @property
    def deadline_met(self) -> bool:
        """Completed, converged, and inside the deadline (vacuously the
        deadline when none was set) — the goodput predicate."""
        if not self.completed or self.result is None:
            return False
        if not self.result.converged:
            return False
        if self.deadline_s is None:
            return True
        assert self.t_complete is not None
        return self.t_complete <= self.deadline_s
