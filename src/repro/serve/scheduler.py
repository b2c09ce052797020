"""Online solver scheduler: batching window + continuous batching.

:class:`ServeScheduler` turns the one-shot
:class:`~repro.batch.SolverService` into a server.  Requests arrive on
a modeled-device timeline, wait in a bounded
:class:`~repro.serve.queue.RequestQueue`, and are dispatched as
:func:`~repro.batch.pcg_block` groups keyed by matrix fingerprint:

* **Batching window** — a fingerprint group dispatches when it reaches
  ``max_batch`` members or its oldest request has waited ``max_wait_s``
  (modeled seconds).  ``(max_wait_s=0, max_batch=None)`` is the
  degenerate window: every group dispatches immediately and whole —
  exactly :meth:`SolverService.flush` semantics, which is how the flush
  path now routes through this scheduler.
* **Continuous batching** — via the block solver's
  :data:`~repro.batch.SlotHook`: at every iteration boundary the
  scheduler prices the sweep that just ran at its *actual* width
  (:func:`~repro.machine.kernels.iteration_cost` at ``batch=width``),
  advances the modeled clock, admits newly-arrived same-fingerprint
  requests into slots freed by converged columns, sheds queued requests
  whose deadlines already passed, and cancels running columns whose
  deadlines expired (``timed_out``) — the same rolling-batch discipline
  LLM inference servers use, applied to Krylov solves.

The device executes one block at a time (single-server model): the
modeled clock only advances by priced sweeps and by idling until the
next arrival, so every latency in the :class:`ServeReport` is an
event-driven simulation on the paper's cost model, while wall-clock
timings are measured alongside.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush

import numpy as np

from ..core.spcg import make_preconditioner
from ..errors import QueueFullError
from ..machine.device import DeviceModel, get_device
from ..machine.kernels import (estimate_request_seconds, iteration_cost,
                               time_abft_check, time_checkpoint,
                               time_residual_check)
from ..obs.metrics import get_metrics
from ..obs.trace import get_recorder
from ..perf.cache import ArtifactCache
from ..perf.fingerprint import matrix_fingerprint
from ..resilience import TRANSIENT, classify_failure, precond_ladder
from ..resilience.faults import CRASH_RESTART_SECONDS, STALL_SECONDS
from ..solvers.result import TerminationReason
from ..solvers.stopping import StoppingCriterion
from ..sparse.csr import CSRMatrix
from ..batch.block import SlotDecision, VerifyConfig, pcg_block
from .healing import (BreakerPolicy, BrownoutPolicy, CircuitBreaker,
                      RetryPolicy)
from .queue import AdmissionPolicy, RequestQueue
from .request import (RequestStatus, ServeOutcome, ServeRequest,
                      validate_rhs, validate_x0)

__all__ = ["BatchingWindow", "DispatchRecord", "ServeReport",
           "ServeScheduler", "percentile"]

def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); NaN when empty."""
    vals = sorted(float(v) for v in values if not math.isnan(float(v)))
    if not vals:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(vals)))
    return vals[min(rank, len(vals)) - 1]


def _fmt(v: float, spec: str) -> str:
    """Render a metric for the SLO table; NaN (empty underlying set —
    no completions, no dispatches) renders as ``n/a``, never ``nan``."""
    v = float(v)
    return "n/a" if math.isnan(v) else format(v, spec)


def _json_num(v: float) -> float | None:
    """NaN-free JSON: undefined aggregates serialize as ``null``."""
    v = float(v)
    return None if math.isnan(v) else v


@dataclass(frozen=True)
class BatchingWindow:
    """When a fingerprint group is allowed to dispatch.

    ``max_wait_s``
        Dispatch once the group's oldest request has waited this long
        (modeled seconds).  ``0`` = dispatch immediately.
    ``max_batch``
        Dispatch as soon as this many requests are queued for one
        fingerprint; also the block's slot capacity for continuous
        admission.  ``None`` = unbounded (take the whole group).
    ``continuous``
        Admit same-fingerprint arrivals into freed slots at iteration
        boundaries while a block is running.  ``False`` degrades to
        flush-style batching (the baseline the benchmarks compare
        against).
    """

    max_wait_s: float = 0.0
    max_batch: int | None = None
    continuous: bool = True

    def __post_init__(self):
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")
        if self.max_batch is not None and self.max_batch < 1:
            raise ValueError("max_batch must be positive or None")

    @classmethod
    def degenerate(cls) -> "BatchingWindow":
        """Zero wait, unbounded batch — flush semantics."""
        return cls(max_wait_s=0.0, max_batch=None, continuous=True)


@dataclass
class DispatchRecord:
    """One block dispatch: who ran, how wide, for how long.

    ``widths`` holds the entering width of every sweep; occupancy is
    their mean over the slot ``capacity``, the utilization number
    continuous batching exists to raise.
    """

    fingerprint: str
    t_start: float
    t_end: float
    n_initial: int
    n_admitted: int
    n_timed_out: int
    n_cancelled: int
    sweeps: int
    widths: list[int] = field(default_factory=list)
    capacity: int = 1
    modeled_seconds: float = 0.0
    wall_seconds: float = 0.0
    #: Preconditioner kind this block actually ran with (may sit below
    #: the configured kind when the fingerprint's circuit breaker is
    #: open or the server is browned out).
    kind: str = ""
    #: Whether the dispatch was made under overload brownout (loosened
    #: tolerance / downgraded preconditioner).
    browned_out: bool = False
    #: The underlying block result and the preconditioner it ran with
    #: (``SolverService.flush`` rebuilds its legacy
    #: :class:`~repro.batch.GroupReport` from these without touching
    #: the artifact cache again).
    block: object = field(default=None, repr=False)
    preconditioner: object = field(default=None, repr=False)

    @property
    def n_served(self) -> int:
        return self.n_initial + self.n_admitted

    @property
    def mean_width(self) -> float:
        return (sum(self.widths) / len(self.widths)
                if self.widths else 0.0)

    @property
    def occupancy(self) -> float:
        """Mean slot utilization in [0, 1] across the block's sweeps."""
        if not self.widths or self.capacity <= 0:
            return 0.0
        return self.mean_width / self.capacity


@dataclass
class ServeReport:
    """Aggregate outcome of a serving run (both clocks).

    ``makespan_s`` spans first arrival to last completion on the
    modeled clock; throughput and goodput are completions (resp.
    in-deadline converged completions) per modeled second.
    """

    outcomes: list[ServeOutcome]
    dispatches: list[DispatchRecord]
    makespan_s: float = 0.0

    # -- counts --------------------------------------------------------
    @property
    def n_requests(self) -> int:
        return len(self.outcomes)

    @property
    def n_completed(self) -> int:
        return sum(1 for o in self.outcomes if o.completed)

    @property
    def n_shed(self) -> int:
        return sum(1 for o in self.outcomes
                   if o.status is RequestStatus.SHED)

    @property
    def n_cancelled(self) -> int:
        return sum(1 for o in self.outcomes
                   if o.status is RequestStatus.CANCELLED)

    @property
    def shed_by_reason(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for o in self.outcomes:
            if o.shed_reason is not None:
                out[o.shed_reason] = out.get(o.shed_reason, 0) + 1
        return out

    @property
    def n_deadline_met(self) -> int:
        return sum(1 for o in self.outcomes if o.deadline_met)

    @property
    def n_retried(self) -> int:
        """Requests that needed at least one retry dispatch."""
        return sum(1 for o in self.outcomes
                   if o.extra.get("attempts", 0) > 0)

    @property
    def n_recovered(self) -> int:
        """Requests that resumed from a verified checkpoint."""
        return sum(1 for o in self.outcomes
                   if o.extra.get("recovered", 0) > 0)

    @property
    def goodput_fraction(self) -> float:
        """Deadline-met completions over all submissions (NaN when no
        requests were submitted) — the chaos suite's headline number."""
        if not self.outcomes:
            return float("nan")
        return self.n_deadline_met / self.n_requests

    # -- rates ---------------------------------------------------------
    @property
    def throughput_rps(self) -> float:
        """Completed requests per modeled second."""
        if self.makespan_s <= 0:
            return float("nan")
        return self.n_completed / self.makespan_s

    @property
    def goodput_rps(self) -> float:
        """Converged-within-deadline completions per modeled second."""
        if self.makespan_s <= 0:
            return float("nan")
        return self.n_deadline_met / self.makespan_s

    # -- latency -------------------------------------------------------
    def latency_percentile(self, q: float, *, clock: str = "modeled"
                           ) -> float:
        """p*q* arrival-to-completion latency over completed/cancelled
        requests; *clock* is ``"modeled"`` or ``"wall"``."""
        if clock == "modeled":
            vals = [o.latency_s for o in self.outcomes
                    if o.t_complete is not None]
        elif clock == "wall":
            vals = [o.wall_s for o in self.outcomes
                    if o.t_complete is not None]
        else:
            raise ValueError(f"unknown clock {clock!r}")
        return percentile(vals, q)

    @property
    def mean_occupancy(self) -> float:
        """Sweep-weighted mean slot occupancy across dispatches."""
        num = sum(sum(d.widths) for d in self.dispatches)
        den = sum(d.capacity * d.sweeps for d in self.dispatches)
        return num / den if den else float("nan")

    # -- rendering -----------------------------------------------------
    def slo_table(self) -> str:
        """Markdown SLO summary (CLI output and CI step summaries)."""
        shed = self.shed_by_reason
        shed_txt = ", ".join(f"{k}={v}" for k, v in sorted(shed.items())) \
            or "none"
        rows = [
            ("requests", f"{self.n_requests}"),
            ("completed", f"{self.n_completed}"),
            ("shed", f"{self.n_shed} ({shed_txt})"),
            ("cancelled mid-solve", f"{self.n_cancelled}"),
            ("retried", f"{self.n_retried}"),
            ("recovered from checkpoint", f"{self.n_recovered}"),
            ("deadline met (goodput)", f"{self.n_deadline_met}"),
            ("makespan [model s]", f"{self.makespan_s:.6f}"),
            ("throughput [req/model s]", _fmt(self.throughput_rps, ".1f")),
            ("goodput [req/model s]", _fmt(self.goodput_rps, ".1f")),
            ("mean batch occupancy", _fmt(self.mean_occupancy, ".3f")),
        ]
        for q in (50, 95, 99):
            rows.append((f"p{q} latency [model s]",
                         _fmt(self.latency_percentile(q), ".6f")))
        for q in (50, 95, 99):
            rows.append((f"p{q} latency [wall s]",
                         _fmt(self.latency_percentile(q, clock="wall"),
                              ".6f")))
        width = max(len(k) for k, _ in rows)
        lines = [f"| {'metric'.ljust(width)} | value |",
                 f"| {'-' * width} | ----- |"]
        lines += [f"| {k.ljust(width)} | {v} |" for k, v in rows]
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-serializable summary (benchmarks and ``--json``)."""
        return {
            "n_requests": self.n_requests,
            "n_completed": self.n_completed,
            "n_shed": self.n_shed,
            "n_cancelled": self.n_cancelled,
            "shed_by_reason": self.shed_by_reason,
            "n_retried": self.n_retried,
            "n_recovered": self.n_recovered,
            "n_deadline_met": self.n_deadline_met,
            "makespan_s": self.makespan_s,
            "throughput_rps": _json_num(self.throughput_rps),
            "goodput_rps": _json_num(self.goodput_rps),
            "goodput_fraction": _json_num(self.goodput_fraction),
            "mean_occupancy": _json_num(self.mean_occupancy),
            "latency_modeled_s": {
                f"p{q}": _json_num(self.latency_percentile(q))
                for q in (50, 95, 99)},
            "latency_wall_s": {
                f"p{q}": _json_num(self.latency_percentile(q, clock="wall"))
                for q in (50, 95, 99)},
            "n_dispatches": len(self.dispatches),
        }


class ServeScheduler:
    """Event-driven online solver server on the modeled-device clock.

    Parameters
    ----------
    preconditioner, k, criterion, device, cache:
        As in :class:`~repro.batch.SolverService` (same factorization
        cache, so one factorization per distinct fingerprint holds
        across serving too).
    policy:
        :class:`~repro.serve.queue.AdmissionPolicy`; unbounded when
        ``None``.
    window:
        :class:`BatchingWindow`; the degenerate flush window when
        ``None``.
    prior_iters:
        A-priori iteration-count guess used to price a request of a
        never-before-seen fingerprint for the backlog predicate (the
        per-fingerprint EWMA of observed service times takes over after
        the first dispatch).
    retry:
        :class:`~repro.serve.healing.RetryPolicy` — arms the block
        solver's ABFT/true-residual detectors, checkpoints verified
        columns at iteration boundaries, and re-dispatches corrupted /
        crashed / broken-down requests (a
        :data:`~repro.resilience.TRANSIENT` failure class) from their
        last checkpoint after exponential backoff.  ``None`` disables
        detection and retries (the fail-fast baseline).
    breaker:
        :class:`~repro.serve.healing.BreakerPolicy` — per-fingerprint
        circuit breaker; repeated failures downgrade the fingerprint's
        dispatches down :func:`~repro.resilience.precond_ladder` (kind
        → ic0 → fsai → jacobi), sustained success closes it back up.
    brownout:
        :class:`~repro.serve.healing.BrownoutPolicy` — when modeled
        backlog-seconds crosses the threshold, dispatches run with
        loosened tolerances (and optionally a preconditioner downgrade)
        until the backlog drains: accuracy is shed instead of requests.
    chaos:
        A :class:`~repro.resilience.FaultPlan` whose seeded boundary
        draw (``rate``, ``seed``, ``weights``) injects device faults at
        iteration boundaries — stalls, crashes, transient and silent
        kernel corruption.
    on_complete:
        ``on_complete(outcome)`` called as each request reaches a
        terminal state — the closed-loop load generator submits its
        next arrival from here.

    Two submission modes share :meth:`submit`:

    * **immediate** (``arrival_s=None``): the request arrives *now* on
      the modeled clock and admission control runs synchronously —
      a full queue raises :class:`~repro.errors.QueueFullError`
      (backpressure the caller feels).
    * **deferred** (``arrival_s=t``): the request is scheduled to
      arrive at modeled time ``t``; admission control runs inside
      :meth:`run` at that time, and a rejection becomes a shed
      *outcome* instead of an exception (open-loop load generation).
    """

    def __init__(self, *, preconditioner: str = "ilu0", k: int = 1,
                 criterion: StoppingCriterion | None = None,
                 device: DeviceModel | str | None = None,
                 cache: ArtifactCache | None = None,
                 policy: AdmissionPolicy | None = None,
                 window: BatchingWindow | None = None,
                 prior_iters: int = 100,
                 retry: RetryPolicy | None = None,
                 breaker: BreakerPolicy | None = None,
                 brownout: BrownoutPolicy | None = None,
                 chaos=None,
                 on_complete=None):
        self.kind = preconditioner
        self.k = int(k)
        self.criterion = (criterion if criterion is not None
                          else StoppingCriterion.paper_default())
        self.device = get_device(device)
        self.cache = cache
        self.window = window if window is not None \
            else BatchingWindow.degenerate()
        if prior_iters < 1:
            raise ValueError("prior_iters must be positive")
        self.prior_iters = int(prior_iters)
        self.retry = retry
        self.breaker_policy = breaker
        self.brownout_policy = brownout
        #: Fault injector (a :class:`~repro.resilience.FaultPlan`);
        #: ``None`` serves on a healthy device.
        self.chaos = chaos
        self.on_complete = on_complete
        # Brownout needs the backlog priced even when no backlog-based
        # admission bound is set.
        self.queue = RequestQueue(policy, estimator=self._estimate_seconds,
                                  price_always=brownout is not None)

        self._clock = 0.0
        self._t0_wall = time.perf_counter()
        self._next_id = 0
        self._requests: dict[int, ServeRequest] = {}
        self._status: dict[int, RequestStatus] = {}
        self._outcomes: dict[int, ServeOutcome] = {}
        self._dispatch_clock: dict[int, float] = {}
        self._arrivals: list[tuple[float, int, ServeRequest]] = []
        self._cancel_events: list[tuple[float, int, int]] = []
        self._cancel_seq = 0
        self._dispatches: list[DispatchRecord] = []
        self._ewma_per_rhs: dict[str, float] = {}
        self._first_arrival: float | None = None
        self._ladder = precond_ladder(self.kind)
        self._breakers: dict[str, CircuitBreaker] = {}
        self._brownout_active = False
        self._attempts: dict[int, int] = {}
        self._recovered: dict[int, int] = {}
        self._checkpoints: dict[int, object] = {}

    # -- clock / introspection -----------------------------------------
    @property
    def now_s(self) -> float:
        """Current modeled-device time."""
        return self._clock

    def outcome(self, req_id: int) -> ServeOutcome | None:
        """Terminal record for a request (``None`` while pending)."""
        return self._outcomes.get(req_id)

    def status(self, req_id: int) -> RequestStatus:
        return self._status[req_id]

    def _wall(self) -> float:
        return time.perf_counter() - self._t0_wall

    # -- submission ----------------------------------------------------
    def submit(self, a: CSRMatrix, b: np.ndarray, *, tag: str = "",
               priority: int = 0, deadline_s: float | None = None,
               arrival_s: float | None = None,
               x0: np.ndarray | None = None) -> int:
        """Submit one request; returns its request id.

        Raises :class:`~repro.errors.ShapeError` /
        :class:`~repro.errors.InvalidRequestError` on a malformed
        request and :class:`~repro.errors.QueueFullError` when an
        immediate submission is shed by admission control.
        """
        b = validate_rhs(a, b, tag=tag)
        x0 = validate_x0(a, x0, tag=tag)
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        req_id = self._next_id
        self._next_id += 1
        t_arr = self._clock if arrival_s is None else float(arrival_s)
        req = ServeRequest(req_id=req_id, a=a, b=b,
                           fingerprint=matrix_fingerprint(a), tag=tag,
                           priority=int(priority), deadline_s=deadline_s,
                           arrival_s=t_arr, arrival_wall=self._wall(),
                           x0=x0)
        self._requests[req_id] = req
        if arrival_s is None:
            self._enqueue_or_shed(req, raise_on_shed=True)
        else:
            self._status[req_id] = RequestStatus.QUEUED
            heappush(self._arrivals, (t_arr, req_id, req))
        if self._first_arrival is None or t_arr < self._first_arrival:
            self._first_arrival = t_arr
        return req_id

    def cancel(self, req_id: int, *, at_s: float | None = None) -> bool:
        """Cancel a request.

        With ``at_s`` the cancellation fires at that modeled time
        during :meth:`run` (hitting a queued request sheds it; a
        running column is frozen ``cancelled`` at the next iteration
        boundary).  Without it, a queued request is shed immediately.
        Cancelling a request that already completed is a no-op; returns
        whether the cancellation was scheduled or took effect.
        """
        if req_id not in self._requests:
            raise KeyError(f"unknown request id {req_id}")
        if req_id in self._outcomes:
            return False
        if at_s is not None:
            self._cancel_seq += 1
            heappush(self._cancel_events,
                     (float(at_s), self._cancel_seq, req_id))
            return True
        if req_id in self.queue:
            self.queue.remove(req_id)
            self._shed(self._requests[req_id], "cancelled",
                       kind="queue_cancel")
            return True
        if self._status.get(req_id) is RequestStatus.QUEUED:
            # Awaiting a deferred arrival or a retry backoff: shed now,
            # exactly once — the stale heap entry is tombstoned by the
            # outcome and skipped when it pops.
            self._shed(self._requests[req_id], "cancelled",
                       kind="queue_cancel")
            return True
        return False

    # -- admission -----------------------------------------------------
    def _enqueue_or_shed(self, req: ServeRequest,
                         raise_on_shed: bool = False) -> bool:
        """Run admission control for *req* at the current clock."""
        if req.deadline_s is not None and req.deadline_s <= self._clock:
            self._shed(req, "deadline_queued")
            return False
        reason = self.queue.try_push(req)
        if reason is not None:
            self._shed(req, reason)
            if raise_on_shed:
                raise QueueFullError(reason)
            return False
        self._status[req.req_id] = RequestStatus.QUEUED
        metrics = get_metrics()
        metrics.inc("serve.enqueued")
        metrics.gauge("serve.queue_depth", self.queue.depth)
        metrics.observe("serve.queue_depth_at_enqueue", self.queue.depth)
        rec = get_recorder()
        if rec.enabled:
            rec.emit("queue_enqueue", req_id=req.req_id, tag=req.tag,
                     fingerprint=req.fingerprint, t_model=req.arrival_s,
                     priority=req.priority, deadline_s=req.deadline_s,
                     depth=self.queue.depth,
                     backlog_s=self.queue.backlog_seconds())
        return True

    def _shed(self, req: ServeRequest, reason: str,
              kind: str = "shed") -> None:
        self._status[req.req_id] = RequestStatus.SHED
        out = ServeOutcome(
            req_id=req.req_id, tag=req.tag, status=RequestStatus.SHED,
            fingerprint=req.fingerprint, shed_reason=reason,
            priority=req.priority, deadline_s=req.deadline_s,
            t_arrival=req.arrival_s,
            wall_s=self._wall() - req.arrival_wall)
        self._outcomes[req.req_id] = out
        metrics = get_metrics()
        metrics.inc("serve.shed")
        metrics.inc(f"serve.shed.{reason}")
        metrics.gauge("serve.queue_depth", self.queue.depth)
        rec = get_recorder()
        if rec.enabled:
            rec.emit(kind if kind == "queue_cancel" else "shed",
                     req_id=req.req_id, tag=req.tag, reason=reason,
                     fingerprint=req.fingerprint, t_model=self._clock)
        if self.on_complete is not None:
            self.on_complete(out)

    def _estimate_seconds(self, req: ServeRequest) -> float:
        """Modeled service-seconds estimate for the backlog predicate:
        per-fingerprint EWMA of observed per-request times, machine-
        model a-priori price before the first observation."""
        ewma = self._ewma_per_rhs.get(req.fingerprint)
        if ewma is not None:
            return ewma
        m = make_preconditioner(req.a, self.kind, k=self.k,
                                cache=self.cache)
        iters = min(self.prior_iters, self.criterion.max_iters)
        return estimate_request_seconds(self.device, req.a, m,
                                        iters=iters)

    def _observe_service(self, fingerprint: str, per_rhs_s: float) -> None:
        prev = self._ewma_per_rhs.get(fingerprint)
        self._ewma_per_rhs[fingerprint] = per_rhs_s if prev is None \
            else 0.5 * prev + 0.5 * per_rhs_s

    # -- self-healing state --------------------------------------------
    def _breaker_record(self, fp: str, failed: bool) -> None:
        """Feed one outcome to *fp*'s circuit breaker (made on first
        use); trace the rung transition it causes, if any."""
        if self.breaker_policy is None:
            return
        brk = self._breakers.get(fp)
        if brk is None:
            brk = self._breakers[fp] = CircuitBreaker(
                self.breaker_policy, len(self._ladder))
        if failed:
            moved, what = brk.record_failure(self._clock), "breaker_open"
        else:
            moved, what = brk.record_success(self._clock), "breaker_close"
        if moved:
            get_metrics().inc(f"serve.{what}")
            rec = get_recorder()
            if rec.enabled:
                rec.emit(what, fingerprint=fp, rung=brk.rung,
                         kind=self._ladder[brk.rung], t_model=self._clock)

    def _update_brownout(self) -> bool:
        """Re-evaluate the overload-brownout mode against the queue's
        modeled backlog (hysteresis); traces every transition."""
        pol = self.brownout_policy
        if pol is None:
            return False
        backlog = self.queue.backlog_seconds()
        flipped = None
        if not self._brownout_active and backlog > pol.enter_backlog_s:
            self._brownout_active = flipped = True
        elif self._brownout_active and backlog < pol.exit_backlog_s:
            self._brownout_active = False
            flipped = False
        if flipped is not None:
            metrics = get_metrics()
            metrics.inc("serve.brownout_entered" if flipped
                        else "serve.brownout_exited")
            metrics.gauge("serve.brownout", 1.0 if flipped else 0.0)
            rec = get_recorder()
            if rec.enabled:
                rec.emit("brownout", active=flipped, backlog_s=backlog,
                         tolerance_factor=pol.tolerance_factor,
                         downgrade=pol.downgrade, t_model=self._clock)
        return self._brownout_active

    def _effective_kind(self, fp: str, browned: bool) -> str:
        """Preconditioner rung for this dispatch: configured kind,
        pushed down the ladder by an open breaker and/or brownout."""
        rung = 0
        brk = self._breakers.get(fp)
        if brk is not None:
            rung = brk.rung
        if browned and self.brownout_policy is not None \
                and self.brownout_policy.downgrade:
            rung += 1
        return self._ladder[min(rung, len(self._ladder) - 1)]

    # -- event processing ----------------------------------------------
    def _process_due_events(self, active: set | None = None
                            ) -> list[tuple[int, TerminationReason]]:
        """Process arrivals and cancellations due at the current clock.

        *active* is the key set of the block currently running (if
        any); due cancellations that hit an active column are returned
        for the slot hook to apply, everything else resolves here.
        """
        while self._arrivals and self._arrivals[0][0] <= self._clock:
            _, _, req = heappop(self._arrivals)
            if req.req_id in self._outcomes:
                continue  # cancelled while awaiting arrival/retry
            self._enqueue_or_shed(req)
        for req in self.queue.expire(self._clock):
            self._shed(req, "deadline_queued")
        cancels: list[tuple[int, TerminationReason]] = []
        while (self._cancel_events
               and self._cancel_events[0][0] <= self._clock):
            _, _, rid = heappop(self._cancel_events)
            if rid in self._outcomes:
                continue  # already terminal: cancel is a no-op
            if rid in self.queue:
                self.queue.remove(rid)
                self._shed(self._requests[rid], "cancelled",
                           kind="queue_cancel")
            elif active is not None and rid in active:
                cancels.append((rid, TerminationReason.CANCELLED))
            elif self._status.get(rid) is RequestStatus.QUEUED:
                # Not in the queue, not running: the request is waiting
                # in the arrivals heap (deferred submission or retry
                # backoff).  Shed it exactly once here; its heap entry
                # is now tombstoned by the outcome.
                self._shed(self._requests[rid], "cancelled",
                           kind="queue_cancel")
        return cancels

    def _next_event_time(self) -> float | None:
        cands: list[float] = []
        if self._arrivals:
            cands.append(self._arrivals[0][0])
        if self._cancel_events:
            cands.append(self._cancel_events[0][0])
        nd = self.queue.next_deadline()
        if nd is not None:
            cands.append(nd)
        for fp in self.queue.fingerprints():
            oldest = self.queue.oldest_arrival(fp)
            if oldest is not None:
                cands.append(oldest + self.window.max_wait_s)
        return min(cands) if cands else None

    def _ready_fingerprint(self) -> str | None:
        for fp in self.queue.fingerprints():
            grp = self.queue.group(fp)
            if (self.window.max_batch is not None
                    and len(grp) >= self.window.max_batch):
                return fp
            oldest = self.queue.oldest_arrival(fp)
            # Same expression as _next_event_time's candidate so the
            # clock advancing to it always makes the group ready (a
            # `clock - oldest >= max_wait` form can round below the
            # wait and spin the event loop forever).
            if (oldest is not None
                    and self._clock >= oldest + self.window.max_wait_s):
                return fp
        return None

    # -- main loop -----------------------------------------------------
    def run(self) -> ServeReport:
        """Drive the server until every known arrival is resolved;
        returns the cumulative :class:`ServeReport`."""
        while True:
            self._process_due_events()
            fp = self._ready_fingerprint()
            if fp is not None:
                self._dispatch(fp)
                continue
            t_next = self._next_event_time()
            if t_next is None:
                break
            self._clock = max(self._clock, t_next)
        return self.report()

    def report(self) -> ServeReport:
        outcomes = [self._outcomes[rid]
                    for rid in sorted(self._outcomes)]
        t0 = self._first_arrival or 0.0
        ends = [o.t_complete for o in outcomes if o.t_complete is not None]
        makespan = (max(ends) - t0) if ends else 0.0
        return ServeReport(outcomes=outcomes,
                           dispatches=list(self._dispatches),
                           makespan_s=makespan)

    # -- dispatch ------------------------------------------------------
    def _dispatch(self, fp: str) -> None:
        """Run one block for fingerprint *fp*, driving the slot hook:
        per-sweep clock pricing, continuous admission, deadline
        cancellation."""
        members = self.queue.group(fp)
        if self.window.max_batch is not None:
            members = members[:self.window.max_batch]
        self.queue.take(members)
        a = members[0].a
        browned = self._update_brownout()
        kind = self._effective_kind(fp, browned)
        m = make_preconditioner(a, kind, k=self.k, cache=self.cache)
        crit = self.criterion
        if browned and self.brownout_policy.tolerance_factor > 1.0:
            f = self.brownout_policy.tolerance_factor
            crit = replace(crit, rtol=crit.rtol * f, atol=crit.atol * f)
        verify_cfg = None
        if self.retry is not None:
            verify_cfg = VerifyConfig(
                residual_check_every=self.retry.checkpoint_every)
        # Fault injection rides on the plan's operator proxy; pricing
        # always sees the true operators.
        a_run, m_run = (a, m) if self.chaos is None \
            else (self.chaos.wrap(a), self.chaos.wrap(m))
        # Members resuming from a checkpoint (the retry path) join at
        # the first iteration boundary via the slot hook; fresh members
        # (including from-scratch retries) form the initial block.
        fresh = [r for r in members if r.restore is None]
        pending_resume = [r for r in members if r.restore is not None]
        t_dispatch = self._clock
        metrics = get_metrics()
        rec = get_recorder()
        if rec.enabled:
            rec.emit("batch_start", fingerprint=fp, batch=len(members),
                     n=a.n_rows, nnz=a.nnz, preconditioner=kind,
                     browned_out=browned, t_model=t_dispatch)
        for req in members:
            self._status[req.req_id] = RequestStatus.RUNNING
            self._dispatch_clock[req.req_id] = t_dispatch
            metrics.observe("serve.queue_wait_s",
                            t_dispatch - req.arrival_s)
            if rec.enabled:
                rec.emit("admit", req_id=req.req_id, tag=req.tag,
                         fingerprint=fp, sweep=0, t_model=t_dispatch,
                         mid_block=False)
        metrics.gauge("serve.queue_depth", self.queue.depth)

        n = a.n_rows
        cost_cache: dict[int, float] = {}

        def cost_of(width: int) -> float:
            c = cost_cache.get(width)
            if c is None:
                c = iteration_cost(self.device, a, m, batch=width).total
                if verify_cfg is not None:
                    # The checksum reduction rides on every verified
                    # block SpMV.
                    c += time_abft_check(self.device, n, width)
                cost_cache[width] = c
            return c

        capacity = self.window.max_batch
        clock_after: dict[int, float] = {0: t_dispatch}
        n_admitted = 0
        n_timed_out = 0
        n_cancelled = 0

        def hook(sweep: int, active_keys: tuple,
                 view) -> SlotDecision | None:
            nonlocal n_admitted, n_timed_out, n_cancelled, pending_resume
            if sweep >= 2:
                # Price the sweep that just ran at its entering width.
                self._clock += cost_of(view.width)
                clock_after[sweep - 1] = self._clock
            active = set(active_keys)
            # Boundary verification that just ran inside the block:
            # price the true-residual recomputations and checkpoint
            # every column proven consistent.
            if verify_cfg is not None:
                n_checked = len(view.verified) + sum(
                    1 for d in view.detected if d["method"] == "residual")
                if n_checked:
                    self._clock += time_residual_check(self.device, a,
                                                       batch=n_checked)
                captured = [key for key in view.verified if key in active]
                for key in captured:
                    self._checkpoints[key] = view.capture(key)
                if captured:
                    self._clock += time_checkpoint(self.device, n,
                                                   batch=len(captured))
                    metrics.inc("serve.checkpoints", len(captured))
                    if rec.enabled:
                        rec.emit("checkpoint", fingerprint=fp,
                                 sweep=sweep, keys=list(captured),
                                 t_model=self._clock)
            # Chaos: at most one fault fires per boundary.  Transient
            # and SDC faults arm the plan's operator proxies and land on
            # the next output of their channel — this boundary's
            # admissions, else the next sweep's kernels — never on the
            # detectors, which already ran for this boundary.  Stalls
            # and crashes act on the clock and working set right here.
            if self.chaos is not None:
                event = self.chaos.poll(sweep)
                if event is not None:
                    metrics.inc("chaos.faults")
                    metrics.inc(f"chaos.faults.{event.kind}")
                    if rec.enabled:
                        rec.emit("fault_injected", kind=event.kind,
                                 sweep=sweep, fingerprint=fp,
                                 t_model=self._clock)
                    if event.kind == "stall":
                        self._clock += STALL_SECONDS
                    elif event.kind == "crash":
                        # The device dies: every resident column is
                        # lost (DEVICE_CRASH → checkpointed retry), the
                        # block ends, and the restart penalty is paid.
                        # Resumes not yet admitted re-arrive for the
                        # next dispatch instead of vanishing.
                        self._clock += CRASH_RESTART_SECONDS
                        for req in pending_resume:
                            self._status[req.req_id] = \
                                RequestStatus.QUEUED
                            heappush(self._arrivals,
                                     (self._clock, req.req_id, req))
                        pending_resume = []
                        crash = [(rid, TerminationReason.DEVICE_CRASH)
                                 for rid in active_keys]
                        n_cancelled += len(crash)
                        return SlotDecision(cancel=crash) if crash \
                            else None
            cancels = self._process_due_events(active)
            n_cancelled += len(cancels)
            cancelled_ids = {rid for rid, _ in cancels}
            # Deadline expiry of running columns: frozen at this
            # boundary with the best-effort iterate, reason timed_out.
            for rid in active_keys:
                if rid in cancelled_ids:
                    continue
                dl = self._requests[rid].deadline_s
                if dl is not None and dl <= self._clock:
                    cancels.append((rid, TerminationReason.TIMED_OUT))
                    cancelled_ids.add(rid)
                    n_timed_out += 1
            n_alive = len(active) - len(cancelled_ids)
            admits: list[tuple] = []
            # Checkpoint resumes join at the first boundary; they were
            # dispatch members, so capacity already accounts for them.
            for req in pending_resume:
                admits.append((req.req_id, req.b, req.restore))
                self._recovered[req.req_id] = \
                    self._recovered.get(req.req_id, 0) + 1
                metrics.inc("serve.restarts")
                if rec.enabled:
                    rec.emit("restart", req_id=req.req_id,
                             fingerprint=fp, sweep=sweep,
                             from_iter=req.restore.iters,
                             t_model=self._clock)
            pending_resume = []
            if self.window.continuous:
                for req in self.queue.group(fp):
                    if capacity is not None \
                            and n_alive + len(admits) >= capacity:
                        break
                    self.queue.remove(req.req_id)
                    admits.append((req.req_id, req.b) if req.x0 is None
                                  else (req.req_id, req.b, req.x0))
                    self._status[req.req_id] = RequestStatus.RUNNING
                    self._dispatch_clock[req.req_id] = self._clock
                    n_admitted += 1
                    metrics.inc("serve.admitted_mid_block")
                    metrics.observe("serve.queue_wait_s",
                                    self._clock - req.arrival_s)
                    if rec.enabled:
                        rec.emit("admit", req_id=req.req_id, tag=req.tag,
                                 fingerprint=fp, sweep=sweep,
                                 t_model=self._clock, mid_block=True)
                if admits:
                    metrics.gauge("serve.queue_depth", self.queue.depth)
            if cancels or admits:
                return SlotDecision(admit=admits, cancel=cancels)
            return None

        wall0 = self._wall()
        b0 = (np.column_stack([r.b for r in fresh]) if fresh
              else np.zeros((a.n_rows, 0)))
        x0b = None
        if any(r.x0 is not None for r in fresh):
            x0b = np.column_stack(
                [r.x0 if r.x0 is not None else np.zeros(a.n_rows)
                 for r in fresh])
        block = pcg_block(a_run, b0, m_run, x0=x0b, criterion=crit,
                          slot_hook=hook, keys=[r.req_id for r in fresh],
                          verify=verify_cfg)
        wall_block = self._wall() - wall0

        sv = block.extra["serve"]
        keys, died, widths = sv["keys"], sv["died"], sv["widths"]
        t_end = self._clock
        sweeps = len(widths)
        cap = capacity if capacity is not None \
            else (max(widths) if widths else len(members))
        record = DispatchRecord(
            fingerprint=fp, t_start=t_dispatch, t_end=t_end,
            n_initial=len(members), n_admitted=n_admitted,
            n_timed_out=n_timed_out, n_cancelled=n_cancelled,
            sweeps=sweeps, widths=widths, capacity=cap,
            modeled_seconds=t_end - t_dispatch,
            wall_seconds=wall_block, block=block, preconditioner=m,
            kind=kind, browned_out=browned)
        self._dispatches.append(record)

        latencies = []
        n_conv = 0
        for pos, rid in enumerate(keys):
            req = self._requests[rid]
            res = block.column(pos)
            t_done = clock_after.get(int(died[pos]), t_dispatch)
            transient = classify_failure(res) in TRANSIENT
            if transient:
                self._breaker_record(fp, failed=True)
            if (self.retry is not None and transient
                    and self._attempts.get(rid, 0)
                    < self.retry.max_retries):
                # Checkpointed retry: the request re-arrives after
                # exponential backoff, resuming from its last verified
                # checkpoint (from scratch when none exists yet).  No
                # outcome is recorded — the request is still live; a
                # cancel or deadline landing during the backoff sheds
                # it exactly once via the due-event path.
                attempt = self._attempts.get(rid, 0) + 1
                self._attempts[rid] = attempt
                delay = self.retry.backoff_s(attempt)
                req.restore = self._checkpoints.get(rid)
                self._status[rid] = RequestStatus.QUEUED
                heappush(self._arrivals, (self._clock + delay, rid, req))
                metrics.inc("serve.retry_scheduled")
                metrics.inc(f"serve.retry.{res.reason.value}")
                metrics.observe("serve.retry_backoff_s", delay)
                if rec.enabled:
                    rec.emit("retry", req_id=rid, fingerprint=fp,
                             attempt=attempt, reason=res.reason.value,
                             backoff_s=delay,
                             from_iter=(req.restore.iters
                                        if req.restore is not None
                                        else 0),
                             t_model=self._clock)
                continue
            if res.reason in (TerminationReason.TIMED_OUT,
                              TerminationReason.CANCELLED):
                status = RequestStatus.CANCELLED
                metrics.inc(f"serve.{res.reason.value}")
            else:
                status = RequestStatus.COMPLETED
                metrics.inc("serve.completed")
                if self.retry is not None and transient:
                    metrics.inc("serve.retries_exhausted")
            if res.converged:
                n_conv += 1
                self._breaker_record(fp, failed=False)
            out = ServeOutcome(
                req_id=rid, tag=req.tag, status=status,
                fingerprint=fp, result=res, priority=req.priority,
                deadline_s=req.deadline_s, t_arrival=req.arrival_s,
                t_dispatch=self._dispatch_clock[rid],
                t_complete=t_done,
                wall_s=self._wall() - req.arrival_wall)
            out.extra["attempts"] = self._attempts.get(rid, 0)
            out.extra["recovered"] = self._recovered.get(rid, 0)
            self._status[rid] = status
            self._outcomes[rid] = out
            self._checkpoints.pop(rid, None)
            req.restore = None
            latencies.append(t_done - self._dispatch_clock[rid])
            metrics.observe("serve.latency_modeled_s", out.latency_s)
            metrics.observe("serve.latency_wall_s", out.wall_s)
        if latencies:
            self._observe_service(fp, sum(latencies) / len(latencies))
        metrics.inc("serve.dispatches")
        metrics.inc("pcg.batched_groups")
        metrics.observe("serve.batch_occupancy", record.occupancy)
        metrics.observe_phase("serve_dispatch", wall_block,
                              record.modeled_seconds)
        if rec.enabled:
            rec.emit("batch_end", fingerprint=fp, batch=len(keys),
                     block_iters=block.block_iters, converged=n_conv,
                     modeled_seconds=record.modeled_seconds,
                     modeled_seconds_per_rhs=(
                         record.modeled_seconds / max(1, len(keys))),
                     occupancy=record.occupancy, sweeps=sweeps,
                     admitted_mid_block=n_admitted, t_model=t_end)
        if self.on_complete is not None:
            for rid in keys:
                out = self._outcomes.get(rid)
                if out is not None:  # retried columns are still live
                    self.on_complete(out)
