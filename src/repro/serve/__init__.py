"""Online solver serving: queueing, scheduling, continuous batching.

The batch layer (:mod:`repro.batch`) answers "given these requests,
solve them together"; this package answers the *online* question —
requests arrive over time, carry deadlines and priorities, and the
server must decide **when to batch, whom to admit, and what to shed**:

* :class:`RequestQueue` + :class:`AdmissionPolicy` — bounded queue
  with backpressure on depth and on *modeled backlog seconds* (the
  machine model prices queued work, so shedding reacts to load, not
  just count).
* :class:`ServeScheduler` + :class:`BatchingWindow` — groups queued
  requests by matrix fingerprint, dispatches
  :func:`~repro.batch.pcg_block` under a max-wait/max-batch window,
  and **continuously batches**: converged columns free slots that
  same-fingerprint arrivals join at the next iteration boundary, so
  block occupancy stays high without perturbing resident columns.
* :mod:`repro.serve.loadgen` — open-loop Poisson and closed-loop
  workloads with SLO reporting (throughput, goodput under deadline,
  occupancy, latency percentiles on wall and modeled clocks).
* :mod:`repro.serve.healing` — self-healing policies: checkpointed
  retries with exponential backoff (:class:`RetryPolicy`), a
  per-fingerprint circuit breaker walking the one preconditioner
  downgrade ladder, :func:`repro.resilience.precond_ladder`
  (:class:`BreakerPolicy`), and overload brownout that sheds accuracy
  instead of requests (:class:`BrownoutPolicy`); the scheduler's
  ``chaos=`` plan is a :class:`repro.resilience.FaultPlan`, and
  :mod:`repro.chaos` is the acceptance study built on both.
"""

from .healing import (BreakerPolicy, BrownoutPolicy, CircuitBreaker,
                      RetryPolicy)
from .loadgen import LoadSpec, poisson_arrivals, run_loadgen
from .queue import AdmissionPolicy, RequestQueue
from .request import (RequestStatus, ServeOutcome, ServeRequest,
                      validate_rhs)
from .scheduler import (BatchingWindow, DispatchRecord, ServeReport,
                        ServeScheduler, percentile)

__all__ = [
    "validate_rhs",
    "RequestStatus",
    "ServeRequest",
    "ServeOutcome",
    "AdmissionPolicy",
    "RequestQueue",
    "RetryPolicy",
    "BreakerPolicy",
    "BrownoutPolicy",
    "CircuitBreaker",
    "BatchingWindow",
    "DispatchRecord",
    "ServeReport",
    "ServeScheduler",
    "percentile",
    "LoadSpec",
    "poisson_arrivals",
    "run_loadgen",
]
