"""Load generation and SLO measurement for the solver server.

Two canonical arrival disciplines, both on the modeled-device clock:

* **Open loop** (``mode="open"``): a Poisson process — exponential
  inter-arrival gaps at ``rate_rps`` requests per modeled second,
  independent of service progress.  This is the discipline that
  exposes overload: arrivals keep coming whether or not the server
  keeps up, so admission control and deadline shedding actually fire.
* **Closed loop** (``mode="closed"``): ``concurrency`` clients, each
  submitting its next request when its previous one completes (plus
  ``think_s``).  Arrival pressure self-limits to service capacity, so
  this measures best-case latency rather than overload behaviour.

:func:`run_loadgen` drives a :class:`~repro.serve.scheduler.
ServeScheduler` with the generated workload and returns its
:class:`~repro.serve.scheduler.ServeReport` — throughput, goodput
under deadline, batch occupancy, and p50/p95/p99 latency on both the
wall clock and the modeled clock (:meth:`ServeReport.slo_table`
renders the CI summary).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.csr import CSRMatrix
from .scheduler import ServeReport, ServeScheduler

__all__ = ["LoadSpec", "poisson_arrivals", "run_loadgen"]


@dataclass(frozen=True)
class LoadSpec:
    """One load-generation scenario.

    ``deadline_s`` is *relative*: each request's absolute deadline is
    its arrival time plus this.  ``rate_rps`` is ignored in closed-loop
    mode (arrivals are completion-driven); ``concurrency`` and
    ``think_s`` are ignored in open-loop mode.
    """

    n_requests: int
    rate_rps: float = 100.0
    mode: str = "open"
    concurrency: int = 4
    think_s: float = 0.0
    deadline_s: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_requests < 1:
            raise ValueError("n_requests must be positive")
        if self.mode not in ("open", "closed"):
            raise ValueError(f"mode must be 'open' or 'closed', "
                             f"got {self.mode!r}")
        if self.mode == "open" and self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if self.concurrency < 1:
            raise ValueError("concurrency must be positive")
        if self.think_s < 0:
            raise ValueError("think_s must be non-negative")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")


def poisson_arrivals(rate_rps: float, n: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Cumulative arrival times of a Poisson process (modeled s)."""
    gaps = rng.exponential(1.0 / rate_rps, size=n)
    return np.cumsum(gaps)


def _make_request(matrices: list[CSRMatrix],
                  rng: np.random.Generator) -> tuple[CSRMatrix, np.ndarray]:
    a = matrices[int(rng.integers(len(matrices)))]
    b = rng.standard_normal(a.n_rows)
    return a, b


def run_loadgen(scheduler: ServeScheduler, matrices,
                spec: LoadSpec) -> ServeReport:
    """Generate the workload of *spec* over *matrices*, serve it, and
    return the scheduler's report.

    The matrix for each request is drawn uniformly (seeded), the
    right-hand side is standard Gaussian — fixed ``seed`` makes the
    whole run reproducible, which the benchmarks' continuous-versus-
    flush comparisons rely on.
    """
    matrices = list(matrices)
    if not matrices:
        raise ValueError("need at least one matrix")
    rng = np.random.default_rng(spec.seed)

    if spec.mode == "open":
        arrivals = poisson_arrivals(spec.rate_rps, spec.n_requests, rng)
        for i, t in enumerate(arrivals):
            a, b = _make_request(matrices, rng)
            deadline = (float(t) + spec.deadline_s
                        if spec.deadline_s is not None else None)
            scheduler.submit(a, b, tag=f"open-{i}", arrival_s=float(t),
                             deadline_s=deadline)
        return scheduler.run()

    # Closed loop: prime one request per client, then each completion
    # (at dispatch granularity — a column's outcome is visible when its
    # block finishes) triggers that client's next submission.
    state = {"submitted": 0}
    prev_hook = scheduler.on_complete

    def submit_next(t_arrival: float) -> None:
        i = state["submitted"]
        state["submitted"] += 1
        a, b = _make_request(matrices, rng)
        deadline = (t_arrival + spec.deadline_s
                    if spec.deadline_s is not None else None)
        scheduler.submit(a, b, tag=f"closed-{i}", arrival_s=t_arrival,
                         deadline_s=deadline)

    def on_complete(outcome) -> None:
        if prev_hook is not None:
            prev_hook(outcome)
        if state["submitted"] >= spec.n_requests:
            return
        t_done = (outcome.t_complete if outcome.t_complete is not None
                  else scheduler.now_s)
        submit_next(t_done + spec.think_s)

    scheduler.on_complete = on_complete
    try:
        for _ in range(min(spec.concurrency, spec.n_requests)):
            submit_next(0.0)
        return scheduler.run()
    finally:
        scheduler.on_complete = prev_hook

