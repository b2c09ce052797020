"""Chaos study harness: goodput vs fault rate, self-healing vs fail-fast.

:func:`run_chaos_study` sweeps a seeded per-sweep fault rate over the
same serving workload twice — once with the full self-healing stack
(ABFT + true-residual detection, checkpointed retries, circuit breaker)
and once with retries disabled (the fail-fast baseline) — and reports
*audited* goodput: a request only counts if it completed, claims
convergence, **and** its returned iterate's true residual
``‖b − A·x‖`` actually sits within ``audit_rtol·‖b‖``.  The audit is
what makes the comparison honest: a silently corrupted solve that still
*reports* convergence is a correctness failure, not goodput — exactly
the failure mode the ABFT/checkpoint machinery exists to close.

The whole study runs on the modeled clock with fixed seeds, so the CI
chaos-smoke job can assert a hard goodput floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs.metrics import MetricsRegistry, use_metrics
from ..resilience import FaultPlan
from ..serve import (BatchingWindow, BreakerPolicy, RequestStatus,
                     RetryPolicy, ServeScheduler)
from ..sparse import stencil_poisson_2d

__all__ = ["ChaosStudyRow", "ChaosStudyResult", "run_chaos_study"]


@dataclass
class ChaosStudyRow:
    """One (fault rate, scheduler mode) cell of the study."""

    fault_rate: float
    mode: str  # "self_healing" | "no_retry"
    n_requests: int
    n_good: int  # completed, converged, and passed the residual audit
    n_completed: int
    n_retried: int
    n_recovered: int
    n_faults: int  # fault events fired by the plan
    n_injected: int  # corruptions actually landed on a kernel output
    n_detections: int  # ABFT + true-residual catches
    makespan_s: float

    @property
    def goodput(self) -> float:
        return self.n_good / self.n_requests if self.n_requests else 0.0

    def as_dict(self) -> dict:
        return {"fault_rate": self.fault_rate, "mode": self.mode,
                "n_requests": self.n_requests, "n_good": self.n_good,
                "n_completed": self.n_completed,
                "n_retried": self.n_retried,
                "n_recovered": self.n_recovered,
                "n_faults": self.n_faults,
                "n_injected": self.n_injected,
                "n_detections": self.n_detections,
                "goodput": self.goodput,
                "makespan_s": self.makespan_s}


@dataclass
class ChaosStudyResult:
    """All cells of a fault-rate sweep plus the study's parameters."""

    rows: list[ChaosStudyRow]
    params: dict = field(default_factory=dict)

    def row(self, fault_rate: float, mode: str) -> ChaosStudyRow:
        for r in self.rows:
            if r.mode == mode and abs(r.fault_rate - fault_rate) < 1e-12:
                return r
        raise KeyError(f"no row for rate={fault_rate}, mode={mode}")

    def summary_table(self) -> str:
        """Markdown goodput-vs-fault-rate table (CI step summary)."""
        lines = ["| fault rate | goodput (self-healing) | goodput "
                 "(no retry) | retried | recovered | faults | detected |",
                 "| ---------- | ---------------------- | ----------"
                 "--- | ------- | --------- | ------ | -------- |"]
        rates = sorted({r.fault_rate for r in self.rows})
        for rate in rates:
            heal = self.row(rate, "self_healing")
            base = self.row(rate, "no_retry")
            lines.append(
                f"| {rate:.2%} | {heal.goodput:.3f} | {base.goodput:.3f}"
                f" | {heal.n_retried} | {heal.n_recovered}"
                f" | {heal.n_faults} | {heal.n_detections} |")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {"params": dict(self.params),
                "rows": [r.as_dict() for r in self.rows]}


def _audited_good(a, bs, report, audit_rtol: float) -> int:
    """Count completions whose returned iterate truly solves its
    system — reported convergence is not trusted."""
    good = 0
    for o in report.outcomes:
        if o.status is not RequestStatus.COMPLETED or o.result is None \
                or not o.result.converged:
            continue
        b = bs[o.req_id]
        res = float(np.linalg.norm(b - a.matvec(o.result.x)))
        if res <= audit_rtol * float(np.linalg.norm(b)):
            good += 1
    return good


def run_chaos_study(*, rates=(0.0, 0.02, 0.05, 0.10), side: int = 16,
                    n_requests: int = 32, seed: int = 12345,
                    chaos_seed: int = 7, preconditioner: str = "jacobi",
                    max_batch: int = 8, arrival_spacing_s: float = 2e-4,
                    max_retries: int = 4, checkpoint_every: int = 10,
                    breaker_threshold: int = 4, device: str = "A100",
                    audit_rtol: float = 1e-6) -> ChaosStudyResult:
    """Run the seeded fault-rate sweep.

    For every rate in *rates*, the identical request stream (fixed
    ``seed``) is served twice against the identical fault schedule
    (fixed ``chaos_seed``): once self-healing, once fail-fast.  Each
    cell runs under its own metrics registry so the detection counters
    are per-cell, not cumulative.
    """
    a = stencil_poisson_2d(side)
    rng = np.random.default_rng(seed)
    bs = [rng.standard_normal(a.n_rows) for _ in range(n_requests)]

    def run_cell(rate: float, retry: bool) -> ChaosStudyRow:
        plan = FaultPlan(rate=rate, seed=chaos_seed)
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            sched = ServeScheduler(
                preconditioner=preconditioner, device=device,
                window=BatchingWindow(max_wait_s=arrival_spacing_s / 2,
                                      max_batch=max_batch),
                retry=(RetryPolicy(max_retries=max_retries,
                                   checkpoint_every=checkpoint_every)
                       if retry else None),
                breaker=(BreakerPolicy(threshold=breaker_threshold)
                         if retry else None),
                chaos=plan)
            for i, b in enumerate(bs):
                sched.submit(a, b, tag=f"r{i}",
                             arrival_s=i * arrival_spacing_s)
            report = sched.run()
        if len(report.outcomes) != n_requests:
            raise AssertionError(
                f"silent drop: {len(report.outcomes)} outcomes for "
                f"{n_requests} submissions")
        return ChaosStudyRow(
            fault_rate=rate,
            mode="self_healing" if retry else "no_retry",
            n_requests=n_requests,
            n_good=_audited_good(a, bs, report, audit_rtol),
            n_completed=report.n_completed,
            n_retried=report.n_retried,
            n_recovered=report.n_recovered,
            n_faults=plan.n_events(),
            n_injected=len(plan.injected),
            n_detections=int(metrics.counter("chaos.detections")),
            makespan_s=report.makespan_s)

    rows = [run_cell(float(rate), retry)
            for rate in rates for retry in (True, False)]
    return ChaosStudyResult(
        rows=rows,
        params={"rates": [float(r) for r in rates], "side": side,
                "n": side * side, "n_requests": n_requests,
                "seed": seed, "chaos_seed": chaos_seed,
                "preconditioner": preconditioner, "max_batch": max_batch,
                "max_retries": max_retries,
                "checkpoint_every": checkpoint_every,
                "device": device, "audit_rtol": audit_rtol})
