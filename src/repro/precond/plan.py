"""Preconditioner auto-selection: sparsified-ILU vs approximate inverse.

:func:`repro.precond.engine.plan_trisolve` prices two SpTRSV engines
for a fixed factor; this module lifts the same idea one level up and
picks the cheaper *preconditioner family* for a matrix.  The two
families trade against each other exactly the way the paper's
sparsification story predicts:

* **(Sparsified) ILU** — strong preconditioner, few CG iterations, but
  every application pays two wavefront sweeps whose barrier count is a
  property of the elimination DAG and whose cost scales with the
  device's sync latency.
* **SPAI / FSAI** — weaker preconditioner, more iterations, but each
  application is one or two barrier-free SpMVs whose cost is *flat* in
  sync latency, plus a one-time row-parallel least-squares setup.

Which family wins is therefore a joint property of the matrix (how
deep its wavefront structure is, how much a few ILU sweeps help) and
the device (how expensive a barrier is).  The planner resolves it the
same way everything else in the repo is priced: run one cheap probe
solve per candidate to observe the true iteration count, then combine
modeled setup + iterations × modeled per-iteration seconds on the
target device.  The probe solves do not depend on the device, so the
cached preconditioner of a matrix serves every device it is priced on.
:func:`repro.harness.spai_study.run_spai_crossover` sweeps this planner
over matrix categories and sync-cost scalings to reproduce the
crossover map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.csr import CSRMatrix

__all__ = ["AINV_KINDS", "CandidateCost", "PreconditionerPlan",
           "plan_preconditioner"]

#: Members of the approximate-inverse family — probed with plain PCG
#: (no sparsification pass: there is no factorization to protect).
AINV_KINDS = ("spai", "fsai")

#: Default candidate set the planner prices.
DEFAULT_CANDIDATES = ("ilu0", "spai", "fsai")


@dataclass(frozen=True)
class CandidateCost:
    """Modeled end-to-end price of one preconditioner candidate."""

    kind: str
    converged: bool
    iterations: int
    setup_seconds: float
    per_iteration_seconds: float
    apply_sync_barriers: int

    @property
    def total_seconds(self) -> float:
        """Setup plus all iterations; inf when the probe diverged."""
        if not self.converged:
            return float("inf")
        return (self.setup_seconds
                + self.iterations * self.per_iteration_seconds)


@dataclass(frozen=True)
class PreconditionerPlan:
    """Outcome of pricing the candidate families for one matrix.

    ``kind`` is the winner (never a forced choice — the plan *is* the
    resolution); ``candidates`` keeps every candidate's breakdown so
    studies and CI can assert on the gaps, not just the argmin.
    """

    kind: str
    device: str
    candidates: tuple[CandidateCost, ...]

    def candidate(self, kind: str) -> CandidateCost:
        for c in self.candidates:
            if c.kind == kind:
                return c
        raise KeyError(f"no candidate {kind!r} in this plan")

    @property
    def winner(self) -> CandidateCost:
        return self.candidate(self.kind)


def plan_preconditioner(a: CSRMatrix, b: np.ndarray | None = None, *,
                        candidates: tuple[str, ...] = DEFAULT_CANDIDATES,
                        k: int = 1,
                        criterion=None,
                        device=None,
                        seed: int = 0,
                        cache=None) -> PreconditionerPlan:
    """Probe-solve each candidate and pick the cheapest modeled total.

    ILU-family candidates run through :func:`repro.core.spcg.spcg`
    (Algorithm 2 sparsification included, charged to their setup);
    approximate-inverse candidates run plain PCG.  All candidates share
    the right-hand side and stopping criterion so iteration counts are
    comparable.  Candidates whose probe fails to converge (or whose
    construction raises) are kept in the plan with ``inf`` total so the
    study can report *why* a family lost.
    """
    # Lazy imports: machine.kernels and solvers.cg both import
    # precond.base at module scope — a top-level import here would be
    # cyclic through precond/__init__.
    from ..core.spcg import make_preconditioner, spcg
    from ..errors import ReproError
    from ..machine.device import get_device
    from ..machine.kernels import (iteration_cost, time_precond_setup,
                                   time_sparsification)
    from ..solvers.cg import pcg

    device = get_device(device)
    if b is None:
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(a.n_rows)

    costs: list[CandidateCost] = []
    for kind in candidates:
        try:
            if kind in AINV_KINDS:
                m = make_preconditioner(a, kind, k=k, cache=cache)
                solve = pcg(a, b, m, criterion=criterion)
                setup = time_precond_setup(device, m)
            else:
                res = spcg(a, b, preconditioner=kind, k=k,
                           criterion=criterion, cache=cache)
                m, solve = res.preconditioner, res.solve
                setup = (time_sparsification(device, a.nnz)
                         + time_precond_setup(device, m,
                                              sequential=(kind == "iluk")))
            costs.append(CandidateCost(
                kind=kind,
                converged=bool(solve.converged),
                iterations=int(solve.n_iters),
                setup_seconds=float(setup),
                per_iteration_seconds=float(
                    iteration_cost(device, a, m).total),
                apply_sync_barriers=int(m.apply_sync_barriers()),
            ))
        except (ReproError, FloatingPointError, np.linalg.LinAlgError):
            costs.append(CandidateCost(
                kind=kind, converged=False, iterations=0,
                setup_seconds=float("inf"),
                per_iteration_seconds=float("inf"),
                apply_sync_barriers=0))

    best = min(costs, key=lambda c: c.total_seconds)
    return PreconditionerPlan(kind=best.kind, device=device.name,
                              candidates=tuple(costs))
