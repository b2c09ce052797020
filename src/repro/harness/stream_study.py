"""Amortized-stream macro-benchmark: HPCG-style end-to-end accounting.

The headline question of ROADMAP open item 3: on a *drifting*
heat-equation stream, does a full :class:`repro.streams.SolveSession`
(warm starts + staleness-gated factor reuse + Krylov recycling) beat
cold per-step solves on **modeled end-to-end seconds** — setup plus
solve plus verification, HPCG discipline (*Effective implementation of
the HPCG benchmark on GraphBLAS*, arXiv 2304.08232): every step's
final residual is re-verified against the true matrix, and a run with
an unverified step does not get a headline at all.

The cold baseline is the same session machinery with every
amortization lever off — zero initial guesses, no recycling, and
``StalenessConfig(force="refactor")`` so each step pays the full
Algorithm-2 sparsification and factorization, exactly what dispatching
each step through the one-shot path costs.

A second, identical-matrix stream checks the recycling contract
directly: deflated solves must match plain ``pcg`` to 1e-8 and take no
more iterations (the property the deflation theory promises and
``BENCH_stream.json`` asserts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.spcg import make_preconditioner
from ..datasets.generators import _grid_edges_2d, _spd_from_edges
from ..machine.device import DeviceModel, get_device
from ..solvers.cg import pcg
from ..solvers.stopping import StoppingCriterion
from ..sparse import add, diags
from ..sparse.csr import CSRMatrix
from ..streams import (DriftSchedule, SessionReport, SolveSession,
                       StalenessConfig, recycling_pcg)
from .report import render_table

__all__ = ["StreamStudyResult", "build_heat_stream_operator",
           "run_stream_study"]


def build_heat_stream_operator(side: int, dt: float, seed: int = 0,
                               sink: float = 0.5) -> CSRMatrix:
    """``M + Δt·K`` heat operator on a 2-D plate with a two-phase
    conductivity field and weak diagonal seams (the structure
    Algorithm 2's sparsification cuts) — the stream workload of
    ``examples/heat_equation.py``.

    ``sink`` adds a uniform convective heat-loss term to the stiffness
    diagonal.  Without it the seam-cut plate has near-floating blocks
    (modes with ``λ ≈ 0`` whose transients decay like
    ``(1 + Δt·λ)⁻¹ ≈ 1`` per step, i.e. never), so no steady state is
    approached and consecutive solutions stay far apart; with it the
    stream converges toward ``K u_∞ = f`` — the regime session
    amortization targets.
    """
    rng = np.random.default_rng(seed)
    n = side * side
    kappa = np.where(rng.random((side, side)) < 0.25, 20.0, 1.0).ravel()
    i, j, _ = _grid_edges_2d(side, side)
    w = 0.5 * (kappa[i] + kappa[j]) * rng.lognormal(0, 0.5, size=i.size)
    s = np.arange(n) // side + np.arange(n) % side
    for c in (0.45, 0.75):
        crossing = (s[i] < c * s.max()) != (s[j] < c * s.max())
        w = np.where(crossing, 1e-4 * w, w)
    k_matrix = _spd_from_edges(i, j, w, n, dominance=1e-6)
    mass = diags({0: np.full(n, 1.0 / dt + sink)}, n)
    return add(mass, k_matrix)


@dataclass
class StreamStudyResult:
    """Outcome of one warm-vs-cold stream comparison."""

    n: int
    nnz: int
    n_steps: int
    dt: float
    device: str
    drift: DriftSchedule
    warm: SessionReport
    cold: SessionReport
    #: Identical-matrix recycling contract: worst relative solution
    #: mismatch between deflated and plain ``pcg`` across the check
    #: stream, and the worst iteration excess (deflated − plain;
    #: ≤ 0 means recycling never iterated more).
    deflation_mismatch: float = 0.0
    deflation_iter_excess: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def warm_seconds(self) -> float:
        return self.warm.modeled_seconds

    @property
    def cold_seconds(self) -> float:
        return self.cold.modeled_seconds

    @property
    def speedup(self) -> float:
        """Cold / warm modeled end-to-end seconds — the headline."""
        return (self.cold_seconds / self.warm_seconds
                if self.warm_seconds > 0 else float("inf"))

    @property
    def warm_iterations(self) -> int:
        return self.warm.total_iterations

    @property
    def cold_iterations(self) -> int:
        return self.cold.total_iterations

    @property
    def all_verified(self) -> bool:
        """Every step of *both* streams re-verified its true residual."""
        return self.warm.all_verified and self.cold.all_verified

    def summary(self) -> str:
        """Rendered ledger + headline for CLI / CI step summaries."""
        rows = []
        for label, rep in (("cold", self.cold), ("warm", self.warm)):
            acts = rep.actions
            rows.append([
                label, rep.n_steps, rep.total_iterations,
                acts.get("reuse", 0), acts.get("refresh", 0),
                acts.get("refactor", 0) + acts.get("setup", 0),
                f"{rep.modeled_seconds:.3e}",
                "yes" if rep.all_verified else "NO",
            ])
        table = render_table(
            ["stream", "steps", "iters", "reuse", "refresh", "factor",
             "modeled (s)", "verified"],
            rows,
            title=f"drifting heat stream, n={self.n} (nnz={self.nnz}), "
                  f"{self.n_steps} steps on the {self.device} model")
        head = (f"\nend-to-end speedup (cold / warm): ×{self.speedup:.2f}"
                f"\nrecycling contract: worst deflated-vs-pcg mismatch "
                f"{self.deflation_mismatch:.2e}, worst iteration excess "
                f"{self.deflation_iter_excess:+d}")
        return table + "\n" + self.warm.amortization_table() + head


def _run_stream(session: SolveSession, matrices: list[CSRMatrix],
                u0: np.ndarray, dt: float,
                forcing: np.ndarray) -> None:
    """Drive one session over the precomputed matrix stream with
    backward-Euler right-hand sides ``b_t = u_{t−1} / Δt + f``.

    The constant source ``f`` pulls the plate toward a steady state, so
    consecutive solutions converge toward each other — the regime where
    a warm start pays (the initial residual shrinks geometrically with
    the transient) while a cold zero start pays the full relative
    reduction at every step.
    """
    u = u0
    for s, a_t in enumerate(matrices, start=1):
        rec = session.step(a_t, u / dt + forcing, tag=f"t{s}")
        u = rec.result.x


def _deflation_contract(a: CSRMatrix, kind: str, recycle: int,
                        crit: StoppingCriterion, n_checks: int,
                        seed: int) -> tuple[float, int]:
    """Identical-matrix stream: deflated vs plain ``pcg`` per step."""
    rng = np.random.default_rng(seed)
    m = make_preconditioner(a, kind, cache=False)
    basis = None
    worst_mismatch, worst_excess = 0.0, -(1 << 30)
    for _ in range(n_checks):
        b = rng.standard_normal(a.n_rows)
        plain = pcg(a, b, m, criterion=crit)
        defl, new_basis = recycling_pcg(a, b, m, basis=basis,
                                        harvest=recycle, criterion=crit)
        if new_basis is not None:
            basis = new_basis
        scale = float(np.linalg.norm(plain.x)) or 1.0
        worst_mismatch = max(worst_mismatch,
                             float(np.linalg.norm(plain.x - defl.x))
                             / scale)
        worst_excess = max(worst_excess, defl.n_iters - plain.n_iters)
    return worst_mismatch, worst_excess


def run_stream_study(*, side: int = 20, dt: float = 20.0,
                     n_steps: int = 24, seed: int = 0,
                     preconditioner: str = "ilu0", recycle: int = 8,
                     drift: DriftSchedule | None = None,
                     criterion: StoppingCriterion | None = None,
                     device: DeviceModel | str | None = None,
                     n_deflation_checks: int = 4) -> StreamStudyResult:
    """Run the warm-vs-cold macro-benchmark on one drifting stream.

    Both streams see the *same* seeded matrix sequence (steady value
    drift with a refactor-scale shock partway, structure fixed) and
    the same initial condition; each evolves its own solution
    trajectory, converged to the same criterion, so iteration counts
    are comparable.

    The defaults pick the regime session amortization targets: a
    coarse implicit step (``dt = 20``, so the stiffness — not the
    mass — dominates and each solve is expensive) marching a forced
    plate toward steady state, with small steady drift and one
    refactor-scale shock halfway.
    """
    device = get_device(device)
    crit = (criterion if criterion is not None
            else StoppingCriterion(rtol=1e-10, atol=0.0, max_iters=1000))
    sched = (drift if drift is not None
             else DriftSchedule(seed=seed + 1, magnitude=1e-6,
                                shock_every=max(2, n_steps // 2)))

    a0 = build_heat_stream_operator(side, dt, seed)
    matrices: list[CSRMatrix] = []
    a_t = a0
    for s in range(1, n_steps + 1):
        a_t = sched.evolve(a_t, s)
        matrices.append(a_t)

    n = a0.n_rows
    u0 = np.zeros(n)
    forcing = np.zeros(n)
    forcing[(side // 2) * side + side // 2] = 100.0

    warm = SolveSession(preconditioner=preconditioner, criterion=crit,
                        device=device, warm_start=True, recycle=recycle)
    cold = SolveSession(preconditioner=preconditioner, criterion=crit,
                        device=device, warm_start=False, recycle=0,
                        staleness=StalenessConfig(force="refactor"))
    _run_stream(warm, matrices, u0, dt, forcing)
    _run_stream(cold, matrices, u0, dt, forcing)

    mismatch, excess = _deflation_contract(
        a0, preconditioner, recycle, crit, n_deflation_checks, seed + 2)

    return StreamStudyResult(
        n=n, nnz=a0.nnz, n_steps=n_steps, dt=dt, device=device.name,
        drift=sched, warm=warm.report, cold=cold.report,
        deflation_mismatch=mismatch, deflation_iter_excess=excess)
