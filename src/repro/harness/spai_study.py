"""Crossover study: sparsified-ILU vs the approximate-inverse family.

The paper's sparsification makes ILU's triangular solves *cheaper per
barrier*; SPAI/FSAI remove the barriers altogether.  Which side wins is
a two-dimensional question — matrix category (how deep the elimination
wavefronts are, how much a strong preconditioner saves) × device sync
cost (how much each surviving barrier costs) — and this study maps it.

For every ``(category, sync-cost scale)`` point the study calls
:func:`repro.precond.plan.plan_preconditioner` on a device whose
latency-type constants (``launch_overhead``, ``sync_overhead``,
``min_kernel_time``) are scaled, leaving the throughput terms (peak
FLOP/s, bandwidth) untouched.  Scale 1 is the real device; small scales
approximate an ideal latency-free machine where ILU's fewer iterations
dominate; large scales model sync-expensive regimes (older parts,
multi-GPU fences) where every wavefront barrier hurts and the
barrier-free family pulls ahead.  The expected picture — reproduced by
``benchmarks/bench_spai.py`` and asserted in CI — is a genuine
crossover: at least one point where approximate-inverse wins on modeled
seconds and one where (sparsified) ILU does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..datasets.generators import generate
from ..machine.device import DeviceModel, get_device
from ..precond.plan import PreconditionerPlan, plan_preconditioner
from ..solvers.stopping import StoppingCriterion
from .report import render_table

__all__ = ["CrossoverPoint", "SpaiCrossoverResult", "run_spai_crossover"]

#: Matrix categories of the default sweep: a wavefront-deep banded one
#: (model_reduction), a shallow grid one (thermal), and two where the
#: pattern-of-A approximate inverse is a much weaker preconditioner
#: than ILU(0) (cfd's convection skew, structural's stiff/soft element
#: mix) — the regimes that pull the crossover in opposite directions.
DEFAULT_CATEGORIES = ("model_reduction", "thermal", "cfd", "structural")

#: Sync-cost scalings of the latency constants.  1.0 is the real
#: device; 0.0 is the sync-free limit (barriers, launches and kernel
#: latency all free — only roofline bodies remain), where the stronger
#: preconditioner's iteration advantage is the whole story; 8.0 models
#: sync-expensive regimes (older parts, multi-GPU fences).
DEFAULT_SYNC_SCALES = (0.0, 1.0, 8.0)

#: The 1e-8 relative criterion the acceptance suite uses: tight enough
#: to exercise asymptotic convergence, loose enough for float64 SPAI.
CRITERION_1E8 = StoppingCriterion(rtol=1e-8, atol=0.0, max_iters=2000)


@dataclass(frozen=True)
class CrossoverPoint:
    """One ``(category, sync scale)`` cell of the crossover map."""

    category: str
    n: int
    nnz: int
    sync_scale: float
    plan: PreconditionerPlan

    @property
    def winner(self) -> str:
        return self.plan.kind

    @property
    def ainv_wins(self) -> bool:
        """Did a barrier-free (approximate-inverse) candidate win?"""
        return self.plan.winner.apply_sync_barriers == 0

    def seconds(self, kind: str) -> float:
        return self.plan.candidate(kind).total_seconds


@dataclass
class SpaiCrossoverResult:
    """Outcome of :func:`run_spai_crossover`."""

    device: str
    candidates: tuple[str, ...]
    points: list[CrossoverPoint]

    @property
    def ainv_win_points(self) -> list[CrossoverPoint]:
        return [p for p in self.points if p.ainv_wins]

    @property
    def ilu_win_points(self) -> list[CrossoverPoint]:
        return [p for p in self.points if not p.ainv_wins]

    @property
    def has_crossover(self) -> bool:
        """True when both families win somewhere — the paper-level claim
        that neither family dominates the whole map."""
        return bool(self.ainv_win_points) and bool(self.ilu_win_points)

    def rows(self) -> list[list[str]]:
        out = []
        for p in self.points:
            cells = [p.category, f"{p.sync_scale:g}x"]
            for kind in self.candidates:
                c = p.plan.candidate(kind)
                cells.append(f"{c.total_seconds:.3e} ({c.iterations} it)"
                             if c.converged else "failed")
            cells.append(p.winner)
            out.append(cells)
        return out

    def summary(self) -> str:
        """Rendered crossover table for CLI output / CI step summaries."""
        header = (["category", "sync cost"]
                  + [f"{k} (s)" for k in self.candidates] + ["winner"])
        table = render_table(
            header, self.rows(),
            title=f"preconditioner crossover on the {self.device} model "
                  f"(modeled end-to-end seconds: setup + iters x per-iter)")
        tally = (f"\napproximate-inverse wins {len(self.ainv_win_points)}"
                 f"/{len(self.points)} points; "
                 f"ILU wins {len(self.ilu_win_points)}")
        return table + tally


def _scaled_device(dev: DeviceModel, scale: float) -> DeviceModel:
    """Scale the latency-type constants, keep the throughput terms."""
    return replace(dev,
                   name=f"{dev.name}(sync x{scale:g})",
                   launch_overhead=dev.launch_overhead * scale,
                   sync_overhead=dev.sync_overhead * scale,
                   min_kernel_time=dev.min_kernel_time * scale)


def run_spai_crossover(*,
                       categories: tuple[str, ...] = DEFAULT_CATEGORIES,
                       n: int = 900,
                       sync_scales: tuple[float, ...] = DEFAULT_SYNC_SCALES,
                       candidates: tuple[str, ...] = ("ilu0", "spai",
                                                      "fsai"),
                       k: int = 1,
                       device: DeviceModel | str | None = None,
                       criterion: StoppingCriterion | None = None,
                       seed: int = 100) -> SpaiCrossoverResult:
    """Sweep the crossover map and return every cell's plan.

    The probe solves are numeric and device-independent; only the
    pricing changes across *sync_scales*, so the per-matrix
    preconditioner builds are shared through the artifact cache and the
    sweep cost is dominated by the probe PCG runs.
    """
    device = get_device(device)
    if criterion is None:
        criterion = CRITERION_1E8

    points: list[CrossoverPoint] = []
    for cat in categories:
        a = generate(cat, n, seed)
        rng = np.random.default_rng(seed + 1)
        b = rng.standard_normal(a.n_rows)
        for scale in sync_scales:
            plan = plan_preconditioner(
                a, b, candidates=candidates, k=k,
                criterion=criterion, device=_scaled_device(device, scale))
            points.append(CrossoverPoint(category=cat, n=a.n_rows,
                                         nnz=a.nnz, sync_scale=float(scale),
                                         plan=plan))
    return SpaiCrossoverResult(device=device.name,
                               candidates=tuple(candidates), points=points)
