"""Preconditioners and sparse triangular solvers.

Implements the preconditioning stack of the paper from scratch:

* :mod:`~repro.precond.triangular` — forward/backward substitution, both a
  sequential reference and the wavefront (level-scheduled) executor whose
  per-level segmented kernel mirrors one GPU kernel launch per wavefront;
* :mod:`~repro.precond.engine` — the modeled price of level-scheduled
  against partitioned SpTRSV per factor (priced, not run), and
  :class:`~repro.precond.engine.TriangularPreconditioner`, the one
  forward-sweep / backward-sweep application ILU(0), ILU(K), ILUT and
  IC(0) share (each of them only computes its factors);
* :mod:`~repro.precond.ilu0` — zero-fill incomplete LU (the cuSPARSE
  baseline in the paper);
* :mod:`~repro.precond.iluk` — level-of-fill ILU(K) (the SuperLU-based
  preconditioner in the paper);
* :mod:`~repro.precond.ic0` — zero-fill incomplete Cholesky (IC(0)), the
  SPD-specialized sibling mentioned in Section 6.2;
* :mod:`~repro.precond.spai` / :mod:`~repro.precond.fsai` — the
  approximate-inverse family: barrier-free SpMV applies trading setup
  cost and iteration count for perfectly flat parallelism, with
  :func:`~repro.precond.plan.plan_preconditioner` pricing the
  crossover against (sparsified) ILU;
* Jacobi and identity preconditioners as cheap baselines.

All preconditioners implement :class:`~repro.precond.base.Preconditioner`,
so Algorithm 1 (:func:`repro.solvers.pcg`) is agnostic to the choice.
"""

from .base import Preconditioner
from .identity import IdentityPreconditioner
from .jacobi import JacobiPreconditioner
from .triangular import (
    ScheduledTriangularSolver,
    solve_lower_sequential,
    solve_upper_sequential,
)
from .engine import TriangularPreconditioner, TrisolvePlan, plan_trisolve
from .ilu0 import ILUFactors, ilu0, ILU0Preconditioner
from .iluk import iluk, iluk_symbolic, ILUKPreconditioner
from .ic0 import ic0, IC0Preconditioner
from .ilut import ilut, ILUTPreconditioner
from .spai import ainv_pattern, spai, SPAIPreconditioner
from .fsai import fsai, FSAIPreconditioner
from .plan import CandidateCost, PreconditionerPlan, plan_preconditioner

__all__ = [
    "Preconditioner",
    "IdentityPreconditioner",
    "JacobiPreconditioner",
    "ScheduledTriangularSolver",
    "TriangularPreconditioner",
    "TrisolvePlan",
    "plan_trisolve",
    "solve_lower_sequential",
    "solve_upper_sequential",
    "ILUFactors",
    "ilu0",
    "ILU0Preconditioner",
    "iluk",
    "iluk_symbolic",
    "ILUKPreconditioner",
    "ic0",
    "IC0Preconditioner",
    "ilut",
    "ILUTPreconditioner",
    "ainv_pattern",
    "spai",
    "SPAIPreconditioner",
    "fsai",
    "FSAIPreconditioner",
    "CandidateCost",
    "PreconditionerPlan",
    "plan_preconditioner",
]
