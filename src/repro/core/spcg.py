"""The SPCG driver — Figure 2 of the paper.

``SPCG = wavefront-aware sparsification → ILU preconditioner on Â →
PCG on the original system``.  The preconditioner is built from the
*sparsified* matrix while PCG iterates on the *original* ``A`` (the
sparsification only perturbs the preconditioner, which is why the theory
of Section 3.2.1 about iterating with ``Â`` carries over to a
convergence-rate, not correctness, effect).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..resilience.faults import FaultPlan

from ..obs.metrics import get_metrics
from ..obs.trace import get_recorder
from ..perf.cache import ArtifactCache, get_cache
from ..perf.fingerprint import matrix_fingerprint
from ..precond.base import Preconditioner
from ..precond.fsai import FSAIPreconditioner
from ..precond.ic0 import IC0Preconditioner
from ..precond.ilu0 import ILU0Preconditioner
from ..precond.iluk import ILUKPreconditioner
from ..precond.jacobi import JacobiPreconditioner
from ..precond.spai import SPAIPreconditioner
from ..solvers.cg import pcg
from ..solvers.result import SolveResult
from ..solvers.stopping import StoppingCriterion
from ..sparse.csr import CSRMatrix
from .wavefront_aware import SparsificationDecision, wavefront_aware_sparsify

__all__ = ["SPCGResult", "spcg", "make_preconditioner", "PRECISIONS"]

_PRECONDITIONERS = ("ilu0", "iluk", "ic0", "jacobi", "spai", "fsai")


#: Accepted values of the ``precision`` knob (mixed = float32 factors,
#: float64 outer iteration).
PRECISIONS = ("float64", "mixed")


def _build_preconditioner(a: CSRMatrix, kind: str, *, k: int,
                          raise_on_zero_pivot: bool, pivot_boost: float,
                          shift: float) -> Preconditioner:
    if kind == "ilu0":
        return ILU0Preconditioner(a, raise_on_zero_pivot=raise_on_zero_pivot,
                                  pivot_boost=pivot_boost)
    if kind == "iluk":
        return ILUKPreconditioner(a, k=k,
                                  raise_on_zero_pivot=raise_on_zero_pivot,
                                  pivot_boost=pivot_boost)
    if kind == "ic0":
        return IC0Preconditioner(a, shift=shift)
    if kind == "spai":
        # k doubles as the approximate-inverse pattern power (Aᵏ) —
        # the family's fill knob, mirroring ILU(K)'s level of fill.
        return SPAIPreconditioner(a, k=max(1, k))
    if kind == "fsai":
        return FSAIPreconditioner(a, k=max(1, k))
    return JacobiPreconditioner(a)


def make_preconditioner(a: CSRMatrix, kind: str, *, k: int = 1,
                        raise_on_zero_pivot: bool = False,
                        pivot_boost: float = 1e-8,
                        shift: float = 0.0,
                        precision: str = "float64",
                        cache: ArtifactCache | bool | None = None
                        ) -> Preconditioner:
    """Factory for the preconditioners SPCG supports.

    ``raise_on_zero_pivot`` defaults to ``False`` here (cuSPARSE-style
    pivot boosting) because sparsification can zero a pivot that the
    exact factorization would keep; the paper's pipeline likewise keeps
    running and lets the convergence check sort it out.  The resilience
    ladder flips it to ``True`` so zero pivots are *classified*, then
    escalates ``pivot_boost`` (ILU family) or the Manteuffel diagonal
    ``shift`` (IC(0)) on the retry.

    For the approximate-inverse family (``"spai"``/``"fsai"``) there is
    no factorization and no triangular solve: the operator applies as
    one or two barrier-free SpMVs, and ``k`` is reinterpreted as the
    pattern power (support of ``Aᵏ``) — the family's fill knob.

    ``precision="mixed"`` factorizes a float32 copy of ``a``, producing
    float32 triangular factors — half the value traffic on the dominant
    per-iteration kernel — while the outer CG keeps iterating in
    float64 (upcast happens in ``apply``).

    Results are memoized in the solver-artifact cache under the matrix's
    content fingerprint plus every parameter above, so a grid search
    that revisits the same ``(Â, kind, params)`` point factorizes it
    once.  Preconditioners are stateless after construction (``apply``
    only reads), which makes sharing safe.  ``cache`` selects the
    :class:`~repro.perf.cache.ArtifactCache` to use: ``None`` (default)
    is the process-wide cache, ``False`` bypasses caching entirely, an
    explicit instance uses that instance.
    """
    if kind not in _PRECONDITIONERS:
        raise ValueError(f"unknown preconditioner {kind!r}; "
                         f"choose from {_PRECONDITIONERS}")
    if precision not in PRECISIONS:
        raise ValueError(f"unknown precision {precision!r}; "
                         f"choose from {PRECISIONS}")
    if precision == "mixed":
        a = CSRMatrix(a.indptr, a.indices, a.data.astype(np.float32),
                      a.shape, check=False)

    def build() -> Preconditioner:
        t0 = time.perf_counter()
        m = _build_preconditioner(
            a, kind, k=k, raise_on_zero_pivot=raise_on_zero_pivot,
            pivot_boost=pivot_boost, shift=shift)
        wall = time.perf_counter() - t0
        get_metrics().observe_phase("factorization", wall)
        rec = get_recorder()
        if rec.enabled:
            rec.emit("factorization", kind=kind, n=a.n_rows, nnz=a.nnz,
                     k=k, wall_s=wall)
        return m

    if cache is False:
        return build()
    c = get_cache() if cache is None or cache is True else cache
    key = (matrix_fingerprint(a), kind, int(k), bool(raise_on_zero_pivot),
           float(pivot_boost), float(shift), precision)
    return c.get_or_compute("preconditioner", key, build)


@dataclass
class SPCGResult:
    """Everything one SPCG run produces.

    Attributes
    ----------
    solve:
        The PCG :class:`~repro.solvers.result.SolveResult` on the
        original system.
    decision:
        The Algorithm-2 :class:`SparsificationDecision` (chosen ratio,
        per-candidate diagnostics, wavefront counts).
    preconditioner:
        The preconditioner built on ``Â`` (exposes factors/schedules for
        the machine model).
    """

    solve: SolveResult
    decision: SparsificationDecision
    preconditioner: Preconditioner

    @property
    def x(self) -> np.ndarray:
        """Solution vector."""
        return self.solve.x

    @property
    def converged(self) -> bool:
        return self.solve.converged

    @property
    def chosen_ratio(self) -> float:
        """Sparsification ratio Algorithm 2 selected (percent)."""
        return self.decision.chosen_ratio


def spcg(a: CSRMatrix, b: np.ndarray, *, preconditioner: str = "ilu0",
         k: int = 1, tau: float = 1.0, omega: float = 10.0,
         ratios: tuple[float, ...] = (10.0, 5.0, 1.0),
         criterion: StoppingCriterion | None = None,
         x0: np.ndarray | None = None,
         callback: Callable[[int, float], None] | None = None,
         raise_on_zero_pivot: bool = False,
         pivot_boost: float = 1e-8,
         precision: str = "float64",
         fault_plan: "FaultPlan | None" = None,
         cache: ArtifactCache | bool | None = None) -> SPCGResult:
    """Solve ``A x = b`` with the sparsified preconditioned CG of Figure 2.

    Parameters
    ----------
    a, b:
        The SPD system.
    preconditioner:
        ``"ilu0"`` (SPCG-ILU(0)), ``"iluk"`` (SPCG-ILU(K)), ``"ic0"`` or
        ``"jacobi"`` (the latter two as extensions — sparsification
        composes with any factorization-based preconditioner).
    k:
        Fill level for ``"iluk"``.
    tau, omega, ratios:
        Algorithm 2 parameters (paper defaults).
    criterion:
        Stopping rule (paper default: ‖r‖ < 1e-12, ≤1000 iterations).
    x0:
        Initial guess.
    callback:
        Forwarded to :func:`~repro.solvers.cg.pcg` — invoked as
        ``callback(k, r_norm)`` after every convergence check, so
        resilience guards can observe the residual history without
        monkey-patching.  May raise :class:`repro.errors.AbortSolve`
        to stop the solve early.
    raise_on_zero_pivot:
        Forwarded to :func:`make_preconditioner`.  ``False`` (default)
        keeps the paper's pivot-boost-and-carry-on behaviour; ``True``
        surfaces the breakdown as :class:`repro.errors.SingularFactorError`
        so callers (the resilience ladder) can classify and escalate.
    pivot_boost:
        Relative boost magnitude when ``raise_on_zero_pivot=False``.
    precision:
        ``"float64"`` (default) or ``"mixed"``: float32 factors with the
        outer CG iterating in float64 (iterative refinement through the
        preconditioner).  Mixed solves run under a
        :class:`~repro.resilience.guards.ResidualGuard` floored at the
        stopping threshold; if the reduced-precision preconditioner
        fails to reach the float64 criterion (guard trip, divergence or
        budget exhaustion), the solve transparently re-runs with full
        float64 factors warm-started from the best iterate, recorded in
        ``result.solve.extra["mixed_fallback"]``.
    fault_plan:
        Optional :class:`repro.resilience.FaultPlan`; when given, its
        matrix faults corrupt ``Â`` before factorization and its apply
        faults wrap the preconditioner (scope key ``"spcg"``).  This is
        the deterministic fault-injection hook — production solves leave
        it ``None``.
    cache:
        Forwarded to :func:`make_preconditioner`: ``None`` (default)
        uses the process-wide :class:`~repro.perf.cache.ArtifactCache`,
        ``False`` bypasses caching, an explicit instance uses that
        instance.  When *fault_plan* actually corrupts ``Â`` the cache
        is bypassed regardless — corrupted factors must never occupy
        cache slots (the resilience-layer invariant).

    Returns
    -------
    SPCGResult
    """
    decision = wavefront_aware_sparsify(a, tau=tau, omega=omega,
                                        ratios=ratios)
    a_hat = decision.a_hat
    if fault_plan is not None:
        corrupted = fault_plan.corrupt_matrix(a_hat, "spcg")
        if corrupted is not a_hat:
            # A matrix fault fired: the factors below are poisoned, so
            # they must not be stored in (or evict entries from) any
            # shared cache.  ``corrupt_matrix`` returns the input object
            # unchanged when nothing fired, so identity is the test.
            cache = False
        a_hat = corrupted

    def build(precision: str):
        m = make_preconditioner(a_hat, preconditioner, k=k,
                                raise_on_zero_pivot=raise_on_zero_pivot,
                                pivot_boost=pivot_boost, precision=precision,
                                cache=cache)
        return m if fault_plan is None else fault_plan.wrap(m, "spcg")

    m = build(precision)
    if precision != "mixed":
        solve = pcg(a, b, m, criterion=criterion, x0=x0, callback=callback)
        return SPCGResult(solve=solve, decision=decision, preconditioner=m)

    # Mixed precision: float32 factors, float64 outer CG.  A residual
    # guard (floored at the stopping threshold so a converged solve can
    # never trip) watches for the reduced preconditioner stalling or
    # diverging; any non-convergence falls back to full float64 factors
    # warm-started from the best iterate so the mode is never *less*
    # robust than float64.
    from ..resilience.guards import GuardConfig, ResidualGuard

    crit = criterion if criterion is not None \
        else StoppingCriterion.paper_default()
    floor = crit.threshold(float(np.linalg.norm(b)))
    guard = ResidualGuard(GuardConfig(floor=floor), chain=callback)
    solve = pcg(a, b, m, criterion=crit, x0=x0, callback=guard)
    solve.extra["precision"] = "mixed"
    if not solve.converged:
        mixed_iters = solve.n_iters
        m = build("float64")
        x_warm = solve.x if np.all(np.isfinite(solve.x)) else x0
        solve = pcg(a, b, m, criterion=crit, x0=x_warm, callback=callback)
        solve.extra["precision"] = "mixed"
        solve.extra["mixed_fallback"] = True
        solve.extra["mixed_iterations"] = mixed_iters
    return SPCGResult(solve=solve, decision=decision, preconditioner=m)
