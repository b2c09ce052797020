"""Single-matrix experiment: PCG baseline vs sparsified variants.

Reproduces the measurement protocol of Section 4:

* right-hand side ``b = A·1`` (known solution, as is standard when the
  application's RHS is unavailable);
* stopping rule ‖r‖ < 1e-12, at most 1000 iterations (Section 4.3);
* iteration counts come from actually running Algorithm 1 in float64;
* kernel times come from the machine model (the paper's A100/V100/EPYC);
* end-to-end time = sparsification (SPCG only) + factorization +
  iterations × per-iteration time.

For ILU(K), the factorization is priced *sequentially on the EPYC host*
regardless of the solve device, exactly as the paper computes ILU(K)
factors with SuperLU on the CPU (Section 3.3) — this is what makes the
ILU(K) end-to-end speedups (gmean 3.73×) so much larger than the ILU(0)
ones: sparsification shrinks a factorization that cannot hide behind GPU
parallelism.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.sparsify import sparsify_magnitude
from ..core.wavefront_aware import (SparsificationDecision,
                                    wavefront_aware_sparsify)
from ..errors import ReproError
from ..machine.device import A100, EPYC_7413, DeviceModel
from ..machine.kernels import (IterationCost, iteration_cost,
                               time_precond_setup, time_sparsification)
from ..obs.metrics import get_metrics
from ..obs.trace import get_recorder
from ..precond.iluk import iluk_symbolic
from ..core.spcg import make_preconditioner
from ..resilience.fallback import FallbackPolicy, RobustSolveReport, \
    robust_spcg
from ..resilience.guards import classify_failure
from ..solvers.cg import pcg
from ..solvers.stopping import StoppingCriterion
from ..sparse.csr import CSRMatrix

__all__ = ["MethodMetrics", "ExperimentResult", "run_experiment",
           "select_best_k"]


@dataclass(frozen=True)
class MethodMetrics:
    """Metrics of one solver variant on one matrix.

    Attributes
    ----------
    method:
        ``"pcg"``, ``"spcg"``, ``"ratio:<t>"`` or ``"oracle"``.
    ratio_percent:
        Sparsification ratio used (0 for the baseline).
    converged, n_iters:
        Measured convergence behaviour (float64 Algorithm 1).
    per_iteration_seconds:
        Modeled time of one iteration on the experiment's device.
    factor_seconds, sparsify_seconds:
        Modeled preprocessing times.
    total_wavefronts:
        Forward + backward wavefront count of the preconditioner.
    precond_nnz:
        Stored nonzeros of the factors.
    iteration_breakdown:
        The :class:`~repro.machine.kernels.IterationCost` decomposition.
    """

    method: str
    ratio_percent: float
    converged: bool
    n_iters: int
    per_iteration_seconds: float
    factor_seconds: float
    sparsify_seconds: float
    total_wavefronts: int
    precond_nnz: int
    iteration_breakdown: IterationCost
    failed: bool = False
    failure: str = ""
    #: Resilience-taxonomy bucket (``repro.resilience.FailureClass``
    #: value) — empty for converged variants, so suite aggregation can
    #: bucket failures instead of only counting NaNs.
    failure_class: str = ""

    @property
    def end_to_end_seconds(self) -> float:
        """Modeled wall time to solution (inf when not converged)."""
        if not self.converged:
            return float("inf")
        return (self.sparsify_seconds + self.factor_seconds
                + self.n_iters * self.per_iteration_seconds)


@dataclass
class ExperimentResult:
    """All variants of one matrix × device × preconditioner family.

    ``per_ratio`` holds the fixed-ratio ablation runs keyed by percent;
    ``oracle`` is the best per-iteration fixed-ratio variant (Section
    4.4's upper bound); ``decision`` is Algorithm 2's full diagnostic.
    """

    name: str
    category: str
    n: int
    nnz: int
    device: str
    precond_kind: str
    k: int | None
    baseline: MethodMetrics
    spcg: MethodMetrics
    decision: SparsificationDecision
    per_ratio: dict[float, MethodMetrics] = field(default_factory=dict)
    #: Fallback-ladder outcome when the experiment ran with
    #: ``robust=True`` (None otherwise).  Kept out of every baseline
    #: aggregate so the paper's speedup statistics are unchanged.
    robust: RobustSolveReport | None = None

    # -- derived quantities used by the figures -------------------------
    @property
    def per_iteration_speedup(self) -> float:
        """Baseline / SPCG modeled per-iteration time."""
        if self.spcg.failed or self.spcg.per_iteration_seconds <= 0:
            return float("nan")
        return (self.baseline.per_iteration_seconds
                / self.spcg.per_iteration_seconds)

    @property
    def end_to_end_speedup(self) -> float:
        """Baseline / SPCG modeled end-to-end time (NaN unless both
        converged, matching the paper's converging-only analysis)."""
        if not (self.baseline.converged and self.spcg.converged):
            return float("nan")
        return (self.baseline.end_to_end_seconds
                / self.spcg.end_to_end_seconds)

    @property
    def oracle(self) -> MethodMetrics | None:
        """Fastest per-iteration fixed-ratio variant (None if all failed)."""
        ok = [m for m in self.per_ratio.values() if not m.failed]
        if not ok:
            return None
        return min(ok, key=lambda m: m.per_iteration_seconds)

    @property
    def oracle_per_iteration_speedup(self) -> float:
        o = self.oracle
        if o is None:
            return float("nan")
        return self.baseline.per_iteration_seconds / o.per_iteration_seconds

    @property
    def wavefront_reduction_ratio(self) -> float:
        """Fractional reduction of preconditioner wavefronts (Fig. 10)."""
        wb = self.baseline.total_wavefronts
        if wb <= 0:
            return float("nan")
        return (wb - self.spcg.total_wavefronts) / wb

    @property
    def iterations_ratio(self) -> float:
        """SPCG iterations / baseline iterations (≈1 for ~90+% in paper)."""
        if self.baseline.n_iters == 0:
            return float("nan")
        return self.spcg.n_iters / self.baseline.n_iters


def _metrics_for(a: CSRMatrix, matrix_for_precond: CSRMatrix,
                 b: np.ndarray, dev: DeviceModel, kind: str, k: int,
                 method: str, ratio: float, sparsify_seconds: float,
                 criterion: StoppingCriterion) -> MethodMetrics:
    """Build, solve and price one variant; breakdowns become *failed*
    metrics instead of raising (the paper drops NaN configurations)."""
    try:
        m = make_preconditioner(matrix_for_precond, kind, k=k)
        solve = pcg(a, b, m, criterion=criterion)
        cost = iteration_cost(dev, a, m)
        lv = m.apply_levels()
        fc = classify_failure(solve)
        return MethodMetrics(
            method=method,
            ratio_percent=ratio,
            converged=solve.converged,
            n_iters=solve.n_iters,
            per_iteration_seconds=cost.total,
            # Paper: ILU(K) factors computed with SuperLU on the host CPU.
            factor_seconds=time_precond_setup(
                EPYC_7413 if kind == "iluk" else dev, m,
                sequential=kind == "iluk"),
            sparsify_seconds=sparsify_seconds,
            total_wavefronts=lv[0] + lv[1],
            precond_nnz=m.apply_nnz(),
            iteration_breakdown=cost,
            failure_class=fc.value if fc is not None else "",
        )
    except (ReproError, FloatingPointError) as exc:
        # Consistent NaN sentinels (the old inf/0 mix leaked into
        # aggregates); the failure class names the taxonomy bucket.
        zero = IterationCost(0.0, 0.0, 0.0, 0.0, 0.0)
        fc = classify_failure(exc)
        return MethodMetrics(
            method=method, ratio_percent=ratio, converged=False,
            n_iters=0, per_iteration_seconds=float("nan"),
            factor_seconds=float("nan"), sparsify_seconds=sparsify_seconds,
            total_wavefronts=0, precond_nnz=0, iteration_breakdown=zero,
            failed=True, failure=f"{type(exc).__name__}: {exc}",
            failure_class=fc.value if fc is not None else "unknown")


def select_best_k(a: CSRMatrix, b: np.ndarray, *,
                  candidates: tuple[int, ...] = (10, 20, 30, 40),
                  criterion: StoppingCriterion | None = None,
                  max_fill_ratio: float = 12.0) -> int:
    """Pick the best-converging fill level, the paper's ILU(K) protocol.

    "We select the best converging K from 10, 20, 30, and 40 for a given
    matrix for the non-sparsified PCG-ILU(K)" (Section 3.3).  Candidates
    whose symbolic fill would exceed ``max_fill_ratio × nnz(A)`` are
    skipped (the memory blow-up regime the paper describes as the
    unfavorable cost/accuracy trade-off); if every candidate overflows,
    the smallest candidate is returned.
    """
    crit = criterion or StoppingCriterion.paper_default()
    best_k: int | None = None
    best_score: tuple[int, int, float] | None = None
    nnz_cap = int(max_fill_ratio * a.nnz)
    for k in candidates:
        try:
            iluk_symbolic(a, k, nnz_cap=nnz_cap)
        except ReproError:
            # Fill explosion (or structural failure) — the unfavorable
            # cost/accuracy regime the paper describes; skip the candidate.
            continue
        try:
            m = make_preconditioner(a, "iluk", k=k)
            res = pcg(a, b, m, criterion=crit)
        except (ReproError, FloatingPointError):
            continue
        # Converged first, then smallest k, then fewest iterations.
        # The paper picks the "best converging K"; at registry scale the
        # larger candidates are near-exact factorizations whose
        # 1-3-iteration baselines make every comparison degenerate, so
        # we take the cost-effective end of the convergence trade-off —
        # the regime the paper itself calls favorable (Section 3.3).
        score = (0 if res.converged else 1, float(k), res.n_iters)
        if best_score is None or score < best_score:
            best_score = score
            best_k = k
    return best_k if best_k is not None else min(candidates)


def _num(x: float) -> float | None:
    """JSON-safe number: non-finite floats become ``None`` so traces
    stay parseable by strict JSON readers (rendered as ``n/a``)."""
    x = float(x)
    return x if math.isfinite(x) else None


def _variant_payload(m: MethodMetrics) -> dict:
    """Ledger row for one solver variant (modeled phase seconds)."""
    iter_s = (m.n_iters * m.per_iteration_seconds
              if math.isfinite(m.per_iteration_seconds) else float("nan"))
    return {
        "converged": m.converged,
        "n_iters": m.n_iters,
        "sparsify_s": _num(m.sparsify_seconds),
        "factor_s": _num(m.factor_seconds),
        "iter_s": _num(iter_s),
        "per_iteration_s": _num(m.per_iteration_seconds),
        "wavefronts": m.total_wavefronts,
        "failure_class": m.failure_class,
    }


def run_experiment(a: CSRMatrix, *, name: str = "matrix",
                   category: str = "unknown",
                   device: DeviceModel = A100,
                   precond: str = "ilu0", k: int | None = None,
                   k_candidates: tuple[int, ...] = (10, 20, 30, 40),
                   tau: float = 1.0, omega: float = 10.0,
                   ratios: tuple[float, ...] = (10.0, 5.0, 1.0),
                   criterion: StoppingCriterion | None = None,
                   run_fixed_ratios: bool = True,
                   rhs: np.ndarray | None = None,
                   robust: bool = False,
                   robust_policy: FallbackPolicy | None = None,
                   fault_plan=None) -> ExperimentResult:
    """Run PCG, SPCG and the fixed-ratio ablations on one matrix.

    Parameters
    ----------
    a:
        SPD system matrix.
    device:
        Machine model pricing the kernels (A100 default, as in Fig. 4/5).
    precond:
        ``"ilu0"`` or ``"iluk"`` (or ``"ic0"``/``"jacobi"`` extensions).
    k:
        Fill level for ILU(K); ``None`` triggers the paper's best-K
        selection on the baseline over *k_candidates*.
    k_candidates:
        Candidate fill levels for the selection.  The paper uses
        {10, 20, 30, 40} on million-row systems; on CI-sized matrices
        those produce a near-*exact* factorization (one-iteration
        baselines), so the benches pass a proportionally scaled set —
        same role, matched to the matrix sizes.
    run_fixed_ratios:
        Also evaluate each ratio in *ratios* individually (Table 1 and
        the oracle need these; disable to halve runtime).
    rhs:
        Right-hand side; default ``b = A·1``.
    robust:
        Additionally run :func:`repro.resilience.robust_spcg` and
        attach its :class:`RobustSolveReport` (field ``robust``).  The
        baseline/SPCG metrics and every speedup aggregate are computed
        exactly as before — robust mode only *adds* the recovery
        diagnostics.
    robust_policy:
        Fallback policy for the robust run (defaults when ``None``;
        the policy's *device* defaults to the experiment's).
    fault_plan:
        Optional :class:`repro.resilience.FaultPlan` threaded into the
        robust run (fault-injection studies).
    """
    t_start = time.perf_counter()
    rec = get_recorder()
    if rec.enabled:
        rec.emit("experiment_start", name=name, category=category,
                 n=a.n_rows, nnz=a.nnz, device=device.name,
                 precond=precond)
    crit = criterion or StoppingCriterion.paper_default()
    b = rhs if rhs is not None else a.matvec(
        np.ones(a.n_rows, dtype=np.float64))

    kk = k
    if precond == "iluk" and kk is None:
        kk = select_best_k(a, b, candidates=k_candidates, criterion=crit)
    kk = kk if kk is not None else 1

    baseline = _metrics_for(a, a, b, device, precond, kk, "pcg", 0.0, 0.0,
                            crit)

    decision = wavefront_aware_sparsify(a, tau=tau, omega=omega,
                                        ratios=ratios)
    t_sparsify = time_sparsification(device, a.nnz, len(ratios))
    spcg_m = _metrics_for(a, decision.a_hat, b, device, precond, kk,
                          "spcg", decision.chosen_ratio, t_sparsify, crit)

    per_ratio: dict[float, MethodMetrics] = {}
    if run_fixed_ratios:
        for t in ratios:
            cand = sparsify_magnitude(a, t)
            t_sp = time_sparsification(device, a.nnz, 1)
            per_ratio[float(t)] = _metrics_for(
                a, cand.a_hat, b, device, precond, kk, f"ratio:{t:g}",
                float(t), t_sp, crit)

    robust_report: RobustSolveReport | None = None
    if robust:
        policy = robust_policy or FallbackPolicy(device=device)
        robust_report = robust_spcg(
            a, b, policy=policy, preconditioner=precond, k=kk, tau=tau,
            omega=omega, ratios=ratios, criterion=crit,
            fault_plan=fault_plan)

    result = ExperimentResult(
        name=name, category=category, n=a.n_rows, nnz=a.nnz,
        device=device.name, precond_kind=precond, k=kk,
        baseline=baseline, spcg=spcg_m, decision=decision,
        per_ratio=per_ratio, robust=robust_report)

    wall = time.perf_counter() - t_start
    metrics = get_metrics()
    metrics.inc("experiments.run")
    # Pair modeled phase seconds with the wall clock recorded by the
    # instrumented sparsify/factorize sites, so `repro report` (and the
    # metrics snapshot) can compare simulated vs. real time per phase.
    metrics.observe_phase("experiment", wall)
    for phase_name, modeled in (("sparsify", spcg_m.sparsify_seconds),
                                ("factorization", spcg_m.factor_seconds),
                                ("iterations", spcg_m.n_iters
                                 * spcg_m.per_iteration_seconds)):
        if math.isfinite(modeled):
            metrics.observe(f"phase.{phase_name}.modeled_s", modeled)
    if rec.enabled:
        robust_payload = None
        if robust_report is not None:
            robust_payload = {
                "converged": robust_report.converged,
                "n_attempts": robust_report.n_attempts,
                "recovered_by": robust_report.recovered_by,
                "failure_classes": list(robust_report.failure_classes),
            }
        rec.emit("experiment_end", name=name, category=category,
                 n=a.n_rows, nnz=a.nnz, chosen_ratio=decision.chosen_ratio,
                 wall_s=wall,
                 baseline=_variant_payload(baseline),
                 spcg=_variant_payload(spcg_m),
                 per_iteration_speedup=_num(result.per_iteration_speedup),
                 end_to_end_speedup=_num(result.end_to_end_speedup),
                 robust=robust_payload)
    return result
