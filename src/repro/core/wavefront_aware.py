"""Wavefront-aware sparsification — Algorithm 2 of the paper.

The procedure walks the candidate ratios in decreasing order of
aggressiveness (default {10, 5, 1} %) and selects the first candidate
that passes **both** gates:

1. *Convergence safety*: ``‖Â_t⁻¹‖·‖S_t‖ ≤ τ`` with the cheap estimates
   of :mod:`~repro.core.indicators`;
2. *Wavefront effectiveness*: relative wavefront reduction (Equation 7)
   of at least ω percent.

Escape hatches match the paper exactly: if even the most conservative
ratio fails the convergence gate, the *most aggressive* candidate is
returned (line 6 — no level is safe, so maximize per-iteration gain);
if all candidates are safe but none reduces wavefronts enough, the most
conservative one is returned (line 10's ``t = 1`` clause / line 14 —
minimize perturbation when parallelism cannot improve).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..graph.stats import wavefront_reduction_percent
from ..obs.metrics import get_metrics
from ..obs.trace import get_recorder
from ..perf.cache import cached_lower_schedule
from ..sparse.csr import CSRMatrix
from .indicators import convergence_indicator
from .sparsify import SparsifyResult, sparsify_magnitude

__all__ = ["CandidateReport", "SparsificationDecision",
           "wavefront_aware_sparsify"]


def _wavefront_count(a: CSRMatrix) -> int:
    """Wavefront count via the (cached) lower-triangle level schedule.

    Same value as :func:`repro.graph.levels.wavefront_count`; the
    memoized schedule means the suite's repeated Algorithm-2 runs over
    one matrix pay the inspector once per distinct pattern, and the
    ILU plan of the chosen ``Â`` reuses its schedule.
    """
    return cached_lower_schedule(a).n_levels


@dataclass(frozen=True)
class CandidateReport:
    """Diagnostics for one candidate ratio evaluated by Algorithm 2."""

    ratio_percent: float
    indicator: float
    passed_convergence: bool
    wavefronts: int | None           # None when the gate short-circuited
    wavefront_reduction: float | None
    passed_wavefront: bool


@dataclass(frozen=True)
class SparsificationDecision:
    """Outcome of Algorithm 2.

    Attributes
    ----------
    result:
        The chosen :class:`~repro.core.sparsify.SparsifyResult`
        (``Â`` and ``S``).
    chosen_ratio:
        The selected ``t`` in percent (0.0 means "sparsification
        disabled", only possible via the ``allow_identity`` extension).
    w_original:
        Wavefront count of the unsparsified matrix.
    candidates:
        Per-ratio diagnostics in evaluation order.
    fallback:
        ``None`` when a candidate passed both gates; otherwise
        ``"unsafe→max"`` (line 6) or ``"ineffective→min"`` (line 10/14).
    """

    result: SparsifyResult
    chosen_ratio: float
    w_original: int
    candidates: tuple[CandidateReport, ...]
    fallback: str | None

    @property
    def a_hat(self) -> CSRMatrix:
        """The sparsified matrix the preconditioner will be built from."""
        return self.result.a_hat


def wavefront_aware_sparsify(a: CSRMatrix, *, tau: float = 1.0,
                             omega: float = 10.0,
                             ratios: tuple[float, ...] = (10.0, 5.0, 1.0),
                             exact_indicator: bool = False
                             ) -> SparsificationDecision:
    """Run Algorithm 2 on matrix *a*.

    Parameters
    ----------
    a:
        Square symmetric (SPD) CSR matrix.
    tau:
        Convergence threshold τ (paper grid-search optimum: 1).
    omega:
        Wavefront-reduction threshold ω in percent (paper: 10).
    ratios:
        Candidate sparsification percentages, most aggressive first.
        The paper fixes {10, 5, 1} but the algorithm accepts extended
        sets (the §3.2.3 study sweeps {50, 20, 15, 10, 5, 1, 0.5}).
    exact_indicator:
        Use the dense exact inverse norm instead of the cheap proxy
        (the §3.2.3 validation mode; O(n³) — small matrices only).

    Notes
    -----
    Wavefront reduction uses Equation 7 (normalized by ``w_A``).  The
    pseudo-code's line 10 normalizes by ``w_Â`` instead; the two agree on
    which side of ω a candidate falls for small reductions and Equation 7
    is the definition used by the paper's evaluation, so it is the one
    implemented.
    """
    t0 = time.perf_counter()
    decision = _decide(a, tau=tau, omega=omega, ratios=ratios,
                       exact_indicator=exact_indicator)
    get_metrics().observe_phase("sparsify", time.perf_counter() - t0)
    rec = get_recorder()
    if rec.enabled:
        rec.emit(
            "sparsify_decision",
            chosen_ratio=decision.chosen_ratio,
            fallback=decision.fallback,
            w_original=decision.w_original,
            tau=tau, omega=omega,
            candidates=[{
                "ratio_percent": c.ratio_percent,
                "indicator": c.indicator,
                "passed_convergence": c.passed_convergence,
                "wavefronts": c.wavefronts,
                "wavefront_reduction": c.wavefront_reduction,
                "passed_wavefront": c.passed_wavefront,
            } for c in decision.candidates])
    return decision


def _decide(a: CSRMatrix, *, tau: float, omega: float,
            ratios: tuple[float, ...],
            exact_indicator: bool) -> SparsificationDecision:
    """Algorithm 2 proper (un-instrumented; see the public wrapper)."""
    if len(ratios) == 0:
        raise ValueError("need at least one candidate ratio")
    if any(r <= 0 or r > 100 for r in ratios):
        raise ValueError("ratios must lie in (0, 100]")
    if list(ratios) != sorted(ratios, reverse=True):
        raise ValueError("ratios must be in decreasing order "
                         "(most aggressive first)")

    w_a = _wavefront_count(a)
    most_aggressive: SparsifyResult | None = None
    reports: list[CandidateReport] = []
    safe_candidates: list[SparsifyResult] = []

    for idx, t in enumerate(ratios):
        cand = sparsify_magnitude(a, t)
        if idx == 0:
            most_aggressive = cand
        is_last = idx == len(ratios) - 1

        indicator = convergence_indicator(cand.a_hat, cand.s,
                                          exact=exact_indicator)
        if indicator > tau or not np.isfinite(indicator):
            reports.append(CandidateReport(
                ratio_percent=t, indicator=indicator,
                passed_convergence=False, wavefronts=None,
                wavefront_reduction=None, passed_wavefront=False))
            if is_last:
                # Line 6: nothing is safe — take the most aggressive cut.
                assert most_aggressive is not None
                return SparsificationDecision(
                    result=most_aggressive,
                    chosen_ratio=float(ratios[0]),
                    w_original=w_a,
                    candidates=tuple(reports),
                    fallback="unsafe→max")
            continue

        w_t = _wavefront_count(cand.a_hat)
        reduction = wavefront_reduction_percent(w_a, w_t)
        passed_wave = reduction >= omega
        reports.append(CandidateReport(
            ratio_percent=t, indicator=indicator, passed_convergence=True,
            wavefronts=w_t, wavefront_reduction=reduction,
            passed_wavefront=passed_wave))
        safe_candidates.append(cand)

        if passed_wave:
            # Line 11: effective and safe — select it.
            return SparsificationDecision(
                result=cand, chosen_ratio=float(t), w_original=w_a,
                candidates=tuple(reports), fallback=None)
        if is_last:
            # Line 10's t=1 clause: safe but ineffective everywhere —
            # minimize the perturbation.
            return SparsificationDecision(
                result=cand, chosen_ratio=float(t), w_original=w_a,
                candidates=tuple(reports), fallback="ineffective→min")

    # Line 14: loop exhausted with the last candidate failing convergence
    # mid-list (unreachable with the is_last branches above, kept for
    # defensive completeness).
    assert most_aggressive is not None
    return SparsificationDecision(
        result=most_aggressive, chosen_ratio=float(ratios[0]),
        w_original=w_a, candidates=tuple(reports), fallback="unsafe→max")
