"""Solve sessions: amortizing setup across a stream of related solves.

A :class:`SolveSession` owns a *stream* — time steps, Newton steps, a
parameter sweep — and amortizes everything the one-shot path
(:func:`repro.core.spcg.spcg`) rebuilds per call:

1. **Warm starts** — the previous step's solution is the next step's
   ``x0`` (one extra SpMV for the initial residual, priced).
2. **Factor reuse with a staleness detector** — when the matrix drifts
   (values change, structure fingerprint unchanged) the session
   measures the relative value drift with one fused pass
   (:func:`repro.machine.kernels.time_staleness_check`) and picks the
   modeled-seconds-optimal action via :func:`decide_staleness`:

   ========  ==============================================  =========
   action    work                                            pays
   ========  ==============================================  =========
   reuse     nothing — keep the cached factor                inflated
                                                             iterations
   refresh   numeric re-factorization on the *kept* pattern  factor
             (sparsification pattern and level schedules     sweep
             are structure-keyed cache hits)
   refactor  full sparsify + factor from scratch             everything
   ========  ==============================================  =========

   The iteration-inflation model prices a stale factor at
   ``base_iters · (1 + kappa · drift)`` with ``kappa_reuse >
   kappa_refresh``: a factor built from old *values* degrades faster
   than one rebuilt on a merely suboptimal *pattern*, which yields the
   three regimes the detector tests pin down (tiny drift → reuse,
   moderate → refresh, large/structural → refactor).
3. **Krylov recycling** — Ritz vectors harvested from each solve's
   Lanczos coefficients deflate the next solve
   (:mod:`repro.streams.recycle`).

Every step re-verifies the **true** residual ``b − A·x`` against the
stopping criterion (deflation and warm starts shift the recurrence
residual's rounding path, so trust is re-established per step, HPCG
style); a step whose recurrence converged but whose true residual
misses is refined by plain warm-started PCG and the extra iterations
are charged to the step.  Decisions and steps are traced as
``staleness`` / ``session_step`` events and counted in the metrics
registry under ``stream.*``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ..core.spcg import make_preconditioner
from ..core.wavefront_aware import wavefront_aware_sparsify
from ..machine.device import DeviceModel, get_device
from ..machine.kernels import (iteration_cost, time_deflation_apply,
                               time_deflation_setup, time_precond_setup,
                               time_residual_check, time_spmv,
                               time_sparsification, time_staleness_check)
from ..obs.metrics import get_metrics
from ..obs.trace import get_recorder
from ..perf.cache import ArtifactCache
from ..perf.fingerprint import matrix_fingerprint, structure_fingerprint
from ..serve.request import validate_rhs, validate_x0
from ..solvers.cg import pcg
from ..solvers.result import SolveResult
from ..solvers.stopping import StoppingCriterion
from ..sparse.csr import CSRMatrix
from .recycle import RecycleBasis, recycling_pcg

__all__ = ["StalenessConfig", "StalenessDecision", "decide_staleness",
           "StepRecord", "SessionReport", "SolveSession"]

_ACTIONS = ("reuse", "refresh", "refactor")


@dataclass(frozen=True)
class StalenessConfig:
    """Staleness-detector knobs.

    ``kappa_reuse`` / ``kappa_refresh`` are the iteration-inflation
    slopes (extra iterations per unit relative drift) for keeping a
    value-stale factor vs rebuilding on the kept pattern; ``force``
    pins every decision to one action (the macro-benchmark's cold
    baseline runs with ``force="refactor"``).
    """

    kappa_reuse: float = 40.0
    kappa_refresh: float = 8.0
    force: str | None = None

    def __post_init__(self):
        if self.force is not None and self.force not in _ACTIONS:
            raise ValueError(f"force must be one of {_ACTIONS} or None, "
                             f"got {self.force!r}")
        if self.kappa_reuse < self.kappa_refresh:
            raise ValueError("kappa_reuse must be >= kappa_refresh: a "
                             "value-stale factor cannot degrade slower "
                             "than a pattern-stale one")


@dataclass(frozen=True)
class StalenessDecision:
    """One arbitration of the staleness detector.

    ``modeled_costs`` maps every candidate action to its predicted
    modeled seconds (drift probe + setup + inflated iterations); the
    chosen ``action`` is their argmin unless ``forced`` or
    ``structure_changed`` (which mandates refactor — the cached
    pattern no longer exists).
    """

    action: str
    drift: float
    structure_changed: bool
    modeled_costs: dict[str, float]
    forced: bool = False


def decide_staleness(cfg: StalenessConfig, *, drift: float,
                     structure_changed: bool, base_iters: float,
                     iter_seconds: float, check_seconds: float,
                     factor_seconds: float,
                     sparsify_seconds: float) -> StalenessDecision:
    """Pick the modeled-seconds-optimal action for one drifted step.

    Pure and deterministic — the detector tests drive it directly with
    synthetic cost points, and the session feeds it machine-model
    prices.  Ties break toward the cheaper-to-execute action
    (reuse < refresh < refactor).
    """
    solve = base_iters * iter_seconds
    costs = {
        "reuse": check_seconds + solve * (1.0 + cfg.kappa_reuse * drift),
        "refresh": (check_seconds + factor_seconds
                    + solve * (1.0 + cfg.kappa_refresh * drift)),
        "refactor": (check_seconds + sparsify_seconds + factor_seconds
                     + solve),
    }
    if structure_changed:
        return StalenessDecision("refactor", drift, True, costs)
    if cfg.force is not None:
        return StalenessDecision(cfg.force, drift, False, costs,
                                 forced=True)
    action = min(_ACTIONS, key=lambda a: (costs[a], _ACTIONS.index(a)))
    return StalenessDecision(action, drift, False, costs)


@dataclass
class StepRecord:
    """Outcome and modeled cost breakdown of one session step."""

    step: int
    tag: str
    action: str
    drift: float
    n_iters: int
    converged: bool
    reason: str
    warm_started: bool
    deflated: int
    harvested: int
    true_residual: float
    tolerance: float
    verified: bool
    refine_iters: int
    modeled: dict[str, float]
    decision: StalenessDecision | None
    result: SolveResult

    @property
    def modeled_seconds(self) -> float:
        return float(sum(self.modeled.values()))

    @property
    def total_iters(self) -> int:
        """Solver iterations including any true-residual refinement."""
        return self.n_iters + self.refine_iters


@dataclass
class SessionReport:
    """Aggregate view over a session's completed steps."""

    steps: list[StepRecord] = field(default_factory=list)

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def total_iterations(self) -> int:
        return sum(s.total_iters for s in self.steps)

    @property
    def modeled_seconds(self) -> float:
        return float(sum(s.modeled_seconds for s in self.steps))

    @property
    def actions(self) -> Counter:
        return Counter(s.action for s in self.steps)

    @property
    def all_verified(self) -> bool:
        """Every step's final *true* residual met its criterion."""
        return all(s.verified for s in self.steps)

    @property
    def all_converged(self) -> bool:
        return all(s.converged for s in self.steps)

    def amortization_table(self) -> str:
        """Per-step ledger: action, iterations, modeled phase split."""
        from ..harness.report import render_table

        rows = []
        for s in self.steps:
            rows.append([
                s.step, s.tag or "-", s.action,
                f"{s.drift:.2e}", s.total_iters,
                "warm" if s.warm_started else "cold",
                s.deflated,
                f"{s.modeled.get('setup_s', 0.0):.3e}",
                f"{s.modeled.get('solve_s', 0.0):.3e}",
                f"{s.modeled_seconds:.3e}",
                "ok" if s.verified else "MISS",
            ])
        table = render_table(
            ["step", "tag", "action", "drift", "iters", "start",
             "defl", "setup (s)", "solve (s)", "total (s)", "resid"],
            rows, title="solve-stream amortization ledger")
        tally = (f"\n{self.n_steps} steps, "
                 f"{self.total_iterations} iterations, "
                 f"{self.modeled_seconds:.3e} modeled seconds; actions: "
                 + ", ".join(f"{a}×{c}"
                             for a, c in sorted(self.actions.items())))
        return table + tally


class SolveSession:
    """A stream of related solves sharing warm starts, factors, and a
    recycled deflation basis.

    Parameters
    ----------
    preconditioner, k:
        Forwarded to :func:`~repro.core.spcg.make_preconditioner`.
    sparsify:
        Run Algorithm 2 on (re)factorization and precondition on the
        sparsified ``Â`` (the paper's pipeline); ``False``
        preconditions on ``A`` itself.
    criterion:
        Stopping rule shared by every step (paper default if ``None``).
    device:
        :class:`~repro.machine.device.DeviceModel` (or name) pricing
        every phase; A100 by default.
    cache:
        :class:`~repro.perf.cache.ArtifactCache` for structure-keyed
        artifacts (``None`` = process-wide cache).
    warm_start:
        Carry each step's solution into the next step's ``x0``.
    recycle:
        Deflation-basis size harvested between steps (0 disables
        recycling).
    staleness:
        :class:`StalenessConfig` (defaults when ``None``).

    Examples
    --------
    >>> session = SolveSession(preconditioner="ilu0")
    >>> for a, b in stream:
    ...     rec = session.step(a, b)
    >>> session.report.amortization_table()
    """

    def __init__(self, *, preconditioner: str = "ilu0", k: int = 1,
                 sparsify: bool = True,
                 criterion: StoppingCriterion | None = None,
                 device: DeviceModel | str | None = None,
                 cache: ArtifactCache | None = None,
                 warm_start: bool = True, recycle: int = 8,
                 staleness: StalenessConfig | None = None):
        self.kind = preconditioner
        self.k = int(k)
        self.sparsify = bool(sparsify)
        self.criterion = (criterion if criterion is not None
                          else StoppingCriterion.paper_default())
        self.device = get_device(device)
        self.cache = cache
        self.warm_start = bool(warm_start)
        self.recycle = int(recycle)
        if self.recycle < 0:
            raise ValueError("recycle must be non-negative")
        self.staleness = (staleness if staleness is not None
                          else StalenessConfig())
        self.report = SessionReport()

        self._m = None
        self._a_ref: CSRMatrix | None = None
        self._a_hat: CSRMatrix | None = None
        self._pattern_pos: np.ndarray | None = None
        self._structure_fp: str | None = None
        self._value_fp: str | None = None
        self._basis: RecycleBasis | None = None
        self._x_prev: np.ndarray | None = None
        self._iters_est: float | None = None
        self._n_steps = 0
        rec = get_recorder()
        if rec.enabled:
            rec.emit("session_start", preconditioner=self.kind,
                     sparsify=self.sparsify, warm_start=self.warm_start,
                     recycle=self.recycle, device=self.device.name)

    # -- factor lifecycle ----------------------------------------------
    @staticmethod
    def _pattern_positions(a: CSRMatrix, a_hat: CSRMatrix) -> np.ndarray:
        """Positions in ``a.data`` of the entries ``Â`` kept — the map
        a sparsify-refresh replays new values through.  One
        ``searchsorted`` of the kept entries' row-major codes
        ``row·n + col`` in those of every entry of *a*, which a
        canonical CSR stores in ascending order."""
        def codes(m: CSRMatrix) -> np.ndarray:
            rows = np.repeat(np.arange(m.n_rows, dtype=np.int64),
                             m.row_lengths())
            return rows * a.n_cols + m.indices

        return np.searchsorted(codes(a), codes(a_hat))

    def _build(self, a: CSRMatrix, *, refresh: bool) -> float:
        """(Re)build the preconditioner; returns modeled setup seconds.

        ``refresh`` replays the *kept* sparsification pattern with the
        new values (numeric sweep only — no candidate search); a full
        build re-runs Algorithm 2.
        """
        setup_s = 0.0
        if self.sparsify:
            if refresh and self._pattern_pos is not None \
                    and self._a_hat is not None:
                a_hat = CSRMatrix(self._a_hat.indptr, self._a_hat.indices,
                                  a.data[self._pattern_pos].copy(),
                                  self._a_hat.shape)
            else:
                decision = wavefront_aware_sparsify(a)
                a_hat = decision.a_hat
                self._pattern_pos = self._pattern_positions(a, a_hat)
                setup_s += time_sparsification(self.device, a.nnz)
            self._a_hat = a_hat
        else:
            a_hat = a
            self._a_hat = None
        self._m = make_preconditioner(a_hat, self.kind, k=self.k,
                                      cache=self.cache)
        setup_s += time_precond_setup(self.device, self._m)
        self._a_ref = a
        self._structure_fp = structure_fingerprint(a)
        self._value_fp = matrix_fingerprint(a)
        return setup_s

    def _decide(self, a: CSRMatrix) -> tuple[StalenessDecision, float]:
        """Run the staleness detector against the cached factor."""
        check_s = time_staleness_check(self.device, a.nnz)
        structure_changed = \
            structure_fingerprint(a) != self._structure_fp
        if structure_changed:
            drift = float("inf")
        elif matrix_fingerprint(a) == self._value_fp:
            drift = 0.0
        else:
            ref = self._a_ref.data
            denom = float(np.linalg.norm(ref))
            drift = (float(np.linalg.norm(a.data - ref)) / denom
                     if denom > 0 else float("inf"))
        iter_s = iteration_cost(self.device, a, self._m).total
        base = self._iters_est if self._iters_est is not None else 1.0
        sparsify_s = (time_sparsification(self.device, a.nnz)
                      if self.sparsify else 0.0)
        decision = decide_staleness(
            self.staleness, drift=drift,
            structure_changed=structure_changed, base_iters=base,
            iter_seconds=iter_s, check_seconds=check_s,
            factor_seconds=time_precond_setup(self.device, self._m),
            sparsify_seconds=sparsify_s)
        rec = get_recorder()
        if rec.enabled:
            rec.emit("staleness", action=decision.action,
                     drift=drift if np.isfinite(drift) else None,
                     structure_changed=structure_changed,
                     forced=decision.forced,
                     modeled_costs={k: float(v) for k, v
                                    in decision.modeled_costs.items()})
        return decision, check_s

    # -- the step ------------------------------------------------------
    def step(self, a: CSRMatrix, b: np.ndarray, *,
             tag: str = "") -> StepRecord:
        """Solve one stream step ``A x = b`` and update session state.

        Returns the :class:`StepRecord` (also appended to
        :attr:`report`); ``record.result.x`` is the verified solution.
        """
        b = validate_rhs(a, b, tag=tag)
        modeled: dict[str, float] = {}
        self._n_steps += 1
        decision: StalenessDecision | None = None

        if self._m is None:
            action, drift = "setup", 0.0
            modeled["setup_s"] = self._build(a, refresh=False)
        else:
            decision, check_s = self._decide(a)
            modeled["check_s"] = check_s
            action, drift = decision.action, decision.drift
            if action == "refresh":
                modeled["setup_s"] = self._build(a, refresh=True)
            elif action == "refactor":
                modeled["setup_s"] = self._build(a, refresh=False)
            # reuse: keep factor and reference matrix (drift stays
            # measured against the values the factor was built from).

        x0 = None
        if self.warm_start and self._x_prev is not None \
                and self._x_prev.shape == (a.n_rows,):
            x0 = validate_x0(a, self._x_prev, tag=tag)
            modeled["warm_s"] = time_spmv(self.device, a.n_rows, a.nnz)

        basis = self._basis if self.recycle > 0 else None
        if basis is not None and basis.w.shape[0] != a.n_rows:
            basis = None
        if basis is not None:
            modeled["deflation_setup_s"] = time_deflation_setup(
                self.device, a, basis.size)

        res, new_basis = recycling_pcg(
            a, b, self._m, x0=x0, basis=basis,
            harvest=self.recycle, criterion=self.criterion)

        iter_s = iteration_cost(self.device, a, self._m).total
        defl = res.extra.get("recycle", {}).get("deflated", 0)
        if defl:
            iter_s += time_deflation_apply(self.device, a.n_rows, defl)
        modeled["solve_s"] = res.n_iters * iter_s

        # True-residual verification (HPCG discipline): the recurrence
        # residual converging is not the claim — ``b − A·x`` meeting
        # the criterion is.  A near-miss is refined by plain
        # warm-started PCG and charged to the step.
        b_norm = float(np.linalg.norm(b))
        modeled["verify_s"] = time_residual_check(self.device, a)
        refine_iters = 0
        true_res = float(np.linalg.norm(b - a.matvec(res.x)))
        if res.converged and not self.criterion.is_met(true_res, b_norm):
            for _ in range(2):
                fix = pcg(a, b, self._m, x0=res.x,
                          criterion=self.criterion)
                refine_iters += fix.n_iters
                res = SolveResult(
                    x=fix.x, converged=fix.converged,
                    n_iters=res.n_iters, residual_norms=res.residual_norms,
                    reason=res.reason, tolerance=res.tolerance,
                    extra=res.extra)
                true_res = float(np.linalg.norm(b - a.matvec(res.x)))
                modeled["verify_s"] += time_residual_check(self.device, a)
                if self.criterion.is_met(true_res, b_norm):
                    break
            modeled["solve_s"] += refine_iters * iteration_cost(
                self.device, a, self._m).total
        verified = bool(res.converged
                        and self.criterion.is_met(true_res, b_norm))

        # -- update stream state --------------------------------------
        self._x_prev = res.x.copy()
        if self.recycle > 0 and new_basis is not None:
            self._basis = new_basis
        if res.converged:
            est = float(res.n_iters)
            self._iters_est = (est if self._iters_est is None
                               else 0.5 * self._iters_est + 0.5 * est)

        record = StepRecord(
            step=self._n_steps, tag=tag, action=action, drift=drift,
            n_iters=res.n_iters, converged=res.converged,
            reason=res.reason.value,
            warm_started=x0 is not None,
            deflated=int(defl),
            harvested=0 if new_basis is None else new_basis.size,
            true_residual=true_res, tolerance=float(res.tolerance),
            verified=verified, refine_iters=refine_iters,
            modeled=modeled, decision=decision, result=res)
        self.report.steps.append(record)

        metrics = get_metrics()
        metrics.inc("stream.steps")
        metrics.inc(f"stream.actions.{action}")
        metrics.inc("stream.iterations", record.total_iters)
        if not verified:
            metrics.inc("stream.unverified_steps")
        rec = get_recorder()
        if rec.enabled:
            rec.emit("session_step", step=self._n_steps, tag=tag,
                     action=action,
                     drift=drift if np.isfinite(drift) else None,
                     n_iters=record.total_iters,
                     warm_started=record.warm_started,
                     deflated=record.deflated,
                     true_residual=true_res, verified=verified,
                     modeled_seconds=record.modeled_seconds)
        return record
