"""Suite runner: sweep a matrix collection and aggregate paper statistics.

Aggregates exactly the quantities the evaluation section reports:
geometric-mean per-iteration and end-to-end speedups, the percentage of
matrices accelerated, the fraction with approximately unchanged iteration
counts, the oracle upper bound and its match rate, and the Spearman
correlation between wavefront reduction and speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..errors import SuiteWorkerError
from ..machine.device import A100, DeviceModel
from ..obs.trace import get_recorder
from ..perf.cache import get_cache
from ..solvers.stopping import StoppingCriterion
from ..util import gmean, spearman
from ..datasets.registry import MatrixSpec, SUITE, load
from .experiment import ExperimentResult, run_experiment

__all__ = ["SuiteAggregates", "ResilienceAggregates", "SuiteResult",
           "run_suite"]


@dataclass(frozen=True)
class SuiteAggregates:
    """Headline statistics over a suite run (one preconditioner family).

    NaN speedups (non-converging pairs, failed factorizations) are
    excluded from each aggregate, mirroring the paper's protocol of
    analysing end-to-end only on converging systems.
    """

    n_matrices: int
    gmean_per_iteration_speedup: float
    percent_accelerated: float
    gmean_end_to_end_speedup: float
    n_end_to_end: int
    percent_iterations_unchanged: float
    gmean_oracle_speedup: float
    percent_oracle_match: float
    spearman_wavefront_speedup: float


@dataclass(frozen=True)
class ResilienceAggregates:
    """Robust-mode statistics over a suite run.

    Kept separate from :class:`SuiteAggregates` so enabling
    ``robust=True`` never perturbs the paper's baseline speedup
    aggregates — the resilience ladder runs *in addition to* the
    baseline/SPCG comparison, not instead of it.
    """

    n_robust: int
    n_converged: int
    n_recovered: int
    #: Recovered / faulted solves.  **NaN when zero faults occurred** —
    #: a fault-free suite has no recovery rate, and the old ``1.0``
    #: sentinel read as "100% recovery" in reports.
    recovery_rate: float
    mean_attempts: float
    failure_taxonomy: tuple[tuple[str, int], ...]

    def summary(self) -> str:
        tax = ", ".join(f"{k}×{v}" for k, v in self.failure_taxonomy) \
            or "none"
        rate = ("n/a (no faults)" if np.isnan(self.recovery_rate)
                else f"{100.0 * self.recovery_rate:.0f}%")
        return (f"robust: {self.n_converged}/{self.n_robust} converged, "
                f"{self.n_recovered} via fallback "
                f"(recovery rate {rate}), "
                f"mean {self.mean_attempts:.1f} attempts; "
                f"failures seen: {tax}")


@dataclass
class SuiteResult:
    """Container of per-matrix results plus on-demand aggregates."""

    device: str
    precond_kind: str
    results: list[ExperimentResult] = field(default_factory=list)

    # -- vector extractors ------------------------------------------------
    def per_iteration_speedups(self) -> np.ndarray:
        """Finite per-iteration speedups (one per usable matrix)."""
        v = np.array([r.per_iteration_speedup for r in self.results])
        return v[np.isfinite(v)]

    def end_to_end_speedups(self) -> np.ndarray:
        """Finite end-to-end speedups (both variants converged)."""
        v = np.array([r.end_to_end_speedup for r in self.results])
        return v[np.isfinite(v)]

    def end_to_end_points(self) -> tuple[np.ndarray, np.ndarray]:
        """(nnz, speedup) pairs for the Fig. 4b/5b scatter."""
        pts = [(r.nnz, r.end_to_end_speedup) for r in self.results
               if np.isfinite(r.end_to_end_speedup)]
        if not pts:
            return np.empty(0), np.empty(0)
        arr = np.array(pts, dtype=np.float64)
        return arr[:, 0], arr[:, 1]

    def wavefront_correlation_points(self) -> tuple[np.ndarray, np.ndarray]:
        """(per-iteration speedup, wavefront reduction ratio) — Fig. 10."""
        pts = [(r.per_iteration_speedup, r.wavefront_reduction_ratio)
               for r in self.results
               if np.isfinite(r.per_iteration_speedup)
               and np.isfinite(r.wavefront_reduction_ratio)]
        if not pts:
            return np.empty(0), np.empty(0)
        arr = np.array(pts, dtype=np.float64)
        return arr[:, 0], arr[:, 1]

    def by_category(self) -> dict[str, list[ExperimentResult]]:
        out: dict[str, list[ExperimentResult]] = {}
        for r in self.results:
            out.setdefault(r.category, []).append(r)
        return out

    # -- aggregates -------------------------------------------------------
    def aggregates(self, *, iteration_tolerance: float = 0.10
                   ) -> SuiteAggregates:
        """Compute the headline numbers.

        *iteration_tolerance* defines "approximately the same number of
        iterations": ``|iters_spcg/iters_pcg − 1| ≤ tolerance``.
        """
        pi = self.per_iteration_speedups()
        e2e = self.end_to_end_speedups()
        it_ratio = np.array([r.iterations_ratio for r in self.results])
        it_ratio = it_ratio[np.isfinite(it_ratio)]
        oracle = np.array([r.oracle_per_iteration_speedup
                           for r in self.results])
        oracle = oracle[np.isfinite(oracle)]

        match = 0
        matchable = 0
        for r in self.results:
            o = r.oracle
            if o is None or r.spcg.failed:
                continue
            matchable += 1
            if abs(o.ratio_percent - r.spcg.ratio_percent) < 1e-12:
                match += 1

        x, y = self.wavefront_correlation_points()
        rho = spearman(x, y) if x.size >= 2 else float("nan")

        return SuiteAggregates(
            n_matrices=len(self.results),
            gmean_per_iteration_speedup=gmean(pi) if pi.size else float("nan"),
            percent_accelerated=(100.0 * float(np.mean(pi > 1.0))
                                 if pi.size else float("nan")),
            gmean_end_to_end_speedup=(gmean(e2e) if e2e.size
                                      else float("nan")),
            n_end_to_end=int(e2e.size),
            percent_iterations_unchanged=(
                100.0 * float(np.mean(np.abs(it_ratio - 1.0)
                                      <= iteration_tolerance))
                if it_ratio.size else float("nan")),
            gmean_oracle_speedup=(gmean(oracle) if oracle.size
                                  else float("nan")),
            percent_oracle_match=(100.0 * match / matchable if matchable
                                  else float("nan")),
            spearman_wavefront_speedup=rho,
        )

    # -- resilience aggregates --------------------------------------------
    def failure_taxonomy(self) -> dict[str, int]:
        """Failure-class counts over every robust-mode attempt.

        Counts *attempts*, not matrices: a solve that hit a zero pivot,
        then stagnated, then recovered contributes one ``zero_pivot``
        and one ``stagnation``.
        """
        counts: dict[str, int] = {}
        for r in self.results:
            if r.robust is None:
                continue
            for name in r.robust.failure_classes:
                counts[name] = counts.get(name, 0) + 1
        return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))

    def resilience_summary(self) -> ResilienceAggregates | None:
        """Recovery statistics over the robust-mode runs.

        ``None`` when the suite ran without ``robust=True``.  Kept out
        of :meth:`aggregates` on purpose: the baseline speedup numbers
        must not change when robust mode is toggled.
        """
        reports = [r.robust for r in self.results if r.robust is not None]
        if not reports:
            return None
        n = len(reports)
        converged = sum(1 for rep in reports if rep.converged)
        recovered = sum(1 for rep in reports if rep.recovered)
        faulted = sum(1 for rep in reports if rep.failure_classes)
        return ResilienceAggregates(
            n_robust=n,
            n_converged=converged,
            n_recovered=recovered,
            recovery_rate=(recovered / faulted if faulted
                           else float("nan")),
            mean_attempts=float(np.mean([rep.n_attempts
                                         for rep in reports])),
            failure_taxonomy=tuple(self.failure_taxonomy().items()),
        )

    def ratio_table(self, ratios: Sequence[float] = (1.0, 5.0, 10.0)
                    ) -> dict[str, dict[float, float]]:
        """Table 1 rows: per-ratio gmean speedup and % accelerated."""
        gm: dict[float, float] = {}
        acc: dict[float, float] = {}
        for t in ratios:
            sp = []
            for r in self.results:
                m = r.per_ratio.get(float(t))
                if m is None or m.failed or r.baseline.failed:
                    continue
                if m.per_iteration_seconds > 0:
                    sp.append(r.baseline.per_iteration_seconds
                              / m.per_iteration_seconds)
            arr = np.array(sp)
            arr = arr[np.isfinite(arr)]
            gm[float(t)] = gmean(arr) if arr.size else float("nan")
            acc[float(t)] = (100.0 * float(np.mean(arr > 1.0))
                             if arr.size else float("nan"))
        return {"gmean": gm, "percent_accelerated": acc}


def run_suite(matrices: Iterable[MatrixSpec | str] | None = None, *,
              device: DeviceModel = A100, precond: str = "ilu0",
              k: int | None = None,
              k_candidates: tuple[int, ...] = (10, 20, 30, 40),
              tau: float = 1.0, omega: float = 10.0,
              ratios: tuple[float, ...] = (10.0, 5.0, 1.0),
              criterion: StoppingCriterion | None = None,
              run_fixed_ratios: bool = True,
              max_n: int | None = None,
              progress: bool = False,
              robust: bool = False,
              robust_policy=None,
              fault_plan_factory=None) -> SuiteResult:
    """Run :func:`~repro.harness.experiment.run_experiment` over a
    collection.

    Parameters
    ----------
    matrices:
        Specs or registry names; the full built-in suite when ``None``.
    max_n:
        Skip matrices larger than this order (used by the ILU(K) benches
        to bound the Python-side symbolic cost).
    progress:
        Print one line per matrix (benches enable it).
    robust:
        Additionally run the :func:`~repro.resilience.robust_spcg`
        fallback ladder per matrix; :meth:`SuiteResult.resilience_summary`
        then reports the recovery rate and failure taxonomy.  The
        baseline/SPCG aggregates are computed exactly as before.
    robust_policy:
        :class:`~repro.resilience.FallbackPolicy` for the robust runs
        (default: ladder defaults on *device*).
    fault_plan_factory:
        Optional ``name -> FaultPlan | None`` callable giving each
        matrix its own (fresh) fault plan — per-matrix plans keep
        trigger bookkeeping independent across the sweep.

    Raises
    ------
    SuiteWorkerError
        When an experiment raises, naming the failing matrix; the
        experiment's own exception is its ``__cause__``.
    """
    specs: list[MatrixSpec] = []
    source = SUITE if matrices is None else matrices
    from ..datasets.registry import _BY_NAME  # local import by design

    for m in source:
        spec = _BY_NAME[m] if isinstance(m, str) else m
        specs.append(spec)

    def _run_one(spec: MatrixSpec) -> ExperimentResult | None:
        a = load(spec.name) if spec.name in _BY_NAME else spec.build()
        if max_n is not None and a.n_rows > max_n:
            return None
        plan = (fault_plan_factory(spec.name)
                if fault_plan_factory is not None else None)
        return run_experiment(
            a, name=spec.name, category=spec.category, device=device,
            precond=precond, k=k, k_candidates=k_candidates, tau=tau,
            omega=omega, ratios=ratios, criterion=criterion,
            run_fixed_ratios=run_fixed_ratios,
            robust=robust, robust_policy=robust_policy, fault_plan=plan)

    def _report(spec: MatrixSpec, res: ExperimentResult) -> None:
        pi = res.per_iteration_speedup
        e2e = res.end_to_end_speedup
        line = (f"  {spec.name:40s} per-iter x{pi:6.2f}  "
                f"e2e x{e2e:6.2f}  ratio {res.spcg.ratio_percent:g}%")
        if res.robust is not None:
            line += (f"  robust={'ok' if res.robust.converged else 'FAIL'}"
                     f"({res.robust.n_attempts} att)")
        print(line)

    rec = get_recorder()
    if rec.enabled:
        rec.emit("suite_start", n_matrices=len(specs), device=device.name,
                 precond=precond, robust=robust)

    out = SuiteResult(device=device.name, precond_kind=precond)
    for spec in specs:
        try:
            res = _run_one(spec)
        except Exception as exc:
            raise SuiteWorkerError(spec.name) from exc
        if res is None:
            continue
        out.results.append(res)
        if progress:
            _report(spec, res)
    if rec.enabled:
        stats = get_cache().stats
        rec.emit("suite_end", n_results=len(out.results),
                 cache_hits=stats.hits, cache_misses=stats.misses,
                 cache_hit_rate=stats.hit_rate,
                 cache_evictions=stats.evictions)
    return out
