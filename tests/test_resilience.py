"""Tests for the resilience layer: fault injection, guards, fallback.

The acceptance scenarios mirror the breakdown modes sparsification can
cause in practice: for each injected fault the *plain* ``spcg`` pipeline
fails or stalls, while ``robust_spcg`` converges to the paper tolerance
and its report names the failure class and the recovering rung.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import spcg
from repro.errors import (AbortSolve, DeviceModelError,
                          NotPositiveDefiniteError, SingularFactorError)
from repro.resilience import (DOWNGRADE, FailureClass, FallbackPolicy,
                              FaultPlan, FaultSpec, GuardConfig, GuardTrip,
                              ResidualGuard, RobustSolveReport,
                              classify_failure, default_ladder,
                              precond_ladder, robust_spcg)
from repro.solvers import (SolveResult, StoppingCriterion,
                           TerminationReason, pcg)
from repro.sparse import CSRMatrix, stencil_poisson_2d


@pytest.fixture(scope="module")
def poisson20() -> CSRMatrix:
    return stencil_poisson_2d(20)


@pytest.fixture(scope="module")
def poisson24() -> CSRMatrix:
    return stencil_poisson_2d(24)


def _rhs(a: CSRMatrix) -> np.ndarray:
    return a.matvec(np.ones(a.n_rows))


def _tolerance_met(report: RobustSolveReport, b: np.ndarray) -> bool:
    crit = StoppingCriterion.paper_default()
    return report.result.final_residual <= crit.threshold(
        float(np.linalg.norm(b)))


# ---------------------------------------------------------------------------
# Acceptance scenarios: plain spcg fails, robust_spcg recovers.
# ---------------------------------------------------------------------------


class TestInjectedFaultScenarios:
    def test_zero_pivot_recovers_by_pivot_boost(self, poisson20):
        b = _rhs(poisson20)
        spec = FaultSpec("zero_pivot", rungs=("spcg",), rows=(0,))

        with pytest.raises(SingularFactorError):
            spcg(poisson20, b, raise_on_zero_pivot=True,
                 fault_plan=FaultPlan(spec))

        report = robust_spcg(poisson20, b, fault_plan=FaultPlan(spec))
        assert report.converged
        assert _tolerance_met(report, b)
        # Recovered on the SAME rung: the ladder retried with boosting.
        assert report.recovered_by == "spcg"
        assert report.failure_classes == ("zero_pivot",)
        assert not report.attempts[0].pivot_boosted
        assert report.attempts[1].pivot_boosted
        assert report.attempts[1].converged

    def test_transient_nan_apply_recovers_by_retry(self, poisson20):
        b = _rhs(poisson20)

        def make_plan():
            return FaultPlan(FaultSpec("nan_apply", rungs=("spcg",),
                                       at_apply=2, max_triggers=1))

        plain = spcg(poisson20, b, fault_plan=make_plan())
        assert not plain.converged
        assert plain.solve.reason is TerminationReason.NUMERICAL_BREAKDOWN

        report = robust_spcg(poisson20, b, fault_plan=make_plan())
        assert report.converged
        assert _tolerance_met(report, b)
        # The fault was transient (max_triggers=1): the same rung's
        # retry succeeds without descending the ladder.
        assert report.recovered_by == "spcg"
        assert report.failure_classes == ("nan_or_inf",)
        assert report.recovered

    def test_corrupted_sparsification_recovers_by_full(self, poisson20):
        b = _rhs(poisson20)

        def make_plan():
            return FaultPlan(FaultSpec("corrupt_values",
                                       rungs=("spcg", "spcg-safe"),
                                       fraction=0.2, scale=1e8))

        plain = spcg(poisson20, b, fault_plan=make_plan())
        assert not plain.converged

        report = robust_spcg(poisson20, b, fault_plan=make_plan())
        assert report.converged
        assert _tolerance_met(report, b)
        # Both sparsified rungs are corrupted; the unsparsified ILU rung
        # is the first healthy one.
        assert report.recovered_by == "full"
        assert report.failure_classes == ("stagnation", "stagnation")
        # The guard aborted the doomed attempts well under the cap.
        assert all(a.n_iters < 1000 for a in report.attempts)

    def test_frozen_apply_stagnation_recovers(self, poisson20):
        b = _rhs(poisson20)

        def make_plan():
            return FaultPlan(FaultSpec("freeze_apply", rungs=("spcg",),
                                       at_apply=3))

        plain = spcg(poisson20, b, fault_plan=make_plan())
        assert not plain.converged
        assert plain.solve.reason is TerminationReason.MAX_ITERATIONS

        report = robust_spcg(poisson20, b, fault_plan=make_plan())
        assert report.converged
        assert _tolerance_met(report, b)
        assert report.recovered_by == "spcg-safe"
        assert report.failure_classes == ("stagnation",)
        assert report.attempts[0].n_iters < 1000

    def test_offset_apply_divergence_recovers(self, poisson24):
        b = _rhs(poisson24)

        def make_plan():
            return FaultPlan(FaultSpec("offset_apply", rungs=("spcg",),
                                       scale=1e11))

        plain = spcg(poisson24, b, fault_plan=make_plan())
        assert not plain.converged

        report = robust_spcg(poisson24, b, fault_plan=make_plan())
        assert report.converged
        assert _tolerance_met(report, b)
        assert report.recovered_by == "spcg-safe"
        assert report.failure_classes[0] == "divergence"
        # Divergence is caught within a few iterations, not at the cap.
        assert report.attempts[0].n_iters < 50

    def test_indefinite_ic0_recovers(self, poisson20):
        b = _rhs(poisson20)

        def make_plan():
            return FaultPlan(FaultSpec("flip_diagonal", rungs=("spcg",),
                                       rows=(0,)))

        with pytest.raises(NotPositiveDefiniteError):
            spcg(poisson20, b, preconditioner="ic0",
                 fault_plan=make_plan())

        report = robust_spcg(poisson20, b, preconditioner="ic0",
                             fault_plan=make_plan())
        assert report.converged
        assert _tolerance_met(report, b)
        assert report.recovered_by == "spcg-safe"
        # First attempt breaks down, the shift-escalated retry still
        # sees the flipped diagonal, then the next rung is healthy.
        assert report.failure_classes == ("indefinite", "indefinite")
        assert report.attempts[1].shifted


# ---------------------------------------------------------------------------
# Fault plan unit behaviour.
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meltdown")

    def test_out_of_scope_matrix_untouched(self, poisson20):
        plan = FaultPlan(FaultSpec("zero_pivot", rungs=("spcg",),
                                   rows=(0,)))
        assert plan.corrupt_matrix(poisson20, "full") is poisson20
        assert plan.total_fired() == 0

    def test_trigger_bookkeeping_and_reset(self, poisson20):
        spec = FaultSpec("zero_pivot", rows=(0,), max_triggers=1)
        plan = FaultPlan(spec)
        c1 = plan.corrupt_matrix(poisson20)
        assert c1 is not poisson20
        assert c1.data[0] == 0.0
        assert plan.fired(spec) == 1
        # Exhausted: the second call is a no-op.
        assert plan.corrupt_matrix(poisson20) is poisson20
        plan.reset()
        assert plan.fired(spec) == 0
        assert plan.corrupt_matrix(poisson20) is not poisson20

    def test_fault_row_out_of_range(self, poisson20):
        plan = FaultPlan(FaultSpec("zero_pivot", rows=(10**6,)))
        with pytest.raises(IndexError):
            plan.corrupt_matrix(poisson20)

    def test_corrupt_values_deterministic(self, poisson20):
        spec = FaultSpec("corrupt_values", fraction=0.1, scale=7.0,
                         seed=42)
        c1 = FaultPlan(spec).corrupt_matrix(poisson20)
        c2 = FaultPlan(spec).corrupt_matrix(poisson20)
        np.testing.assert_array_equal(c1.data, c2.data)
        assert not np.array_equal(c1.data, poisson20.data)

    def test_wrap_preconditioner_passthrough(self, poisson20):
        from repro.precond import IdentityPreconditioner

        m = IdentityPreconditioner(poisson20.n_rows)
        plan = FaultPlan(FaultSpec("nan_apply", rungs=("spcg",)))
        assert plan.wrap(m, "full") is m
        wrapped = plan.wrap(m, "spcg")
        assert wrapped is not m
        assert wrapped.n == m.n


# ---------------------------------------------------------------------------
# Guards.
# ---------------------------------------------------------------------------


class TestResidualGuard:
    def test_nan_trips_immediately(self):
        guard = ResidualGuard(GuardConfig())
        guard(0, 1.0)
        with pytest.raises(GuardTrip) as ei:
            guard(1, float("nan"))
        assert ei.value.failure is FailureClass.NAN_OR_INF
        assert guard.tripped is ei.value

    def test_divergence_trips(self):
        guard = ResidualGuard(GuardConfig(divergence_factor=100.0,
                                          min_iterations=0))
        guard(0, 1.0)
        guard(1, 0.5)
        with pytest.raises(GuardTrip) as ei:
            guard(2, 51.0)
        assert ei.value.failure is FailureClass.DIVERGENCE

    def test_stagnation_trips(self):
        guard = ResidualGuard(GuardConfig(stagnation_window=5,
                                          min_iterations=0))
        with pytest.raises(GuardTrip) as ei:
            for k in range(100):
                guard(k, 1.0)
        assert ei.value.failure is FailureClass.STAGNATION

    def test_floor_suppresses_trips(self):
        cfg = GuardConfig(stagnation_window=5, min_iterations=0,
                          floor=2.0, divergence_factor=10.0)
        guard = ResidualGuard(cfg)
        for k in range(100):  # all at/below floor: never trips
            guard(k, 1.0)
        assert guard.tripped is None

    def test_min_iterations_grace(self):
        guard = ResidualGuard(GuardConfig(divergence_factor=2.0,
                                          min_iterations=10))
        guard(0, 1.0)
        guard(3, 100.0)  # would diverge, but inside the grace period
        with pytest.raises(GuardTrip):
            guard(10, 100.0)

    def test_chain_called_first(self):
        seen = []
        guard = ResidualGuard(GuardConfig(),
                              chain=lambda k, r: seen.append(k))
        guard(0, 1.0)
        with pytest.raises(GuardTrip):
            guard(1, float("inf"))
        assert seen == [0, 1]

    def test_reset(self):
        guard = ResidualGuard(GuardConfig())
        guard(0, 1.0)
        with pytest.raises(GuardTrip):
            guard(1, float("nan"))
        guard.reset()
        assert guard.history == []
        assert guard.tripped is None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GuardConfig(divergence_factor=0.5)
        with pytest.raises(ValueError):
            GuardConfig(stagnation_window=1)
        with pytest.raises(ValueError):
            GuardConfig(stagnation_improvement=0.0)

    def test_guard_aborts_pcg(self, poisson20):
        b = _rhs(poisson20)
        guard = ResidualGuard(GuardConfig(stagnation_window=2,
                                          stagnation_improvement=0.999,
                                          min_iterations=0))
        res = pcg(poisson20, b, callback=guard)
        assert not res.converged
        assert res.reason is TerminationReason.GUARD_TRIPPED
        assert res.extra["abort"] is guard.tripped


class TestClassifyFailure:
    def test_exception_mapping(self):
        from repro.errors import FillLimitExceeded, ReproError

        assert classify_failure(SingularFactorError(0, 0.0)) \
            is FailureClass.ZERO_PIVOT
        assert classify_failure(NotPositiveDefiniteError("i")) \
            is FailureClass.INDEFINITE
        assert classify_failure(FillLimitExceeded("f")) \
            is FailureClass.FILL_EXPLOSION
        assert classify_failure(DeviceModelError("s")) \
            is FailureClass.UNKNOWN
        assert classify_failure(FloatingPointError()) \
            is FailureClass.NAN_OR_INF
        assert classify_failure(ReproError("x")) is FailureClass.UNKNOWN
        assert classify_failure(GuardTrip(FailureClass.DIVERGENCE, 3,
                                          1.0)) \
            is FailureClass.DIVERGENCE

    def test_result_mapping(self):
        def res(reason, converged=False, extra=None):
            return SolveResult(x=np.zeros(1), converged=converged,
                               n_iters=1,
                               residual_norms=np.array([1.0]),
                               reason=reason, tolerance=1e-12,
                               extra=extra or {})

        assert classify_failure(res(TerminationReason.CONVERGED,
                                    converged=True)) is None
        assert classify_failure(res(TerminationReason.MAX_ITERATIONS)) \
            is FailureClass.NO_CONVERGENCE
        assert classify_failure(res(TerminationReason.INDEFINITE)) \
            is FailureClass.INDEFINITE
        assert classify_failure(
            res(TerminationReason.NUMERICAL_BREAKDOWN)) \
            is FailureClass.NAN_OR_INF
        trip = GuardTrip(FailureClass.STAGNATION, 7, 1.0)
        assert classify_failure(res(TerminationReason.GUARD_TRIPPED,
                                    extra={"abort": trip})) \
            is FailureClass.STAGNATION

    def test_unclassifiable_raises(self):
        with pytest.raises(TypeError):
            classify_failure("not an outcome")


# ---------------------------------------------------------------------------
# Fallback ladder mechanics.
# ---------------------------------------------------------------------------


class TestFallbackLadder:
    def test_default_ladder_shape(self):
        names = [r.name for r in default_ladder("ilu0")]
        assert names == ["spcg", "spcg-safe", "full", "ic0", "fsai",
                         "jacobi", "cg"]

    def test_default_ladder_elides_duplicates(self):
        assert "ic0" not in [r.name for r in default_ladder("ic0")]
        assert "fsai" not in [r.name for r in default_ladder("fsai")]
        assert "jacobi" not in [r.name for r in default_ladder("jacobi")]

    @pytest.mark.parametrize("kind", ["ilu0", "iluk", "ic0", "spai",
                                      "fsai", "jacobi"])
    def test_one_downgrade_table(self, kind):
        # The ladder's preconditioner rungs below the unsparsified one
        # are exactly the circuit breaker's downgrades: one table.
        rungs = default_ladder(kind)
        below_full = [r for r in rungs if r.method == "pcg"][1:]
        assert tuple(r.precond for r in below_full) \
            == precond_ladder(kind)[1:]
        assert [r.name for r in below_full] == [r.precond
                                                for r in below_full]
        ladder = precond_ladder(kind)
        assert set(ladder[1:]) <= set(DOWNGRADE)
        # Never an upgrade: each rung sits later in the table.
        levels = [DOWNGRADE.index(x) for x in ladder if x in DOWNGRADE]
        assert levels == sorted(set(levels))
        assert ladder[-1] == "jacobi"

    def test_healthy_solve_single_attempt(self, poisson20):
        b = _rhs(poisson20)
        report = robust_spcg(poisson20, b)
        assert report.converged
        assert report.n_attempts == 1
        assert not report.recovered
        assert report.recovered_by == "spcg"
        assert report.failure_classes == ()
        assert report.decision is not None
        np.testing.assert_allclose(report.x, np.ones(poisson20.n_rows),
                                   atol=1e-6)

    def test_iteration_budget_caps_attempts(self, poisson20):
        b = _rhs(poisson20)
        policy = FallbackPolicy(max_iters_per_attempt=2)
        report = robust_spcg(poisson20, b, policy=policy)
        assert not report.converged
        assert report.recovered_by is None
        assert all(a.n_iters <= 2 for a in report.attempts)
        assert all(a.failure is FailureClass.NO_CONVERGENCE
                   for a in report.attempts)
        # Best-effort result is still returned.
        assert report.result is not None
        assert np.isfinite(report.result.final_residual)

    def test_seconds_budget_caps_iterations(self, poisson20):
        b = _rhs(poisson20)
        # A vanishingly small modeled budget forces the 1-iteration floor.
        policy = FallbackPolicy(seconds_budget_per_attempt=1e-30)
        report = robust_spcg(poisson20, b, policy=policy)
        assert all(a.n_iters <= 1 for a in report.attempts)
        assert all(np.isfinite(a.modeled_seconds)
                   for a in report.attempts if a.n_iters > 0)

    def test_summary_names_attempts(self, poisson20):
        b = _rhs(poisson20)
        plan = FaultPlan(FaultSpec("zero_pivot", rungs=("spcg",),
                                   rows=(0,)))
        report = robust_spcg(poisson20, b, fault_plan=plan)
        text = report.summary()
        assert "zero_pivot" in text
        assert "[boosted]" in text
        assert "recovered by 'spcg'" in text

    def test_user_callback_chained(self, poisson20):
        b = _rhs(poisson20)
        seen = []
        report = robust_spcg(poisson20, b,
                             callback=lambda k, r: seen.append(k))
        assert report.converged
        assert seen[0] == 0
        assert len(seen) >= 2


# ---------------------------------------------------------------------------
# Harness integration.
# ---------------------------------------------------------------------------


class TestHarnessIntegration:
    def test_run_experiment_attaches_report(self, poisson20):
        from repro.harness import run_experiment

        plan = FaultPlan(FaultSpec("zero_pivot", rungs=("spcg",),
                                   rows=(0,)))
        res = run_experiment(poisson20, run_fixed_ratios=False,
                             robust=True, fault_plan=plan)
        assert res.robust is not None
        assert res.robust.converged
        assert res.robust.failure_classes == ("zero_pivot",)
        plain = run_experiment(poisson20, run_fixed_ratios=False)
        assert plain.robust is None

    def test_failed_metrics_carry_failure_class(self, poisson20):
        from repro.harness.experiment import _metrics_for

        plan = FaultPlan(FaultSpec("zero_pivot", rows=(0,)))
        bad = plan.corrupt_matrix(poisson20)
        # ILU(0) with raise-on-zero-pivot off still factors; IC(0) on an
        # indefinite matrix is the reliable failed-build path.
        flip = FaultPlan(FaultSpec("flip_diagonal", rows=(0,)))
        bad = flip.corrupt_matrix(bad)
        m = _metrics_for(poisson20, bad, _rhs(poisson20),
                         __import__("repro.machine",
                                    fromlist=["A100"]).A100,
                         "ic0", 1, "spcg", 10.0, 0.0,
                         StoppingCriterion.paper_default())
        assert m.failed
        assert m.failure_class == "indefinite"
        assert np.isnan(m.per_iteration_seconds)
        assert np.isnan(m.factor_seconds)

    def test_suite_robust_mode(self):
        from repro.datasets import SUITE
        from repro.harness import run_suite

        names = [s.name for s in SUITE][:2]

        def plans(_name):
            return FaultPlan(FaultSpec("zero_pivot", rungs=("spcg",),
                                       rows=(0,)))

        res = run_suite(names, robust=True, fault_plan_factory=plans,
                        run_fixed_ratios=False)
        summary = res.resilience_summary()
        assert summary is not None
        assert summary.n_robust == 2
        assert summary.n_converged == 2
        assert summary.n_recovered == 2
        assert summary.recovery_rate == 1.0
        assert res.failure_taxonomy() == {"zero_pivot": 2}
        assert "zero_pivot" in summary.summary()

        # Robust mode must not perturb the baseline aggregates.
        base = run_suite(names, run_fixed_ratios=False)
        assert base.resilience_summary() is None
        a1 = dataclasses.asdict(res.aggregates())
        a2 = dataclasses.asdict(base.aggregates())
        for key, v1 in a1.items():
            v2 = a2[key]
            if isinstance(v1, float) and np.isnan(v1):
                assert np.isnan(v2)
            else:
                assert v1 == v2

    def test_suite_robust_without_faults_reports_na(self):
        # Zero faulted matrices make the recovery rate *undefined*; the
        # old 0/0 → 0.0 read as "nothing ever recovered".
        from repro.datasets import SUITE
        from repro.harness import run_suite

        names = [s.name for s in SUITE][:2]
        res = run_suite(names, robust=True, run_fixed_ratios=False)
        summary = res.resilience_summary()
        assert summary is not None
        assert summary.n_recovered == 0
        assert summary.failure_taxonomy == ()
        assert np.isnan(summary.recovery_rate)
        assert "n/a (no faults)" in summary.summary()
        assert "recovery rate 0%" not in summary.summary()


# ---------------------------------------------------------------------------
# Solver-level plumbing the resilience layer relies on.
# ---------------------------------------------------------------------------


class TestSolverPlumbing:
    def test_spcg_forwards_callback(self, poisson20):
        b = _rhs(poisson20)
        seen = []
        res = spcg(poisson20, b,
                   callback=lambda k, r: seen.append((k, r)))
        assert res.converged
        assert len(seen) == res.solve.n_iters + 1

    def test_abort_solve_from_spcg_callback(self, poisson20):
        b = _rhs(poisson20)

        def bail(k, _r):
            if k >= 3:
                raise AbortSolve("enough")

        res = spcg(poisson20, b, callback=bail)
        assert not res.converged
        assert res.solve.reason is TerminationReason.GUARD_TRIPPED
        assert isinstance(res.solve.extra["abort"], AbortSolve)
        assert res.solve.n_iters == 3
