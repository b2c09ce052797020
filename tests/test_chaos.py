"""Tests for repro.chaos + the self-healing serving stack.

The load-bearing invariants:

* **Detection is sound and quiet.**  Every injected SpMV bit flip whose
  checksum error exceeds the ABFT tolerance is caught the same sweep;
  flips below it must at worst leave a still-accurate answer; 200 clean
  fixed-seed solves raise zero detections.
* **Recovery is exact.**  Restarting from a verified checkpoint is
  bitwise idempotent, and every corruption-recovered serving outcome
  matches the fault-free sequential solve to 1e-10.
* **Nothing is silently dropped.**  Under any fault schedule, every
  submission gets exactly one terminal outcome — including requests
  cancelled or deadline-expired while awaiting a retry backoff.
* **Healing pays.**  At a 5% per-sweep fault rate the self-healing
  scheduler holds >= 90% audited goodput where the fail-fast baseline
  is materially worse; checkpoint insurance has a visible, monotone
  modeled-time premium.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.batch import SlotDecision, VerifyConfig, pcg_block
from repro.chaos import run_chaos_study
from repro.core.spcg import make_preconditioner
from repro.obs import TraceRecorder, use_recorder
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.report import summarize_trace
from repro.resilience import BOUNDARY_FAULTS, FaultPlan, precond_ladder
from repro.resilience.faults import _flip_bit
from repro.serve import (BatchingWindow, BreakerPolicy, BrownoutPolicy,
                         CircuitBreaker, RequestStatus, RetryPolicy,
                         ServeOutcome, ServeReport, ServeScheduler,
                         percentile)
from repro.solvers import TerminationReason, pcg
from repro.sparse import stencil_poisson_2d

SEED = 12345


def _crash_only(rate: float = 1.0, seed: int = 1) -> FaultPlan:
    """A schedule where every fired fault is a full device crash."""
    return FaultPlan(rate=rate, seed=seed, weights={"crash": 1.0})


# ----------------------------------------------------------------------
class TestChaosPlan:
    def test_zero_rate_never_fires(self):
        plan = FaultPlan(rate=0.0, seed=3)
        assert all(plan.poll(k) is None for k in range(1, 200))
        assert plan.n_events() == 0

    def test_fixed_seed_schedule_is_reproducible(self):
        a, b = (FaultPlan(rate=0.3, seed=9) for _ in range(2))
        for k in range(1, 100):
            ea, eb = a.poll(k), b.poll(k)
            assert (ea is None) == (eb is None)
            if ea is not None:
                assert ea.kind == eb.kind
                assert ea.detail.get("bit") == eb.detail.get("bit")
        assert a.n_events() == b.n_events() > 0

    def test_reset_rewinds_to_the_same_schedule(self):
        plan = FaultPlan(rate=0.5, seed=4)
        first = [plan.poll(k) for k in range(1, 50)]
        plan.reset()
        second = [plan.poll(k) for k in range(1, 50)]
        assert [e and e.kind for e in first] == \
            [e and e.kind for e in second]

    def test_all_kinds_reachable_at_high_rate(self):
        plan = FaultPlan(rate=1.0, seed=0)
        for k in range(1, 300):
            plan.poll(k)
        for kind in BOUNDARY_FAULTS:
            assert plan.n_events(kind) > 0, kind

    def test_bit_flip_is_finite_and_material(self):
        for v in (1.0, -3.7, 1e-6, 2.5e8):
            for bit in range(44, 53):
                w = _flip_bit(v, bit)
                assert math.isfinite(w)
                assert w != v
                assert abs(w - v) >= abs(v) * 2.0 ** -9

    def test_wrapped_matrix_is_transparent_until_armed(self, poisson16,
                                                       make_rng):
        plan = FaultPlan(rate=1.0)  # never polled: nothing is armed
        wrapped = plan.wrap(poisson16)
        p = make_rng(0).standard_normal((poisson16.n_rows, 3))
        np.testing.assert_array_equal(wrapped.matmat(p),
                                      poisson16.matmat(p))
        assert wrapped.nnz == poisson16.nnz  # attribute delegation

    def test_armed_fault_lands_exactly_once(self, poisson16, make_rng):
        plan = FaultPlan(rate=1.0, seed=2, weights={"transient": 1.0})
        wrapped = plan.wrap(poisson16)
        assert plan.poll(1).kind == "transient"
        p = make_rng(1).standard_normal((poisson16.n_rows, 2))
        y = wrapped.matmat(p.copy())
        assert np.isnan(y).sum() == 1
        assert len(plan.injected) == 1
        # Disarmed now: the next call is clean.
        assert np.isfinite(wrapped.matmat(p.copy())).all()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(weights={kind: 0.0 for kind in BOUNDARY_FAULTS})
        with pytest.raises(ValueError):
            FaultPlan(weights={"meltdown": 1.0})


# ----------------------------------------------------------------------
class TestFaultLanding:
    """Where a fault lands: an armed fault changes exactly one entry of
    the next output of its channel — of any width, from any caller —
    and nothing else; unarmed, the proxy is the operator."""

    @staticmethod
    def _channels(a):
        m = make_preconditioner(a, "ilu0")
        return {"matmat": a, "apply": m}

    @pytest.mark.parametrize("width", range(1, 9))
    def test_unarmed_proxy_is_bitwise_transparent(self, poisson16,
                                                   make_rng, width):
        plan = FaultPlan(rate=1.0)  # never polled: nothing is armed
        x = make_rng(width).standard_normal((poisson16.n_rows, width))
        for call, op in self._channels(poisson16).items():
            wrapped = plan.wrap(op)
            assert wrapped is not op
            want = getattr(op, call)(x)
            np.testing.assert_array_equal(getattr(wrapped, call)(x), want)
            out = np.empty_like(x)
            assert getattr(wrapped, call)(x, out=out) is out
            np.testing.assert_array_equal(out, want)
        assert plan.injected == []

    @pytest.mark.parametrize("width", range(1, 9))
    @pytest.mark.parametrize("kind,call", [("transient", "matmat"),
                                           ("sdc_spmv", "matmat"),
                                           ("sdc_trisolve", "apply")])
    def test_armed_fault_changes_one_entry_of_its_channel(
            self, poisson16, make_rng, width, kind, call):
        plan = FaultPlan(rate=1.0, seed=width, weights={kind: 1.0})
        ops = self._channels(poisson16)
        proxies = {c: plan.wrap(op) for c, op in ops.items()}
        x = make_rng(width).standard_normal((poisson16.n_rows, width))
        assert plan.poll(1).kind == kind
        # The other channel's output is untouched, and stays armed-free.
        (other,) = set(ops) - {call}
        np.testing.assert_array_equal(getattr(proxies[other], other)(x),
                                      getattr(ops[other], other)(x))
        assert plan.injected == []
        # Exactly one entry of the armed channel's next output changes
        # (a NaN compares unequal, so it counts as changed).
        clean = getattr(ops[call], call)(x)
        hit = getattr(proxies[call], call)(x)
        assert int((hit != clean).sum()) == 1
        assert plan.injected == plan.events
        # Landed once: the following output is clean again.
        np.testing.assert_array_equal(getattr(proxies[call], call)(x),
                                      clean)

    def test_warm_admission_runs_through_the_proxy(self, poisson16,
                                                   make_rng):
        # A warm start's b − A·x0 is the first SpMV of a block: a fault
        # armed before the block lands there, and the column breaks
        # down at its admission.
        plan = FaultPlan(rate=1.0, seed=0, weights={"transient": 1.0})
        rng = make_rng(3)
        b = rng.standard_normal(poisson16.n_rows)
        x0 = rng.standard_normal((poisson16.n_rows, 1))
        plan.poll(1)
        res = pcg_block(plan.wrap(poisson16), b,
                        make_preconditioner(poisson16, "jacobi"), x0=x0)
        assert len(plan.injected) == 1
        assert res.reasons[0] is TerminationReason.NUMERICAL_BREAKDOWN
        assert res.n_iters[0] == 0

    def test_true_residual_check_runs_through_the_proxy(self, poisson16,
                                                        make_rng):
        # Armed after a sweep's SpMV, a fault lands on the next matmat:
        # the boundary's true-residual check, which then reports drift.
        plan = FaultPlan(rate=1.0, seed=0, weights={"transient": 1.0})
        b = make_rng(4).standard_normal(poisson16.n_rows)

        def arm_at_3(k, _norms):
            if k == 3:
                plan.poll(k)

        res = pcg_block(plan.wrap(poisson16), b,
                        make_preconditioner(poisson16, "jacobi"),
                        callback=arm_at_3,
                        verify=VerifyConfig(residual_check_every=1))
        (caught,) = res.extra["verify"]["detections"]
        assert caught["method"] == "residual" and caught["sweep"] == 4
        assert plan.injected == plan.events
        assert res.reasons[0] is TerminationReason.CORRUPTED


# ----------------------------------------------------------------------
class _FlipOnce:
    """Matrix proxy flipping one bit of one sweep-SpMV output entry,
    recording whether the flip exceeded the ABFT tolerance."""

    def __init__(self, inner, *, sweep, row, col, bit, abft_rtol):
        self._inner = inner
        self._sweep = sweep
        self._row, self._col, self._bit = row, col, bit
        self._abft_rtol = abft_rtol
        self._calls = 0
        self.delta = None
        self.above_tol = None

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def matmat(self, x, out=None):
        y = self._inner.matmat(x, out=out)
        self._calls += 1
        if self._calls == self._sweep:
            col = self._col % y.shape[1]
            before = float(y[self._row, col])
            after = _flip_bit(before, self._bit)
            y[self._row, col] = after
            self.delta = abs(after - before)
            abs_s = np.zeros(self._inner.n_rows)
            np.add.at(abs_s, self._inner.indices,
                      np.abs(self._inner.data))
            tol = self._abft_rtol * float(abs_s @ np.abs(x[:, col]))
            self.above_tol = self.delta > tol
            self.flipped_col = col
        return y


class TestChecksumDetection:
    @settings(max_examples=25, deadline=None)
    @given(row=st.integers(0, 63), col=st.integers(0, 2),
           bit=st.integers(44, 52), sweep=st.integers(1, 5))
    def test_flip_above_tolerance_is_caught_same_sweep(self, row, col,
                                                       bit, sweep):
        a = stencil_poisson_2d(8)
        rng = np.random.default_rng(SEED)
        b = rng.standard_normal((a.n_rows, 3))
        m = make_preconditioner(a, "jacobi")
        verify = VerifyConfig(residual_check_every=None)
        wrapped = _FlipOnce(a, sweep=sweep, row=row, col=col, bit=bit,
                            abft_rtol=verify.abft_rtol)
        res = pcg_block(wrapped, b, m, verify=verify)
        assert wrapped.delta is not None, "solve ended before the flip"
        j = wrapped.flipped_col
        detections = res.extra["verify"]["detections"]
        if wrapped.above_tol:
            # Caught at the very sweep it landed, classified abft.
            assert res.reasons[j] is TerminationReason.CORRUPTED
            assert any(d["key"] == j and d["method"] == "abft"
                       and d["sweep"] == sweep for d in detections)
        elif not detections:
            # Sub-tolerance flip that slipped through must be harmless:
            # the returned iterate still truly solves the system.
            assert res.converged[j]
            resid = np.linalg.norm(b[:, j] - a.matvec(res.x[:, j]))
            assert resid <= 1e-6 * np.linalg.norm(b[:, j])
        # Untouched columns never trip a detector.
        for d in detections:
            assert d["key"] == j

    def test_zero_false_positives_over_200_clean_solves(self, poisson16):
        m = make_preconditioner(poisson16, "ilu0")
        verify = VerifyConfig(residual_check_every=5)
        rng = np.random.default_rng(SEED)
        n_solved = 0
        for _ in range(25):
            b = rng.standard_normal((poisson16.n_rows, 8))
            res = pcg_block(poisson16, b, m, verify=verify)
            assert res.extra["verify"]["detections"] == []
            assert res.converged.all()
            assert res.extra["verify"]["n_abft_checks"] > 0
            n_solved += 8
        assert n_solved == 200


# ----------------------------------------------------------------------
class TestCheckpointRestart:
    def _capture(self, a, b, m, at_sweep):
        box = {}

        def hook(sweep, active_keys, view):
            if sweep == at_sweep and 0 in active_keys:
                box["cp"] = view.capture(0)
            return None

        res = pcg_block(a, b, m, slot_hook=hook, keys=[0])
        return box["cp"], res

    def _resume(self, a, b, m, cp, key=99):
        def hook(sweep, active_keys, view):
            if sweep == 1:
                return SlotDecision(admit=[(key, b, cp)])
            return None

        res = pcg_block(a, np.zeros((a.n_rows, 0)), m, slot_hook=hook)
        j = res.extra["serve"]["keys"].index(key)
        return res, j

    def test_restart_twice_is_bitwise_identical(self, poisson16,
                                                make_rng):
        b = make_rng(0).standard_normal(poisson16.n_rows)
        m = make_preconditioner(poisson16, "jacobi")
        cp, _ = self._capture(poisson16, b, m, at_sweep=6)
        assert cp.iters == 5
        assert len(cp.history) == cp.iters + 1
        r1, j1 = self._resume(poisson16, b, m, cp)
        r2, j2 = self._resume(poisson16, b, m, cp)
        assert np.array_equal(r1.x[:, j1], r2.x[:, j2])
        assert r1.n_iters[j1] == r2.n_iters[j2]
        np.testing.assert_array_equal(r1.residual_norms[j1],
                                      r2.residual_norms[j2])

    def test_resumed_trajectory_matches_uninterrupted_solve(
            self, poisson16, make_rng):
        b = make_rng(1).standard_normal(poisson16.n_rows)
        m = make_preconditioner(poisson16, "jacobi")
        cp, full = self._capture(poisson16, b, m, at_sweep=9)
        res, j = self._resume(poisson16, b, m, cp)
        assert res.converged[j]
        assert res.n_iters[j] == full.n_iters[0]
        assert np.max(np.abs(res.x[:, j] - full.x[:, 0])) <= 1e-10
        # And the block result itself matches a sequential solve.
        seq = pcg(poisson16, b, m)
        assert np.max(np.abs(res.x[:, j] - seq.x)) <= 1e-10


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def healing_run():
    """One traced self-healing serving run at a 5% fault rate (the
    acceptance configuration), shared across assertion classes."""
    a = stencil_poisson_2d(16)
    rng = np.random.default_rng(SEED)
    bs = [rng.standard_normal(a.n_rows) for _ in range(32)]
    plan = FaultPlan(rate=0.05, seed=7)
    rec = TraceRecorder()
    metrics = MetricsRegistry()
    with use_recorder(rec), use_metrics(metrics):
        sched = ServeScheduler(
            preconditioner="jacobi",
            window=BatchingWindow(max_wait_s=1e-4, max_batch=8),
            retry=RetryPolicy(max_retries=4, checkpoint_every=10),
            breaker=BreakerPolicy(threshold=4),
            chaos=plan)
        for i, b in enumerate(bs):
            sched.submit(a, b, tag=f"r{i}", arrival_s=i * 2e-4)
        report = sched.run()
    return a, bs, plan, report, rec.events(), metrics


class TestSelfHealingServe:
    def test_no_silent_drops(self, healing_run):
        _, bs, _, report, _, _ = healing_run
        assert len(report.outcomes) == len(bs)
        assert sorted(o.req_id for o in report.outcomes) == \
            list(range(len(bs)))
        terminal = (RequestStatus.COMPLETED, RequestStatus.SHED,
                    RequestStatus.CANCELLED)
        assert all(o.status in terminal for o in report.outcomes)

    def test_recovered_outcomes_match_fault_free_solve(self, healing_run):
        a, bs, _, report, _, _ = healing_run
        m = make_preconditioner(a, "jacobi")
        recovered = [o for o in report.outcomes
                     if o.extra.get("recovered", 0) > 0
                     and o.status is RequestStatus.COMPLETED
                     and o.result is not None and o.result.converged]
        assert recovered, "the 5% schedule must exercise recovery"
        for o in recovered:
            ref = pcg(a, bs[o.req_id], m)
            assert np.max(np.abs(o.result.x - ref.x)) <= 1e-10

    def test_faults_were_injected_and_healed(self, healing_run):
        _, _, plan, report, _, metrics = healing_run
        assert plan.n_events() > 0
        assert report.n_retried > 0
        assert report.n_recovered > 0
        assert metrics.counter("chaos.faults") == plan.n_events()
        assert metrics.counter("serve.checkpoints") > 0
        assert metrics.counter("serve.restarts") >= report.n_recovered

    def test_trace_ledger_aggregates_chaos_events(self, healing_run):
        _, _, plan, _, events, _ = healing_run
        chaos = summarize_trace(events)["chaos"]
        assert sum(chaos["faults"].values()) == plan.n_events()
        assert chaos["retries"] > 0
        assert chaos["restarts"] > 0
        assert chaos["checkpoints"] > 0

    def test_goodput_floor_and_baseline_gap(self):
        res = run_chaos_study(rates=(0.05,))
        heal = res.row(0.05, "self_healing")
        base = res.row(0.05, "no_retry")
        assert heal.n_requests == 32
        assert heal.goodput >= 0.90
        assert heal.goodput - base.goodput >= 0.25
        assert heal.n_recovered > 0

    def test_study_json_roundtrip(self):
        res = run_chaos_study(rates=(0.0,), n_requests=4)
        d = json.loads(json.dumps(res.as_dict(), allow_nan=False))
        assert d["rows"][0]["goodput"] == 1.0
        assert "| fault rate |" in res.summary_table()


def _independent_residual(a, x, b) -> float:
    """``‖b − A·x‖`` from the CSR arrays with ``np.bincount`` — not
    through the program's SpMV, which a fault can reach."""
    rows = np.repeat(np.arange(a.n_rows), np.diff(a.indptr))
    ax = np.bincount(rows, weights=a.data * x[a.indices],
                     minlength=a.n_rows)
    return float(np.linalg.norm(b - ax))


class TestAuditProperty:
    # Every seed in range holds on this tree (all 7,200 cases swept),
    # so a draw that fails is a regression, never a flake.
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1199),
           rate=st.sampled_from((0.05, 0.1, 0.2)),
           precond=st.sampled_from(("ilu0", "jacobi")))
    def test_healed_converged_answers_pass_independent_recheck(
            self, seed, rate, precond):
        # Self-healing serving never reports a wrong answer converged:
        # every such outcome's true residual is within 1e-6·‖b‖.
        a = stencil_poisson_2d(16)
        rng = np.random.default_rng(SEED)
        bs = [rng.standard_normal(a.n_rows) for _ in range(16)]
        sched = ServeScheduler(
            preconditioner=precond,
            window=BatchingWindow(max_wait_s=1e-4, max_batch=8),
            retry=RetryPolicy(max_retries=4, checkpoint_every=10),
            breaker=BreakerPolicy(threshold=4),
            chaos=FaultPlan(rate=rate, seed=seed))
        for i, b in enumerate(bs):
            sched.submit(a, b, arrival_s=i * 2e-4)
        report = sched.run()
        assert len(report.outcomes) == len(bs)
        for o in report.outcomes:
            if o.result is not None and o.result.converged:
                b = bs[o.req_id]
                assert _independent_residual(a, o.result.x, b) \
                    <= 1e-6 * np.linalg.norm(b), (seed, rate, precond)


# ----------------------------------------------------------------------
class TestRetryBookkeeping:
    def _one_request_sched(self, retry, *, chaos, deadline_s=None,
                           preconditioner="jacobi", breaker=None):
        a = stencil_poisson_2d(8)
        b = np.random.default_rng(SEED).standard_normal(a.n_rows)
        sched = ServeScheduler(preconditioner=preconditioner,
                               retry=retry, breaker=breaker, chaos=chaos)
        rid = sched.submit(a, b, deadline_s=deadline_s)
        return sched, rid

    def test_cancel_during_retry_backoff_sheds_exactly_once(self):
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            sched, rid = self._one_request_sched(
                RetryPolicy(max_retries=3, backoff_base_s=1.0),
                chaos=_crash_only())
            sched.cancel(rid, at_s=0.5)
            report = sched.run()
        assert len(report.outcomes) == 1
        out = report.outcomes[0]
        assert out.status is RequestStatus.SHED
        assert out.shed_reason == "cancelled"
        assert metrics.counter("serve.shed") == 1
        assert metrics.counter("serve.retry_scheduled") == 1

    def test_deadline_expiry_during_backoff_sheds_exactly_once(self):
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            sched, _ = self._one_request_sched(
                RetryPolicy(max_retries=3, backoff_base_s=1.0),
                chaos=_crash_only(), deadline_s=0.5)
            report = sched.run()
        assert len(report.outcomes) == 1
        out = report.outcomes[0]
        assert out.status is RequestStatus.SHED
        assert out.shed_reason == "deadline_queued"
        assert metrics.counter("serve.shed") == 1

    def test_exhausted_retries_terminate_with_device_crash(self):
        sched, rid = self._one_request_sched(
            RetryPolicy(max_retries=1, backoff_base_s=1e-3),
            chaos=_crash_only())
        report = sched.run()
        assert len(report.outcomes) == 1
        out = report.outcomes[0]
        assert out.status is RequestStatus.COMPLETED
        assert out.result is not None and not out.result.converged
        assert out.result.reason is TerminationReason.DEVICE_CRASH
        assert out.extra["attempts"] == 1


# ----------------------------------------------------------------------
class TestBreakerAndBrownout:
    def test_precond_ladder_never_upgrades(self):
        assert precond_ladder("ilu0") == ("ilu0", "ic0", "fsai", "jacobi")
        assert precond_ladder("ic0") == ("ic0", "fsai", "jacobi")
        assert precond_ladder("spai") == ("spai", "ic0", "fsai", "jacobi")
        assert precond_ladder("fsai") == ("fsai", "jacobi")
        assert precond_ladder("jacobi") == ("jacobi",)

    def test_circuit_breaker_opens_and_cools_down(self):
        brk = CircuitBreaker(BreakerPolicy(threshold=2, cooldown_s=1.0),
                             n_rungs=3)
        assert not brk.record_failure(0.0)
        assert brk.record_failure(0.0)  # threshold: rung 0 -> 1
        assert brk.rung == 1
        assert not brk.record_success(0.5)  # still cooling down
        assert brk.record_success(2.0)  # cooled: rung 1 -> 0
        assert brk.rung == 0

    def test_breaker_downgrades_preconditioner_across_dispatches(self):
        a = stencil_poisson_2d(8)
        rng = np.random.default_rng(SEED)
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            sched = ServeScheduler(preconditioner="ilu0",
                                   breaker=BreakerPolicy(threshold=2),
                                   chaos=_crash_only())
            for i in range(6):
                sched.submit(a, rng.standard_normal(a.n_rows),
                             arrival_s=i * 0.5)
            report = sched.run()
        kinds = [d.kind for d in report.dispatches]
        assert kinds[0] == "ilu0"
        assert "ic0" in kinds  # breaker walked the ladder down
        assert metrics.counter("serve.breaker_open") >= 1

    def test_brownout_enters_under_backlog_and_exits(self, make_rng):
        a = stencil_poisson_2d(16)
        rng = make_rng(2)
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            sched = ServeScheduler(
                preconditioner="jacobi",
                window=BatchingWindow(max_wait_s=1e-5, max_batch=4,
                                      continuous=False),
                brownout=BrownoutPolicy(enter_backlog_s=1e-9,
                                        exit_backlog_s=5e-10,
                                        tolerance_factor=100.0,
                                        downgrade=False))
            for i in range(12):
                sched.submit(a, rng.standard_normal(a.n_rows),
                             arrival_s=0.0)
            report = sched.run()
        assert any(d.browned_out for d in report.dispatches)
        assert not report.dispatches[-1].browned_out  # drained: exited
        assert metrics.counter("serve.brownout_entered") >= 1
        assert metrics.counter("serve.brownout_exited") >= 1
        assert report.n_completed == 12

    def test_brownout_policy_requires_hysteresis(self):
        with pytest.raises(ValueError):
            BrownoutPolicy(enter_backlog_s=1.0, exit_backlog_s=2.0)


# ----------------------------------------------------------------------
class TestCheckpointPremium:
    def test_makespan_strictly_increases_with_checkpoint_frequency(self):
        a = stencil_poisson_2d(16)
        rng = np.random.default_rng(SEED)
        bs = [rng.standard_normal(a.n_rows) for _ in range(8)]
        spans = []
        for every in (20, 10, 5):
            sched = ServeScheduler(
                preconditioner="jacobi",
                window=BatchingWindow(max_wait_s=1e-5, max_batch=8),
                retry=RetryPolicy(checkpoint_every=every))
            for b in bs:
                sched.submit(a, b, arrival_s=0.0)
            report = sched.run()
            assert report.n_completed == len(bs)
            spans.append(report.makespan_s)
        assert spans[0] < spans[1] < spans[2]


# ----------------------------------------------------------------------
class TestPercentileProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=1,
                    max_size=40))
    def test_percentiles_are_monotone(self, values):
        p50 = percentile(values, 50)
        p95 = percentile(values, 95)
        p99 = percentile(values, 99)
        assert p50 <= p95 <= p99
        assert min(values) <= p50 and p99 <= max(values)

    def test_empty_set_is_nan_not_crash(self):
        assert math.isnan(percentile([], 50))
        assert math.isnan(percentile([float("nan")], 95))

    def test_singleton_is_its_own_percentile(self):
        for q in (0, 50, 95, 99, 100):
            assert percentile([3.25], q) == 3.25

    def test_empty_report_renders_without_nan(self):
        report = ServeReport(outcomes=[], dispatches=[], makespan_s=0.0)
        table = report.slo_table()
        assert "nan" not in table.lower()
        assert "n/a" in table
        payload = json.dumps(report.as_dict(), allow_nan=False)
        assert "NaN" not in payload

    def test_single_outcome_report_is_json_safe(self):
        out = ServeOutcome(req_id=0, tag="only",
                           status=RequestStatus.SHED,
                           shed_reason="queue_depth")
        report = ServeReport(outcomes=[out], dispatches=[],
                             makespan_s=0.0)
        assert "nan" not in report.slo_table().lower()
        d = json.loads(json.dumps(report.as_dict(), allow_nan=False))
        assert d["n_requests"] == 1
        assert d["goodput_fraction"] == 0.0
