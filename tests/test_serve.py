"""Tests for repro.serve — online serving with continuous batching.

The load-bearing invariants:

* **Serving is semantically invisible.**  Every completed request's
  result must match a fresh sequential :func:`~repro.solvers.cg.pcg`
  on that ``(A, b)`` alone — including requests admitted into freed
  slots mid-block.  Slot admission must not perturb resident columns.
* **Continuous batching pays.**  At a fixed seed, rolling admission
  must strictly beat flush-style batching and per-request dispatch on
  both occupancy-at-capacity and modeled p99 latency.
* **Deadlines are honoured at the right place.**  Expiry while queued
  sheds the request (it never holds a slot); expiry mid-solve freezes
  the column at an iteration boundary with reason ``timed_out``.
"""

import math

import numpy as np
import pytest

from repro.batch import SolverService
from repro.core.spcg import make_preconditioner
from repro.errors import InvalidRequestError, QueueFullError, ShapeError
from repro.machine import A100, iteration_cost
from repro.obs import TraceRecorder, get_metrics, use_recorder
from repro.obs.report import summarize_trace
from repro.serve import (AdmissionPolicy, BatchingWindow, LoadSpec,
                         RequestQueue, RequestStatus, ServeRequest,
                         ServeScheduler, percentile, poisson_arrivals,
                         run_loadgen, validate_rhs)
from repro.solvers import StoppingCriterion, TerminationReason, pcg


def _req(req_id, fingerprint="fp", priority=0, deadline_s=None,
         arrival_s=0.0):
    """A queue-level request stub (matrix never touched by the queue)."""
    return ServeRequest(req_id=req_id, a=None, b=None,
                        fingerprint=fingerprint, priority=priority,
                        deadline_s=deadline_s, arrival_s=arrival_s)


def _iter_cost(a, kind="ilu0", batch=1):
    m = make_preconditioner(a, kind)
    return iteration_cost(A100, a, m, batch=batch).total


# ----------------------------------------------------------------------
class TestValidateRhs:
    def test_good_rhs_passes_through(self, poisson16, make_rng):
        b = make_rng(0).standard_normal(poisson16.n_rows)
        out = validate_rhs(poisson16, b)
        assert out.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(out, b)

    def test_wrong_length_raises_shape_error(self, poisson16):
        with pytest.raises(ShapeError):
            validate_rhs(poisson16, np.ones(poisson16.n_rows - 1))

    def test_2d_rhs_raises_shape_error(self, poisson16):
        with pytest.raises(ShapeError):
            validate_rhs(poisson16, np.ones((poisson16.n_rows, 2)))

    def test_nan_names_tag_and_counts(self, poisson16):
        b = np.ones(poisson16.n_rows)
        b[3] = np.nan
        b[7] = np.inf
        with pytest.raises(InvalidRequestError, match=r"'case-9'.*2 "):
            validate_rhs(poisson16, b, tag="case-9")

    def test_complex_rejected(self, poisson16):
        b = np.ones(poisson16.n_rows, dtype=complex)
        with pytest.raises(InvalidRequestError, match="complex"):
            validate_rhs(poisson16, b)

    def test_non_numeric_rejected(self, poisson16):
        b = np.array(["x"] * poisson16.n_rows)
        with pytest.raises(InvalidRequestError, match="dtype"):
            validate_rhs(poisson16, b)

    def test_integer_rhs_accepted(self, poisson16):
        out = validate_rhs(poisson16, np.ones(poisson16.n_rows, dtype=int))
        assert out.shape == (poisson16.n_rows,)

    def test_service_submit_validates(self, poisson16):
        """Satellite regression: a NaN b fails at SolverService.submit,
        naming the offending tag — not mid-flush inside the block."""
        svc = SolverService(preconditioner="jacobi")
        b = np.ones(poisson16.n_rows)
        b[0] = np.nan
        with pytest.raises(InvalidRequestError, match="load-case-3"):
            svc.submit(poisson16, b, tag="load-case-3")
        assert len(svc) == 0  # nothing was queued

    def test_scheduler_submit_validates(self, poisson16):
        sched = ServeScheduler(preconditioner="jacobi")
        with pytest.raises(ShapeError):
            sched.submit(poisson16, np.ones(3), tag="short")


# ----------------------------------------------------------------------
class TestAdmissionPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_depth=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(max_backlog_s=0.0)
        assert AdmissionPolicy.unbounded().max_depth is None

    def test_depth_cap(self):
        q = RequestQueue(AdmissionPolicy(max_depth=2))
        assert q.try_push(_req(0)) is None
        assert q.try_push(_req(1)) is None
        assert q.try_push(_req(2)) == "queue_depth"
        with pytest.raises(QueueFullError) as exc:
            q.push(_req(3))
        assert exc.value.reason == "queue_depth"
        assert q.depth == 2

    def test_backlog_cap_prices_work_ahead(self):
        q = RequestQueue(AdmissionPolicy(max_backlog_s=1.5),
                         estimator=lambda r: 1.0)
        # Empty queue always admits, however expensive the request.
        assert q.try_push(_req(0)) is None
        assert q.backlog_seconds() == pytest.approx(1.0)
        assert q.try_push(_req(1)) is None  # 1.0 ahead <= 1.5
        assert q.try_push(_req(2)) == "backlog_seconds"  # 2.0 ahead
        q.remove(0)
        assert q.backlog_seconds() == pytest.approx(1.0)
        assert q.try_push(_req(3)) is None

    def test_backlog_resets_at_empty(self):
        q = RequestQueue(AdmissionPolicy(max_backlog_s=5.0),
                         estimator=lambda r: 1.0)
        for i in range(3):
            q.push(_req(i))
        for i in range(3):
            q.remove(i)
        assert q.backlog_seconds() == 0.0

    def test_estimator_skipped_without_backlog_bound(self):
        calls = []

        def estimator(r):
            calls.append(r.req_id)
            return 1.0

        q = RequestQueue(AdmissionPolicy(max_depth=10),
                         estimator=estimator)
        q.push(_req(0))
        assert calls == []  # never priced: depth-only admission

    def test_expire_removes_due_deadlines(self):
        q = RequestQueue()
        q.push(_req(0, deadline_s=1.0))
        q.push(_req(1, deadline_s=3.0))
        q.push(_req(2))  # no deadline
        dead = q.expire(2.0)
        assert [r.req_id for r in dead] == [0]
        assert q.depth == 2
        assert q.next_deadline() == 3.0

    def test_group_orders_by_priority_then_arrival(self):
        q = RequestQueue()
        q.push(_req(0, arrival_s=0.0, priority=1))
        q.push(_req(1, arrival_s=1.0, priority=0))
        q.push(_req(2, arrival_s=0.5, priority=0))
        assert [r.req_id for r in q.group("fp")] == [2, 1, 0]

    def test_fingerprints_fifo_by_oldest_member(self):
        q = RequestQueue()
        q.push(_req(0, fingerprint="b", arrival_s=1.0))
        q.push(_req(1, fingerprint="a", arrival_s=2.0))
        q.push(_req(2, fingerprint="b", arrival_s=0.5))
        assert q.fingerprints() == ["b", "a"]


# ----------------------------------------------------------------------
class TestBatchingWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchingWindow(max_wait_s=-1.0)
        with pytest.raises(ValueError):
            BatchingWindow(max_batch=0)

    def test_degenerate_is_flush_semantics(self):
        w = BatchingWindow.degenerate()
        assert w.max_wait_s == 0.0
        assert w.max_batch is None


class TestPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 99))

    def test_nearest_rank(self):
        vals = [4.0, 1.0, 3.0, 2.0]
        assert percentile(vals, 50) == 2.0
        assert percentile(vals, 99) == 4.0
        assert percentile(vals, 0) == 1.0


# ----------------------------------------------------------------------
class TestSchedulerBasics:
    def test_single_request_matches_sequential(self, poisson16, make_rng):
        b = make_rng(60).standard_normal(poisson16.n_rows)
        sched = ServeScheduler(preconditioner="ilu0")
        rid = sched.submit(poisson16, b, tag="solo")
        rep = sched.run()
        out = sched.outcome(rid)
        assert out.completed
        seq = pcg(poisson16, b, make_preconditioner(poisson16, "ilu0"))
        assert out.result.n_iters == seq.n_iters
        assert out.result.reason is seq.reason
        np.testing.assert_allclose(out.result.x, seq.x, rtol=0,
                                   atol=1e-10)
        assert rep.n_completed == 1
        assert rep.makespan_s > 0

    def test_widths_match_block_record(self, poisson16, make_rng):
        rng = make_rng(61)
        sched = ServeScheduler(
            preconditioner="jacobi",
            window=BatchingWindow(max_wait_s=1e-3, max_batch=4))
        for i in range(6):
            sched.submit(poisson16,
                         rng.standard_normal(poisson16.n_rows),
                         arrival_s=i * 1e-4)
        sched.run()
        for d in sched.report().dispatches:
            assert d.widths == d.block.extra["serve"]["widths"]
            assert d.sweeps == len(d.widths)
            assert 0.0 < d.occupancy <= 1.0

    def test_report_slo_table_and_dict(self, poisson16, make_rng):
        sched = ServeScheduler(preconditioner="jacobi")
        sched.submit(poisson16,
                     make_rng(62).standard_normal(poisson16.n_rows))
        rep = sched.run()
        table = rep.slo_table()
        for needle in ("mean batch occupancy", "p99 latency [model s]",
                       "throughput [req/model s]"):
            assert needle in table
        d = rep.as_dict()
        assert d["n_completed"] == 1
        assert d["latency_modeled_s"]["p99"] > 0
        assert d["latency_wall_s"]["p99"] > 0


# ----------------------------------------------------------------------
class TestDeadlines:
    def test_expiry_while_queued_sheds_without_dispatch(self, poisson16,
                                                        make_rng):
        b = make_rng(63).standard_normal(poisson16.n_rows)
        sched = ServeScheduler(
            preconditioner="ilu0",
            window=BatchingWindow(max_wait_s=0.1))
        rid = sched.submit(poisson16, b, arrival_s=0.0, deadline_s=0.05)
        rep = sched.run()
        out = sched.outcome(rid)
        assert out.status is RequestStatus.SHED
        assert out.shed_reason == "deadline_queued"
        assert out.t_dispatch is None  # never held a slot
        assert rep.dispatches == []  # never ran at all
        assert math.isnan(out.latency_s)

    def test_deadline_mid_solve_cancels_at_boundary(self, poisson16,
                                                    make_rng):
        b = make_rng(64).standard_normal(poisson16.n_rows)
        cost = _iter_cost(poisson16)
        seq = pcg(poisson16, b, make_preconditioner(poisson16, "ilu0"))
        assert seq.n_iters > 5  # the deadline must actually bite
        sched = ServeScheduler(preconditioner="ilu0")
        rid = sched.submit(poisson16, b, arrival_s=0.0,
                           deadline_s=3.5 * cost)
        sched.run()
        out = sched.outcome(rid)
        assert out.status is RequestStatus.CANCELLED
        assert out.result.reason is TerminationReason.TIMED_OUT
        assert not out.result.converged
        # Frozen at an iteration boundary shortly past the deadline.
        assert 1 <= out.result.n_iters < seq.n_iters
        assert not out.deadline_met

    def test_cancel_completed_is_noop(self, poisson16, make_rng):
        sched = ServeScheduler(preconditioner="jacobi")
        rid = sched.submit(poisson16,
                           make_rng(65).standard_normal(poisson16.n_rows))
        sched.run()
        assert sched.cancel(rid) is False
        assert sched.outcome(rid).completed

    def test_cancel_queued_sheds_immediately(self, poisson16, make_rng):
        sched = ServeScheduler(
            preconditioner="jacobi",
            window=BatchingWindow(max_wait_s=1.0))
        rid = sched.submit(poisson16,
                           make_rng(66).standard_normal(poisson16.n_rows))
        assert sched.cancel(rid) is True
        out = sched.outcome(rid)
        assert out.status is RequestStatus.SHED
        assert out.shed_reason == "cancelled"

    def test_scheduled_cancel_mid_solve(self, poisson16, make_rng):
        b = make_rng(67).standard_normal(poisson16.n_rows)
        cost = _iter_cost(poisson16)
        sched = ServeScheduler(preconditioner="ilu0")
        rid = sched.submit(poisson16, b, arrival_s=0.0)
        assert sched.cancel(rid, at_s=2.5 * cost) is True
        sched.run()
        out = sched.outcome(rid)
        assert out.status is RequestStatus.CANCELLED
        assert out.result.reason is TerminationReason.CANCELLED

    def test_unknown_request_id_raises(self, poisson16):
        sched = ServeScheduler()
        with pytest.raises(KeyError):
            sched.cancel(99)


# ----------------------------------------------------------------------
class TestBackpressure:
    def test_immediate_depth_overflow_raises(self, poisson16, make_rng):
        rng = make_rng(68)
        sched = ServeScheduler(
            preconditioner="jacobi",
            policy=AdmissionPolicy(max_depth=2),
            window=BatchingWindow(max_wait_s=1.0))
        for _ in range(2):
            sched.submit(poisson16,
                         rng.standard_normal(poisson16.n_rows))
        with pytest.raises(QueueFullError) as exc:
            sched.submit(poisson16,
                         rng.standard_normal(poisson16.n_rows))
        assert exc.value.reason == "queue_depth"

    def test_deferred_overflow_becomes_shed_outcome(self, poisson16,
                                                    make_rng):
        rng = make_rng(69)
        sched = ServeScheduler(
            preconditioner="jacobi",
            policy=AdmissionPolicy(max_depth=2),
            window=BatchingWindow(max_wait_s=0.01))
        ids = [sched.submit(poisson16,
                            rng.standard_normal(poisson16.n_rows),
                            arrival_s=0.0)
               for _ in range(3)]
        rep = sched.run()
        statuses = [sched.outcome(i).status for i in ids]
        assert statuses.count(RequestStatus.SHED) == 1
        shed = [sched.outcome(i) for i in ids
                if sched.outcome(i).status is RequestStatus.SHED][0]
        assert shed.shed_reason == "queue_depth"
        assert rep.n_completed == 2
        assert rep.shed_by_reason == {"queue_depth": 1}

    def test_backlog_backpressure(self, poisson16, make_rng):
        rng = make_rng(70)
        # Make the a-priori estimate certainly exceed the bound so the
        # second immediate submission sees too much work ahead of it.
        sched = ServeScheduler(
            preconditioner="ilu0",
            policy=AdmissionPolicy(max_backlog_s=1e-9),
            window=BatchingWindow(max_wait_s=1.0))
        sched.submit(poisson16, rng.standard_normal(poisson16.n_rows))
        with pytest.raises(QueueFullError) as exc:
            sched.submit(poisson16,
                         rng.standard_normal(poisson16.n_rows))
        assert exc.value.reason == "backlog_seconds"


# ----------------------------------------------------------------------
def _occ_at(report, capacity):
    """Occupancy against a fixed capacity B, comparable across window
    configurations (DispatchRecord.occupancy uses its own capacity)."""
    num = sum(sum(d.widths) for d in report.dispatches)
    den = sum(capacity * d.sweeps for d in report.dispatches)
    return num / den if den else float("nan")


class TestContinuousBatching:
    """The acceptance comparison: continuous batching strictly beats
    flush-style batching and per-request dispatch at a fixed seed."""

    B = 4

    def _serve(self, poisson16, *, continuous, max_batch):
        sched = ServeScheduler(
            preconditioner="ilu0",
            window=BatchingWindow(max_wait_s=5e-4, max_batch=max_batch,
                                  continuous=continuous))
        spec = LoadSpec(n_requests=32, rate_rps=1500.0, seed=12345)
        return run_loadgen(sched, [poisson16], spec)

    def test_beats_flush_and_per_request(self, poisson16):
        cont = self._serve(poisson16, continuous=True, max_batch=self.B)
        flush = self._serve(poisson16, continuous=False,
                            max_batch=self.B)
        solo = self._serve(poisson16, continuous=True, max_batch=1)

        for rep in (cont, flush, solo):
            assert rep.n_completed == 32
            assert rep.n_shed == 0

        # Occupancy at the shared slot capacity B: continuous keeps
        # freed slots busy, flush-style lets them drain idle.
        assert _occ_at(cont, self.B) > _occ_at(flush, self.B)
        assert _occ_at(cont, self.B) > _occ_at(solo, self.B)
        # Tail latency: rolling admission starts queued work sweeps
        # earlier than waiting for the next window.
        p99_c = cont.latency_percentile(99)
        p99_f = flush.latency_percentile(99)
        p99_s = solo.latency_percentile(99)
        assert p99_c < p99_f < p99_s
        assert cont.throughput_rps > solo.throughput_rps

    def test_mid_block_admission_happens(self, poisson16):
        rep = self._serve(poisson16, continuous=True, max_batch=self.B)
        assert sum(d.n_admitted for d in rep.dispatches) > 0
        assert get_metrics().counter("serve.admitted_mid_block") > 0

    def test_results_match_sequential_including_admitted(self, poisson16,
                                                         make_rng):
        """Serving is semantically invisible: every completed request —
        initial or slot-admitted mid-block — matches a fresh sequential
        pcg on its own (A, b) to 1e-10."""
        rng = make_rng(71)
        arrivals = poisson_arrivals(1500.0, 16, rng)
        rhs = [rng.standard_normal(poisson16.n_rows) for _ in range(16)]
        sched = ServeScheduler(
            preconditioner="ilu0",
            window=BatchingWindow(max_wait_s=5e-4, max_batch=4))
        ids = [sched.submit(poisson16, b, arrival_s=float(t))
               for t, b in zip(arrivals, rhs)]
        rep = sched.run()
        assert rep.n_completed == 16
        assert sum(d.n_admitted for d in rep.dispatches) > 0
        m = make_preconditioner(poisson16, "ilu0")
        for rid, b in zip(ids, rhs):
            out = sched.outcome(rid)
            seq = pcg(poisson16, b, m)
            assert out.result.n_iters == seq.n_iters
            assert out.result.reason is seq.reason
            np.testing.assert_allclose(out.result.x, seq.x, rtol=0,
                                       atol=1e-10)


# ----------------------------------------------------------------------
class TestLoadgen:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LoadSpec(n_requests=0)
        with pytest.raises(ValueError):
            LoadSpec(n_requests=1, mode="other")
        with pytest.raises(ValueError):
            LoadSpec(n_requests=1, rate_rps=0.0)
        with pytest.raises(ValueError):
            LoadSpec(n_requests=1, deadline_s=-1.0)

    def test_poisson_arrivals_reproducible(self):
        a1 = poisson_arrivals(100.0, 20, np.random.default_rng(7))
        a2 = poisson_arrivals(100.0, 20, np.random.default_rng(7))
        np.testing.assert_array_equal(a1, a2)
        assert np.all(np.diff(a1) > 0)

    def test_empty_matrix_list_rejected(self):
        with pytest.raises(ValueError):
            run_loadgen(ServeScheduler(), [],
                        LoadSpec(n_requests=1))

    def test_closed_loop_completes_all(self, poisson16):
        sched = ServeScheduler(
            preconditioner="jacobi",
            window=BatchingWindow(max_wait_s=1e-4, max_batch=2))
        spec = LoadSpec(n_requests=8, mode="closed", concurrency=2,
                        seed=5)
        rep = run_loadgen(sched, [poisson16], spec)
        assert rep.n_requests == 8
        assert rep.n_completed == 8
        # on_complete hook restored after the run.
        assert sched.on_complete is None

    def test_open_loop_with_deadline_reports_goodput(self, poisson16):
        sched = ServeScheduler(preconditioner="jacobi",
                               window=BatchingWindow(max_batch=4))
        spec = LoadSpec(n_requests=12, rate_rps=2000.0, seed=11,
                        deadline_s=10.0)  # generous: all should make it
        rep = run_loadgen(sched, [poisson16], spec)
        assert rep.n_deadline_met == rep.n_completed == 12
        assert rep.goodput_rps == pytest.approx(rep.throughput_rps)


# ----------------------------------------------------------------------
class TestObservability:
    def test_trace_and_metrics_stream(self, poisson16, make_rng):
        rng = make_rng(72)
        sched = ServeScheduler(
            preconditioner="jacobi",
            window=BatchingWindow(max_wait_s=5e-4, max_batch=4))
        rec = TraceRecorder()
        with use_recorder(rec):
            ids = [sched.submit(poisson16,
                                rng.standard_normal(poisson16.n_rows),
                                arrival_s=i * 2e-4, tag=f"r{i}")
                   for i in range(8)]
            sched.run()
        assert len(rec.events("queue_enqueue")) == 8
        admits = rec.events("admit")
        assert len(admits) == 8  # every request got a slot
        assert any(e.payload["mid_block"] for e in admits) or \
            len(rec.events("batch_start")) > 1
        ends = rec.events("batch_end")
        assert len(ends) == len(sched.report().dispatches)
        for e in ends:
            assert 0.0 < e.payload["occupancy"] <= 1.0
            assert e.payload["sweeps"] > 0

        s = summarize_trace(rec.events())["serving"]
        assert s["enqueued"] == 8
        assert s["admits"] == 8
        assert s["served_rhs"] == 8
        assert s["dispatches"] == len(ends)
        assert 0.0 < s["mean_occupancy"] <= 1.0

        metrics = get_metrics()
        assert metrics.counter("serve.enqueued") == 8
        assert metrics.counter("serve.completed") == 8
        assert metrics.counter("serve.dispatches") == len(ends)
        assert all(sched.outcome(i).completed for i in ids)

    def test_shed_events_traced(self, poisson16, make_rng):
        sched = ServeScheduler(
            preconditioner="jacobi",
            policy=AdmissionPolicy(max_depth=1),
            window=BatchingWindow(max_wait_s=0.01))
        rec = TraceRecorder()
        rng = make_rng(73)
        with use_recorder(rec):
            for _ in range(3):
                sched.submit(poisson16,
                             rng.standard_normal(poisson16.n_rows),
                             arrival_s=0.0)
            sched.run()
        sheds = rec.events("shed")
        assert len(sheds) == 2
        assert all(e.payload["reason"] == "queue_depth" for e in sheds)
        assert summarize_trace(rec.events())["serving"]["shed"] == \
            {"queue_depth": 2}
        assert get_metrics().counter("serve.shed.queue_depth") == 2


# ----------------------------------------------------------------------
class TestFlushCompat:
    def test_flush_emits_serve_trace(self, poisson16, make_rng):
        """The rerouted flush keeps PR4's batch_start/batch_end contract
        and now also carries the serving occupancy fields."""
        rng = make_rng(74)
        svc = SolverService(preconditioner="jacobi")
        for _ in range(3):
            svc.submit(poisson16, rng.standard_normal(poisson16.n_rows))
        rec = TraceRecorder()
        with use_recorder(rec):
            report = svc.flush()
        assert report.all_converged
        ends = rec.events("batch_end")
        assert len(ends) == 1
        assert ends[0].payload["batch"] == 3
        assert ends[0].payload["occupancy"] > 0
        assert len(rec.events("admit")) == 3

    def test_flush_matches_direct_scheduler(self, poisson16, make_rng):
        rng = make_rng(75)
        rhs = [rng.standard_normal(poisson16.n_rows) for _ in range(4)]
        svc = SolverService(preconditioner="ilu0")
        for b in rhs:
            svc.submit(poisson16, b)
        report = svc.flush()
        crit = StoppingCriterion.paper_default()
        m = make_preconditioner(poisson16, "ilu0")
        for r, b in zip(report.results, rhs):
            seq = pcg(poisson16, b, m, criterion=crit)
            np.testing.assert_allclose(r.x, seq.x, rtol=0, atol=1e-10)
