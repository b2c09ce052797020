"""Tests for repro.obs — tracing, metrics, and the run ledger.

Covers the ISSUE-3 acceptance points: typed-event ordering, the
emit → JSONL → report round trip, metrics counter semantics, and the
zero-cost-when-disabled invariant on the solver hot path.
"""

import json
import math

import numpy as np
import pytest

from conftest import run_interleaved
from repro.harness import run_experiment, run_suite
from repro.obs import (EVENT_KINDS, NULL_RECORDER, MetricsRegistry,
                       NullRecorder, TraceRecorder, get_metrics,
                       get_recorder, load_jsonl, render_report,
                       summarize_trace, use_metrics, use_recorder)
from repro.resilience import FaultPlan, FaultSpec, robust_spcg
from repro.solvers import pcg


def _rhs(a):
    return a.matvec(np.ones(a.n_rows))


class TestTraceRecorder:
    def test_seq_is_gap_free_and_ordered(self):
        rec = TraceRecorder()
        for k in range(5):
            rec.emit("iteration", k=k, r_norm=1.0 / (k + 1))
        evs = rec.events()
        assert [e.seq for e in evs] == list(range(5))
        assert [e.payload["k"] for e in evs] == list(range(5))
        t = [e.t_wall for e in evs]
        assert t == sorted(t)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TraceRecorder().emit("no_such_kind")

    def test_payload_may_carry_kind_key(self):
        # Cache events use ``kind`` for the artifact kind; the envelope
        # field must not collide with it.
        rec = TraceRecorder()
        rec.emit("cache_hit", kind="preconditioner")
        ev = rec.events()[0]
        assert ev.kind == "cache_hit"
        assert ev.payload["kind"] == "preconditioner"

    def test_kind_filter_and_clear(self):
        rec = TraceRecorder()
        rec.emit("solve_start", n=4)
        rec.emit("iteration", k=1, r_norm=0.5)
        rec.emit("solve_end", converged=True)
        assert len(rec.events("iteration")) == 1
        assert len(rec) == 3
        rec.clear()
        assert len(rec) == 0

    def test_maxlen_drops_oldest_and_counts(self):
        rec = TraceRecorder(maxlen=3)
        for k in range(5):
            rec.emit("iteration", k=k, r_norm=1.0)
        assert len(rec) == 3
        assert rec.dropped == 2
        assert [e.payload["k"] for e in rec.events()] == [2, 3, 4]

    def test_bad_maxlen_rejected(self):
        with pytest.raises(ValueError):
            TraceRecorder(maxlen=0)


class TestRecorderPlumbing:
    def test_default_is_null_recorder(self):
        rec = get_recorder()
        assert rec is NULL_RECORDER
        assert isinstance(rec, NullRecorder)
        assert not rec.enabled

    def test_use_recorder_installs_and_restores(self):
        rec = TraceRecorder()
        with use_recorder(rec):
            assert get_recorder() is rec
        assert get_recorder() is NULL_RECORDER

    def test_null_recorder_emit_is_noop(self):
        NULL_RECORDER.emit("solve_start", n=1)
        assert len(NULL_RECORDER) == 0


class TestJsonlRoundTrip:
    def test_emit_dump_load_preserves_everything(self, tmp_path):
        rec = TraceRecorder()
        rec.emit("solve_start", n=16, nnz=64, precond="ilu0")
        rec.emit("iteration", k=1, r_norm=0.25)
        rec.emit("solve_end", converged=True, n_iters=1,
                 reason="converged", final_residual=1e-13)
        path = tmp_path / "t.jsonl"
        assert rec.dump(path) == 3
        back = load_jsonl(path)
        assert [(e.kind, e.seq, e.payload) for e in back] == \
            [(e.kind, e.seq, e.payload) for e in rec.events()]

    def test_lines_are_strict_json(self, tmp_path):
        rec = TraceRecorder()
        rec.emit("experiment_end", name="m", per_iteration_speedup=None)
        for line in rec.to_jsonl().splitlines():
            json.loads(line)

    def test_load_accepts_iterable_and_blank_lines(self):
        rec = TraceRecorder()
        rec.emit("suite_start", n_matrices=1)
        lines = rec.to_jsonl().splitlines() + ["", "   "]
        assert len(load_jsonl(lines)) == 1


class TestEventOrdering:
    def test_pcg_brackets_iterations(self, poisson16):
        with use_recorder(TraceRecorder()) as rec:
            res = pcg(poisson16, _rhs(poisson16))
        kinds = [e.kind for e in rec.events()]
        assert kinds[0] == "solve_start"
        assert kinds[-1] == "solve_end"
        assert kinds.count("solve_start") == 1
        assert kinds.count("iteration") == res.n_iters
        end = rec.events("solve_end")[0].payload
        assert end["converged"] is True
        assert end["n_iters"] == res.n_iters

    def test_spcg_pipeline_phase_order(self, poisson16):
        from repro.core import spcg

        with use_recorder(TraceRecorder()) as rec:
            spcg(poisson16, _rhs(poisson16))
        kinds = [e.kind for e in rec.events()]
        # Algorithm 2 decides, the factors are built, then PCG runs.
        assert kinds.index("sparsify_decision") \
            < kinds.index("factorization") \
            < kinds.index("solve_start")
        dec = rec.events("sparsify_decision")[0].payload
        assert dec["candidates"], "per-candidate diagnostics missing"
        cand = dec["candidates"][0]
        assert {"ratio_percent", "indicator", "passed_convergence",
                "passed_wavefront"} <= set(cand)

    def test_fallback_rung_events(self, poisson16):
        plan = FaultPlan(FaultSpec("zero_pivot", rungs=("spcg",),
                                   rows=(0,)))
        with use_recorder(TraceRecorder()) as rec:
            report = robust_spcg(poisson16, _rhs(poisson16),
                                 fault_plan=plan)
        assert report.converged
        rungs = rec.events("fallback_rung")
        assert len(rungs) == report.n_attempts
        assert rungs[0].payload["failure"] == "zero_pivot"
        assert rungs[-1].payload["converged"] is True

    def test_every_emitted_kind_is_registered(self, poisson16):
        with use_recorder(TraceRecorder()) as rec:
            run_experiment(poisson16, name="p16")
        assert {e.kind for e in rec.events()} <= set(EVENT_KINDS)


class TestMetricsRegistry:
    def test_counter_semantics(self):
        m = MetricsRegistry()
        m.inc("x")
        m.inc("x", 2.5)
        assert m.counter("x") == pytest.approx(3.5)
        assert m.counter("never") == 0.0

    def test_gauge_overwrites(self):
        m = MetricsRegistry()
        m.gauge("g", 1.0)
        m.gauge("g", -2.0)
        assert m.gauge_value("g") == -2.0
        assert math.isnan(m.gauge_value("missing"))

    def test_histogram_moments(self):
        m = MetricsRegistry()
        for v in (1.0, 3.0, 2.0):
            m.observe("h", v)
        h = m.histogram("h")
        assert h.count == 3
        assert h.total == pytest.approx(6.0)
        assert h.vmin == 1.0 and h.vmax == 3.0
        assert h.mean == pytest.approx(2.0)
        assert m.histogram("empty").count == 0
        assert math.isnan(m.histogram("empty").mean)

    def test_time_phase_pairs_wall_and_modeled(self):
        m = MetricsRegistry()
        with m.time_phase("factorization", modeled_seconds=0.25):
            pass
        wall = m.histogram("phase.factorization.wall_s")
        modeled = m.histogram("phase.factorization.modeled_s")
        assert wall.count == 1 and wall.vmin >= 0.0
        assert modeled.count == 1 and modeled.vmin == 0.25

    def test_snapshot_reset_and_summary(self):
        m = MetricsRegistry()
        m.inc("c")
        m.observe("h", 1.0)
        m.gauge("g", 2.0)
        snap = m.snapshot()
        assert snap["counters"]["c"] == 1.0
        assert snap["histograms"]["h"]["count"] == 1
        assert "c = 1" in m.summary()
        m.reset()
        assert m.snapshot() == {"counters": {}, "gauges": {},
                                "histograms": {}}
        assert m.summary() == "no metrics recorded"

    def test_solver_feeds_default_registry(self, poisson16):
        res = pcg(poisson16, _rhs(poisson16))
        m = get_metrics()
        assert m.counter("pcg.solves") == 1
        assert m.counter("pcg.iterations") == res.n_iters


class TestZeroCostWhenDisabled:
    def test_hot_path_never_calls_emit_when_disabled(self, poisson16):
        """The perf-guard invariant: with tracing disabled, no
        instrumentation site may even *call* emit (let alone allocate a
        payload) — enforced with a booby-trapped disabled recorder."""

        class BoobyTrap(TraceRecorder):
            enabled = False

            def emit(self, kind, /, **payload):
                raise AssertionError(
                    f"emit({kind!r}) called while tracing is disabled")

        from repro.core import spcg

        with use_recorder(BoobyTrap()):
            res = spcg(poisson16, _rhs(poisson16))
        assert res.converged

    def test_disabled_trace_buffers_nothing(self, poisson16):
        pcg(poisson16, _rhs(poisson16))
        assert len(get_recorder()) == 0


class TestReportLedger:
    def _traced_suite(self, robust=False, fault_plan_factory=None):
        from repro.datasets import MatrixSpec

        specs = [MatrixSpec(name="mini_thermal", category="thermal",
                            n=256, seed=1),
                 MatrixSpec(name="mini_cfd", category="cfd",
                            n=256, seed=3)]
        with use_recorder(TraceRecorder()) as rec:
            run_suite(specs, run_fixed_ratios=False, robust=robust,
                      fault_plan_factory=fault_plan_factory)
        return rec

    def test_summarize_collects_experiments_and_cache(self):
        rec = self._traced_suite()
        s = summarize_trace(rec.events())
        assert [e["name"] for e in s["experiments"]] == \
            ["mini_thermal", "mini_cfd"]
        row = s["experiments"][0]
        assert row["spcg"]["sparsify_s"] is not None
        assert row["spcg"]["factor_s"] is not None
        assert s["cache"], "cache hit/miss events missing"
        for slot in s["cache"].values():
            assert 0.0 <= slot["hit_rate"] <= 1.0
        assert s["suite"]["n_results"] == 2

    def test_render_produces_phase_table(self):
        rec = self._traced_suite()
        text = render_report(rec.events())
        assert "per-matrix phases" in text
        assert "mini_thermal" in text and "mini_cfd" in text
        assert "artifact cache" in text
        assert "failures" in text

    def test_failure_taxonomy_from_fallback_rungs(self):
        def plans(_name):
            return FaultPlan(FaultSpec("zero_pivot", rungs=("spcg",),
                                       rows=(0,)))

        rec = self._traced_suite(robust=True, fault_plan_factory=plans)
        s = summarize_trace(rec.events())
        assert s["failure_taxonomy"].get("zero_pivot", 0) >= 2
        assert s["fallback_attempts"] >= 4
        text = render_report(rec.events())
        assert "zero_pivot" in text
        assert "recovered by" in text

    def test_report_round_trips_through_file(self, tmp_path):
        rec = self._traced_suite()
        path = tmp_path / "suite.jsonl"
        rec.dump(path)
        from repro.obs import render_report_file

        assert render_report_file(path) == render_report(rec.events())

    def test_nan_speedup_renders_na(self):
        # A hand-built experiment_end with a null speedup must render
        # as n/a, not crash or print a number.
        rec = TraceRecorder()
        rec.emit("experiment_end", name="broken", n=10,
                 chosen_ratio=10.0,
                 baseline={"n_iters": 0, "failure_class": "zero_pivot"},
                 spcg={"n_iters": 0, "failure_class": ""},
                 per_iteration_speedup=None, end_to_end_speedup=None)
        text = render_report(rec.events())
        assert "n/a" in text
        assert "pcg:zero_pivot" in text


class TestMetricsPhasePairing:
    def test_experiment_records_both_clocks(self, poisson16):
        with use_metrics(MetricsRegistry()) as m:
            run_experiment(poisson16, name="p16",
                           run_fixed_ratios=False)
            assert m.histogram("phase.sparsify.wall_s").count >= 1
            assert m.histogram("phase.sparsify.modeled_s").count >= 1
            assert m.histogram("phase.factorization.wall_s").count >= 1
            assert m.histogram("phase.factorization.modeled_s").count >= 1
            assert m.histogram("phase.iterations.modeled_s").count >= 1
            assert m.counter("experiments.run") == 1


class TestConcurrentEmission:
    def test_seq_is_gap_free_across_threads(self):
        # The recorder is a thread-safe buffer: events emitted from
        # several threads get one gap-free sequence, and each thread's
        # events keep their own emission order.
        rec = TraceRecorder()

        def worker(t):
            for k in range(200):
                rec.emit("iteration", thread=t, k=k)

        run_interleaved(worker, 4)
        evs = rec.events()
        assert [e.seq for e in evs] == list(range(800))
        for t in range(4):
            assert [e.payload["k"] for e in evs
                    if e.payload["thread"] == t] == list(range(200))

    def test_metrics_lose_no_update_across_threads(self):
        # One lock guards every registry update: counters and histogram
        # moments recorded from several threads add up exactly.
        # A lost update needs a thread switch inside one read-modify-
        # write, so the race is run for several rounds.
        m = MetricsRegistry()

        def worker(t):
            for _ in range(500):
                m.inc("requests")
            for k in range(500):
                m.observe("latency", float(k))
                m.gauge(f"last.{t}", float(k))

        for _ in range(10):
            run_interleaved(worker, 4)
        assert m.counter("requests") == 20_000
        h = m.histogram("latency")
        assert h.count == 20_000 and h.total == 40 * sum(range(500))
        assert (h.vmin, h.vmax) == (0.0, 499.0)
        assert [m.gauge_value(f"last.{t}") for t in range(4)] == [499.0] * 4
