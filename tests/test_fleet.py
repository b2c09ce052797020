"""Fleet router, scheduler, report aggregation, and cost-model tests.

Includes the aggregation regression suite: fleet occupancy and latency
percentiles must weight by per-device busy time / pool the latency
population — never naive-average per-device figures."""

import json

import numpy as np
import pytest

from repro.core.spcg import make_preconditioner
from repro.fleet import (FleetReport, FleetRouter, FleetScheduler,
                         comm_iteration_cost, fleet_mean_occupancy,
                         pooled_percentile, run_fleet_loadgen)
from repro.machine import A100, IB_HDR, NVLINK, ZERO_LINK, time_allreduce
from repro.obs import TraceRecorder, use_recorder
from repro.perf.cache import ArtifactCache
from repro.resilience import FaultPlan
from repro.serve import LoadSpec, RetryPolicy
from repro.serve.request import RequestStatus, ServeOutcome
from repro.serve.scheduler import DispatchRecord, ServeReport, percentile
from repro.sparse import random_spd


def _mats(n_mats, n=64, seed0=0):
    return [random_spd(n, density=0.08, seed=seed0 + s)
            for s in range(n_mats)]


# ---------------------------------------------------------------------------
# Router
# ---------------------------------------------------------------------------

class TestFleetRouter:
    def test_cold_routes_are_consistent(self):
        r = FleetRouter(4)
        fps = [f"fp-{i}" for i in range(32)]
        first = [r.hash_device(fp) for fp in fps]
        again = [r.hash_device(fp) for fp in fps]
        assert first == again
        fresh = FleetRouter(4)
        assert [fresh.hash_device(fp) for fp in fps] == first

    def test_cold_spread_covers_devices(self):
        r = FleetRouter(4, virtual_nodes=64)
        devs = {r.hash_device(f"fp-{i}") for i in range(200)}
        assert devs == {0, 1, 2, 3}

    def test_growing_fleet_remaps_only_some_arcs(self):
        fps = [f"fp-{i}" for i in range(300)]
        r4 = FleetRouter(4)
        r5 = FleetRouter(5)
        before = [r4.hash_device(fp) for fp in fps]
        after = [r5.hash_device(fp) for fp in fps]
        moved = sum(1 for x, y in zip(before, after) if x != y)
        # Consistent hashing moves ~1/5 of keys; modulo hashing ~4/5.
        assert 0 < moved < len(fps) // 2

    def test_heat_promotes_to_replication(self):
        r = FleetRouter(4, hot_threshold=3)
        decisions = [r.route("hot-fp", t_now=0.0, est_seconds=1.0)
                     for _ in range(6)]
        assert [d.policy for d in decisions] == \
            ["hash"] * 3 + ["replicate"] * 3
        assert [d.heat for d in decisions] == [1, 2, 3, 4, 5, 6]

    def test_replication_prefers_least_backlog(self):
        r = FleetRouter(3, hot_threshold=1)
        # Warm the fingerprint past the threshold.
        first = r.route("fp", t_now=0.0, est_seconds=5.0)
        seen = {first.device}
        for _ in range(4):
            d = r.route("fp", t_now=0.0, est_seconds=5.0)
            assert d.policy == "replicate"
            seen.add(d.device)
        # Least-backlog routing must spread equal-cost work around.
        assert seen == {0, 1, 2}

    def test_backlog_drains_with_time(self):
        r = FleetRouter(2, hot_threshold=1)
        r.route("fp", t_now=0.0, est_seconds=1.0)
        assert r.backlog_s(r.hash_device("fp"), 10.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetRouter(0)
        with pytest.raises(ValueError):
            FleetRouter(2, hot_threshold=0)


# ---------------------------------------------------------------------------
# Aggregation fix: busy-time weighting / pooled percentiles
# ---------------------------------------------------------------------------

def _outcome(req_id, arrival, complete):
    return ServeOutcome(req_id=req_id, tag="", fingerprint="fp",
                        status=RequestStatus.COMPLETED,
                        t_arrival=arrival, t_dispatch=arrival,
                        t_complete=complete)


def _report(latencies, occupancy, busy_s):
    """A synthetic one-device report with the given latency population,
    occupancy, and busy seconds."""
    outs = [_outcome(i, 0.0, lat) for i, lat in enumerate(latencies)]
    disp = DispatchRecord(fingerprint="fp", t_start=0.0, t_end=busy_s,
                          n_initial=len(outs), n_admitted=0,
                          n_timed_out=0, n_cancelled=0, sweeps=10,
                          widths=[int(round(occupancy * 10))] * 10,
                          capacity=10, modeled_seconds=busy_s)
    return ServeReport(outcomes=outs, dispatches=disp and [disp],
                       makespan_s=max(latencies))


class TestAggregationRegression:
    """The bug under regression: averaging per-device percentiles and
    occupancies treats a device that served 3 requests in 0.01 s like
    one that served 300 in 10 s."""

    def test_percentiles_pool_not_average(self):
        # Device 0: 100 fast requests.  Device 1: 2 slow ones.
        fast = _report([0.01] * 100, 0.9, 1.0)
        slow = _report([5.0, 6.0], 0.2, 0.02)
        fleet = FleetReport(device_reports=[fast, slow])
        pooled = [0.01] * 100 + [5.0, 6.0]
        for q in (50, 95, 99):
            want = percentile(pooled, q)
            naive = (fast.latency_percentile(q)
                     + slow.latency_percentile(q)) / 2
            got = fleet.latency_percentile(q)
            assert got == want
            assert got != naive  # the naive average is simply wrong
        # p50 concretely: pooled median is 0.01; naive average ~2.5.
        assert fleet.latency_percentile(50) == pytest.approx(0.01)

    def test_occupancy_weights_by_busy_time(self):
        busy_hi = _report([0.5] * 10, 0.9, 10.0)
        busy_lo = _report([0.5], 0.1, 0.01)
        fleet = FleetReport(device_reports=[busy_hi, busy_lo])
        want = (0.9 * 10.0 + 0.1 * 0.01) / 10.01
        assert fleet.mean_occupancy == pytest.approx(want)
        naive = (0.9 + 0.1) / 2
        assert abs(fleet.mean_occupancy - naive) > 0.3
        assert fleet_mean_occupancy([busy_hi, busy_lo]) == \
            fleet.mean_occupancy

    def test_idle_devices_do_not_dilute(self):
        active = _report([1.0] * 5, 0.8, 2.0)
        idle = ServeReport(outcomes=[], dispatches=[], makespan_s=0.0)
        fleet = FleetReport(device_reports=[active, idle])
        assert fleet.mean_occupancy == pytest.approx(0.8)
        assert fleet.latency_percentile(50) == pytest.approx(1.0)

    def test_empty_fleet_is_nan(self):
        idle = ServeReport(outcomes=[], dispatches=[], makespan_s=0.0)
        fleet = FleetReport(device_reports=[idle, idle])
        assert np.isnan(fleet.mean_occupancy)
        assert np.isnan(fleet.latency_percentile(99))
        assert fleet.makespan_s == 0.0

    def test_empty_reports_write_nan_as_null(self):
        # The serve and fleet summaries share one NaN → null rule, so
        # both stay strict JSON when nothing completed.
        idle = ServeReport(outcomes=[], dispatches=[], makespan_s=0.0)
        fleet = FleetReport(device_reports=[idle, idle])
        for summary in (idle.as_dict(), fleet.as_dict()):
            json.dumps(summary, allow_nan=False)
            assert summary["mean_occupancy"] is None
            assert summary["latency_modeled_s"] == \
                {"p50": None, "p95": None, "p99": None}

    def test_pooled_percentile_matches_global_observer(self):
        rng = np.random.default_rng(4)
        pops = [sorted(rng.exponential(1.0, size=k))
                for k in (3, 40, 17)]
        reports = [_report(list(p), 0.5, 1.0) for p in pops]
        everything = [v for p in pops for v in p]
        for q in (50, 95, 99):
            assert pooled_percentile(reports, q) == \
                percentile(everything, q)


# ---------------------------------------------------------------------------
# Fleet scheduler behavior
# ---------------------------------------------------------------------------

class TestFleetScheduler:
    def test_placement_and_outcomes(self):
        mats = _mats(4)
        fleet = FleetScheduler(n_devices=2, preconditioner="jacobi",
                               cache=ArtifactCache())
        ids = [fleet.submit(mats[i % 4], np.ones(64), tag=f"r{i}",
                            arrival_s=0.0001 * i) for i in range(8)]
        rep = fleet.run()
        assert rep.n_requests == 8 and rep.n_completed == 8
        for fid in ids:
            dev, local = fleet.placement(fid)
            assert 0 <= dev < 2
            out = fleet.outcome(fid)
            assert out is not None and out.completed
            assert out is fleet.schedulers[dev].outcome(local)

    def test_same_fingerprint_cold_requests_colocate(self):
        mats = _mats(1)
        fleet = FleetScheduler(n_devices=4, hot_threshold=10,
                               preconditioner="jacobi",
                               cache=ArtifactCache())
        for i in range(6):
            fleet.submit(mats[0], np.ones(64), arrival_s=0.0)
        rep = fleet.run()
        assert rep.routes_by_device.count(0) == 3  # 3 idle devices
        assert rep.n_replicated == 0

    def test_hot_fingerprint_spreads(self):
        mats = _mats(1)
        fleet = FleetScheduler(n_devices=4, hot_threshold=2,
                               preconditioner="jacobi",
                               cache=ArtifactCache())
        for i in range(16):
            fleet.submit(mats[0], np.ones(64), arrival_s=0.001 * i)
        rep = fleet.run()
        assert rep.n_replicated == 14
        assert sum(1 for c in rep.routes_by_device if c > 0) >= 2

    def test_shared_cache_factorizes_once_per_fingerprint(self):
        mats = _mats(3)
        cache = ArtifactCache()
        fleet = FleetScheduler(n_devices=4, hot_threshold=100,
                               preconditioner="ilu0", cache=cache)
        rep = run_fleet_loadgen(
            fleet, mats, LoadSpec(n_requests=24, rate_rps=1e5, seed=1))
        assert rep.n_completed == 24
        assert cache.stats.misses_by_kind.get("preconditioner") == 3

    def test_route_events_traced(self):
        mats = _mats(2)
        rec = TraceRecorder()
        with use_recorder(rec):
            fleet = FleetScheduler(n_devices=2, preconditioner="jacobi",
                                   cache=ArtifactCache())
            for i in range(4):
                fleet.submit(mats[i % 2], np.ones(64), arrival_s=0.0)
            fleet.run()
        routes = [e for e in rec.events() if e.kind == "route"]
        assert len(routes) == 4
        assert all(e.payload["policy"] in ("hash", "replicate")
                   for e in routes)

    def test_chaos_plans_are_per_device(self):
        mats = _mats(2, n=48)
        plans = [FaultPlan(rate=0.05, seed=11 + d) for d in range(2)]
        fleet = FleetScheduler(n_devices=2, preconditioner="jacobi",
                               cache=ArtifactCache(), chaos=plans,
                               retry=RetryPolicy(max_retries=3,
                                                 checkpoint_every=5))
        rep = run_fleet_loadgen(
            fleet, mats, LoadSpec(n_requests=12, rate_rps=1e4, seed=3))
        # Self-healing still lands everything, per-device.
        assert rep.n_completed == 12
        assert all(o.result.converged
                   for r in rep.device_reports for o in r.outcomes)

    def test_chaos_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FleetScheduler(n_devices=2, chaos=[FaultPlan()])

    def test_capacity_table_renders(self):
        mats = _mats(2)
        fleet = FleetScheduler(n_devices=2, preconditioner="jacobi",
                               cache=ArtifactCache())
        rep = run_fleet_loadgen(
            fleet, mats, LoadSpec(n_requests=8, rate_rps=1e4, seed=0))
        table = rep.capacity_table()
        assert "| fleet |" in table and "| 0 |" in table
        d = rep.as_dict()
        assert d["n_devices"] == 2
        assert "latency_wall_s" not in d["devices"][0]

    def test_closed_loop_spec_rejected(self):
        fleet = FleetScheduler(n_devices=1, cache=ArtifactCache())
        with pytest.raises(ValueError):
            run_fleet_loadgen(fleet, _mats(1),
                              LoadSpec(n_requests=2, mode="closed"))


# ---------------------------------------------------------------------------
# Communication cost model
# ---------------------------------------------------------------------------

class TestCommIterationCost:
    @pytest.fixture()
    def system(self):
        a = random_spd(96, density=0.06, seed=2)
        return a, make_preconditioner(a, "jacobi")

    def test_variants_strictly_cheaper_at_nonzero_latency(self, system):
        a, m = system
        for link in (NVLINK, IB_HDR):
            for n_dev in (2, 4, 8):
                base = comm_iteration_cost(A100, link, n_dev, a, m,
                                           variant="pcg")
                for variant, s in (("pipelined", 1), ("s_step", 1),
                                   ("s_step", 2), ("s_step", 4)):
                    c = comm_iteration_cost(A100, link, n_dev, a, m,
                                            variant=variant, s=s)
                    assert c.exposed < base.exposed, (variant, s, n_dev)

    @pytest.mark.parametrize("link", (NVLINK, IB_HDR),
                             ids=("nvlink", "ib_hdr"))
    def test_priced_allreduce_counts(self, system, link):
        """The sync counts of arXiv 2501.03743, per iteration and per
        right-hand-side column of 8-byte scalars: ``pcg`` three
        reductions, pipelined one fused reduction of three scalars,
        s-step one Gram reduction of the ``2s+1``-vector basis plus one
        residual check per ``s`` iterations."""
        a, m = system
        for n_dev in (1, 2, 4, 8):
            for batch in (1, 4):
                def ar(n_bytes):
                    return time_allreduce(link, n_dev, n_bytes)

                def wire(variant, s=2):
                    return comm_iteration_cost(
                        A100, link, n_dev, a, m, batch=batch,
                        variant=variant, s=s).allreduce

                assert wire("pcg") == 3 * ar(8 * batch)
                assert wire("pipelined") == ar(24 * batch)
                for s in (1, 2, 4):
                    gram = 2 * (2 * s + 1) ** 2 * 8 * batch
                    assert wire("s_step", s) == \
                        (ar(gram) + ar(8 * batch)) / s, (n_dev, batch, s)

    def test_single_device_no_link_terms(self, system):
        a, m = system
        for variant in ("pcg", "pipelined", "s_step"):
            c = comm_iteration_cost(A100, NVLINK, 1, a, m,
                                    variant=variant)
            assert c.allreduce == 0.0
            assert c.exposed == 0.0

    def test_pipelined_overlap_hides_wire_time(self, system):
        a, m = system
        c = comm_iteration_cost(A100, NVLINK, 4, a, m,
                                variant="pipelined")
        assert c.hidden >= 0.0
        assert c.exposed <= c.allreduce

    def test_s_step_amortizes_with_s(self, system):
        a, m = system
        e = [comm_iteration_cost(A100, IB_HDR, 4, a, m,
                                 variant="s_step", s=s).exposed
             for s in (1, 2, 4)]
        assert e[0] > e[1] > e[2]

    def test_zero_link_exposes_nothing(self, system):
        a, m = system
        for n_dev in (1, 4):
            c = comm_iteration_cost(A100, ZERO_LINK, n_dev, a, m,
                                    variant="pcg")
            assert c.exposed == 0.0

    def test_unknown_variant_rejected(self, system):
        a, m = system
        with pytest.raises(ValueError):
            comm_iteration_cost(A100, NVLINK, 2, a, m, variant="magic")


# ---------------------------------------------------------------------------
# Fleet solutions match sequential pcg
# ---------------------------------------------------------------------------

class TestFleetSolutionsMatchSequential:
    def test_every_fleet_outcome_within_1e8_of_pcg(self):
        from repro.solvers import pcg

        mats = _mats(3, n=56)
        fleet = FleetScheduler(n_devices=3, preconditioner="ilu0",
                               cache=ArtifactCache(), hot_threshold=2)
        rng = np.random.default_rng(17)
        reqs = [(mats[i % 3], rng.standard_normal(56))
                for i in range(12)]
        ids = [fleet.submit(a, b, arrival_s=0.0005 * i)
               for i, (a, b) in enumerate(reqs)]
        fleet.run()
        for fid, (a, b) in zip(ids, reqs):
            out = fleet.outcome(fid)
            assert out.completed and out.result.converged
            m = make_preconditioner(a, "ilu0")
            ref = pcg(a, b, m)
            assert np.max(np.abs(ref.x - out.result.x)) < 1e-8
