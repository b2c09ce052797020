"""Machine-model invariants for the inter-device link layer.

The fleet's pricing rests on two exact properties: allreduce cost is
monotone in device count and message size, and every link term is
exactly zero at N=1 (a one-device fleet prices bitwise like the single
server)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DeviceModelError
from repro.fleet import FleetScheduler
from repro.machine import (IB_HDR, NVLINK, PCIE4, ZERO_LINK, LinkModel,
                           get_link, time_allreduce)
from repro.perf.cache import ArtifactCache
from repro.serve import ServeScheduler
from repro.sparse import random_spd

LINKS = (NVLINK, PCIE4, IB_HDR)


class TestAllreduceInvariants:
    @given(st.sampled_from(LINKS), st.integers(1, 64), st.integers(1, 64),
           st.floats(0, 1e8))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_device_count(self, link, n1, n2, nbytes):
        lo, hi = sorted((n1, n2))
        assert time_allreduce(link, lo, nbytes) <= \
            time_allreduce(link, hi, nbytes)

    @given(st.sampled_from(LINKS), st.integers(1, 64),
           st.floats(0, 1e8), st.floats(0, 1e8))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_message_size(self, link, n, b1, b2):
        lo, hi = sorted((b1, b2))
        assert time_allreduce(link, n, lo) <= time_allreduce(link, n, hi)

    @given(st.sampled_from(LINKS), st.integers(2, 64),
           st.floats(1.0, 1e8))
    @settings(max_examples=40, deadline=None)
    def test_strictly_positive_beyond_one_device(self, link, n, nbytes):
        assert time_allreduce(link, n, nbytes) > 0.0

    @given(st.sampled_from(LINKS + (ZERO_LINK,)), st.floats(0, 1e9))
    @settings(max_examples=40, deadline=None)
    def test_single_device_is_exactly_zero(self, link, nbytes):
        assert time_allreduce(link, 1, nbytes) == 0.0

    def test_validation(self):
        with pytest.raises(DeviceModelError):
            LinkModel(name="bad", latency=-1e-6, bandwidth=1e9)
        with pytest.raises(DeviceModelError):
            LinkModel(name="bad", latency=0.0, bandwidth=0.0)
        with pytest.raises(DeviceModelError):
            time_allreduce(NVLINK, 0, 8)
        with pytest.raises(ValueError):
            time_allreduce(NVLINK, 2, -1)

    def test_get_link_presets_and_aliases(self):
        assert get_link("nvlink") is NVLINK
        assert get_link("IB") is IB_HDR
        assert get_link("pcie") is PCIE4
        with pytest.raises(DeviceModelError):
            get_link("token-ring")


class TestSingleDeviceFleetBitwise:
    def test_fleet_of_one_prices_like_bare_scheduler(self):
        """N=1 fleet report must be bitwise the single-server report
        on every modeled field (wall clocks excluded — nondeterminism
        is exactly why goldens strip them)."""
        mats = [random_spd(48, density=0.1, seed=s) for s in (1, 2)]
        rng = np.random.default_rng(9)
        reqs = [(mats[i % 2], rng.standard_normal(48), 0.001 * i)
                for i in range(10)]

        bare = ServeScheduler(preconditioner="jacobi",
                              cache=ArtifactCache())
        for a, b, t in reqs:
            bare.submit(a, b, arrival_s=t)
        ref = bare.run()

        fleet = FleetScheduler(n_devices=1, preconditioner="jacobi",
                               cache=ArtifactCache())
        for a, b, t in reqs:
            fleet.submit(a, b, arrival_s=t)
        rep = fleet.run()

        assert rep.n_devices == 1
        dev = rep.device_reports[0]
        assert dev.makespan_s == ref.makespan_s
        assert rep.makespan_s == ref.makespan_s
        assert rep.throughput_rps == ref.throughput_rps
        assert rep.mean_occupancy == ref.mean_occupancy
        for q in (50, 95, 99):
            assert rep.latency_percentile(q) == ref.latency_percentile(q)
        ref_d = ref.as_dict()
        dev_d = dev.as_dict()
        for key, val in ref_d.items():
            if key == "latency_wall_s":
                continue
            assert dev_d[key] == val, key
        # Outcome-level: identical modeled completion times per request.
        for o_ref, o_dev in zip(ref.outcomes, dev.outcomes):
            assert o_ref.t_complete == o_dev.t_complete
            assert np.array_equal(o_ref.result.x, o_dev.result.x)
