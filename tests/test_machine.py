"""Tests for the analytical machine model (devices, kernels, profiler)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.batch import SolverService
from repro.errors import DeviceModelError
from repro.fleet import FleetScheduler
from repro.harness import (run_batch_scaling, run_precision_study,
                           run_spai_crossover, run_stream_study)
from repro.machine import (A100, EPYC_7413, V100, DeviceModel,
                           KernelProfiler, get_device, iteration_cost,
                           time_axpy, time_dot, time_ilu_factorization,
                           time_sparsification, time_spmv, time_trisolve)
from repro.precond import (ILU0Preconditioner, JacobiPreconditioner,
                           plan_preconditioner, plan_trisolve)
from repro.serve import ServeScheduler
from repro.sparse import extract_lower, stencil_poisson_2d
from repro.streams import SolveSession


class TestDeviceModel:
    def test_presets_sane(self):
        for dev in (A100, V100, EPYC_7413):
            assert dev.peak_flops > 0
            assert dev.mem_bandwidth > 0
            assert dev.row_slots >= 1

    def test_a100_exceeds_v100(self):
        assert A100.peak_flops > V100.peak_flops
        assert A100.mem_bandwidth > V100.mem_bandwidth
        assert A100.parallel_lanes > V100.parallel_lanes

    def test_lookup(self):
        assert get_device("a100") is A100
        assert get_device("V100") is V100
        assert get_device("cpu") is EPYC_7413
        with pytest.raises(DeviceModelError):
            get_device("h100")

    def test_lookup_takes_none_a_model_or_a_name(self):
        custom = A100.with_precision(8)
        assert get_device(None) is A100
        assert get_device(custom) is custom
        assert get_device("Epyc") is EPYC_7413
        with pytest.raises(DeviceModelError):
            get_device("tpu-v5")

    def test_callers_take_every_device_form(self, poisson16):
        tri = extract_lower(poisson16)
        assert plan_trisolve(tri, device="v100") == \
            plan_trisolve(tri, device=V100)
        assert plan_trisolve(tri) == plan_trisolve(tri, device=A100)
        assert SolverService().device is A100
        assert SolverService(device="cpu").device is EPYC_7413
        with pytest.raises(DeviceModelError):
            plan_trisolve(tri, device="h100")

    def test_validation(self):
        with pytest.raises(DeviceModelError):
            DeviceModel(name="x", kind="tpu", parallel_lanes=1,
                        group_width=1, peak_flops=1, mem_bandwidth=1,
                        launch_overhead=0, sync_overhead=0,
                        min_kernel_time=0)
        with pytest.raises(DeviceModelError):
            DeviceModel(name="x", kind="gpu", parallel_lanes=0,
                        group_width=1, peak_flops=1, mem_bandwidth=1,
                        launch_overhead=0, sync_overhead=0,
                        min_kernel_time=0)

    def test_with_precision(self):
        fp64 = A100.with_precision(8)
        assert fp64.value_bytes == 8
        assert fp64.peak_flops == pytest.approx(A100.peak_flops / 2)
        with pytest.raises(DeviceModelError):
            A100.with_precision(2)


def _fleet_device(device) -> str:
    fleet = FleetScheduler(n_devices=2, device=device)
    assert all(s.device is fleet.device for s in fleet.schedulers)
    return fleet.device.name


#: Every entry point that takes ``device=``, reduced to the name of the
#: model it prices on.  Each resolves the argument through
#: ``get_device`` before any work, and the inputs are tiny.
DEVICE_CALLERS = {
    "SolverService": lambda d: SolverService(device=d).device.name,
    "ServeScheduler": lambda d: ServeScheduler(device=d).device.name,
    "FleetScheduler": _fleet_device,
    "SolveSession": lambda d: SolveSession(device=d).device.name,
    "plan_trisolve": lambda d: plan_trisolve(
        extract_lower(stencil_poisson_2d(6)), device=d).device,
    "plan_preconditioner": lambda d: plan_preconditioner(
        stencil_poisson_2d(6), candidates=("jacobi",), device=d).device,
    "run_batch_scaling": lambda d: run_batch_scaling(
        stencil_poisson_2d(6), batch_sizes=(1,), device=d).device,
    "run_precision_study": lambda d: run_precision_study(
        stencil_poisson_2d(6), device=d).device,
    "run_stream_study": lambda d: run_stream_study(
        side=4, n_steps=2, device=d).device,
    "run_spai_crossover": lambda d: run_spai_crossover(
        categories=("thermal",), n=64, sync_scales=(1.0,),
        candidates=("ilu0",), device=d).device,
}


class TestEveryCallerResolvesDevices:
    @pytest.mark.parametrize("caller", sorted(DEVICE_CALLERS))
    def test_takes_none_a_model_or_a_name(self, caller):
        call = DEVICE_CALLERS[caller]
        assert call(None) == "A100"
        # A model is used as is, never looked up again by its name.
        assert call(replace(A100, name="custom")) == "custom"
        assert call("v100") == "V100"
        assert call("cpu") == EPYC_7413.name

    @pytest.mark.parametrize("caller", sorted(DEVICE_CALLERS))
    def test_unknown_name_raises(self, caller):
        with pytest.raises(DeviceModelError, match="h100"):
            DEVICE_CALLERS[caller]("h100")


class TestKernelCosts:
    def test_spmv_monotone_in_nnz(self):
        small = time_spmv(A100, 10_000, 50_000)
        large = time_spmv(A100, 10_000, 5_000_000)
        assert large > small

    def test_spmv_includes_launch(self):
        assert time_spmv(A100, 1, 1) >= A100.launch_overhead

    def test_dot_axpy_positive(self):
        assert time_dot(A100, 1000) > 0
        assert time_axpy(A100, 1000) > 0

    def test_trisolve_levels_dominate_small_systems(self):
        # Same work split over more levels must cost more (launch+sync).
        rows = np.full(100, 10)
        nnz = np.full(100, 50)
        many = time_trisolve(A100, rows, nnz)
        few = time_trisolve(A100, np.full(10, 100), np.full(10, 500))
        assert many > few

    def test_trisolve_empty_schedule(self):
        assert time_trisolve(A100, np.array([]), np.array([])) == 0.0

    def test_trisolve_shape_mismatch(self):
        with pytest.raises(ValueError):
            time_trisolve(A100, np.array([1]), np.array([1, 2]))

    def test_wide_levels_bandwidth_bound(self):
        # One giant level: body dominated by memory traffic, not floors.
        t = time_trisolve(A100, np.array([10_000_000]),
                          np.array([100_000_000]))
        traffic = 100e6 * 8 + 1e7 * 12
        assert t >= traffic / A100.mem_bandwidth

    def test_factorization_sequential_slower_than_parallel(self):
        rows = np.full(50, 20)
        nnz = np.full(50, 100)
        par = time_ilu_factorization(A100, rows, nnz, 1e7)
        seq = time_ilu_factorization(EPYC_7413, rows, nnz, 1e7,
                                     sequential=True)
        assert seq > par

    def test_sparsification_cost_scales(self):
        assert (time_sparsification(A100, 10_000_000)
                > time_sparsification(A100, 10_000))

    def test_iteration_cost_composition(self, poisson16):
        m = ILU0Preconditioner(poisson16)
        cost = iteration_cost(A100, poisson16, m)
        assert cost.total == pytest.approx(
            cost.spmv + cost.precond_fwd + cost.precond_bwd + cost.dots
            + cost.axpys)
        assert cost.precond == cost.precond_fwd + cost.precond_bwd
        assert cost.precond > cost.spmv  # trisolves dominate (the paper's
        # motivating observation, Section 2)

    def test_jacobi_iteration_has_no_trisolve(self, poisson16):
        m = JacobiPreconditioner(poisson16)
        cost = iteration_cost(A100, poisson16, m)
        assert cost.precond_bwd == 0.0
        ilu_cost = iteration_cost(A100, poisson16,
                                  ILU0Preconditioner(poisson16))
        assert cost.total < ilu_cost.total

    def test_fewer_wavefronts_cheaper_iteration(self):
        # The paper's causal chain in one assertion: a schedule with the
        # same rows and nonzeros but fewer levels prices cheaper.
        rows_deep = np.full(60, 10)
        nnz_deep = np.full(60, 40)
        rows_shallow = np.full(20, 30)
        nnz_shallow = np.full(20, 120)
        assert (time_trisolve(A100, rows_shallow, nnz_shallow)
                < time_trisolve(A100, rows_deep, nnz_deep))

    def test_cpu_vs_gpu_tradeoff(self, poisson16):
        m = ILU0Preconditioner(poisson16)
        g = iteration_cost(A100, poisson16, m).total
        c = iteration_cost(EPYC_7413, poisson16, m).total
        # Small system: CPU's cheap barriers win; the GPU pays launch
        # overhead per wavefront (why the paper needs big matrices).
        assert c < g


class TestKernelProfiler:
    def test_profiler_utilization_bounds(self, poisson16):
        prof = KernelProfiler(A100)
        u = prof.iteration_utilization(poisson16,
                                       ILU0Preconditioner(poisson16))
        assert 0 <= u.dram_util_percent <= 100
        assert 0 <= u.compute_util_percent <= 100
        assert u.seconds > 0
        assert u.bound in ("memory", "compute", "latency")

    def test_profiler_latency_bound_small_matrix(self, poisson16):
        # A 256-row system on an A100 is overwhelmingly latency-bound.
        u = KernelProfiler(A100).iteration_utilization(
            poisson16, ILU0Preconditioner(poisson16))
        assert u.bound == "latency"

    def test_degenerate_phase_clamped_and_flagged(self):
        # A zero-time phase hits the 1e-30-seconds floor, which used to
        # report utilizations far above 100 %; they must now be clamped
        # and the row flagged.
        from repro.machine.kernels import IterationCost

        zero = IterationCost(spmv=0.0, precond_fwd=0.0, precond_bwd=0.0,
                             dots=0.0, axpys=0.0)
        u = KernelProfiler(A100)._utilization(zero, flops=1e6, bytes_=1e6)
        assert u.dram_util_percent == 100.0
        assert u.compute_util_percent == 100.0
        assert u.clamped

    def test_physical_phase_not_flagged(self, poisson16):
        u = KernelProfiler(A100).iteration_utilization(
            poisson16, ILU0Preconditioner(poisson16))
        assert not u.clamped
