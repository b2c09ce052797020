"""Analytical machine model standing in for the paper's hardware.

The paper measures on NVIDIA A100/V100 GPUs and an AMD EPYC 7413 CPU.
Offline we replace the silicon with a roofline-style cost model whose
inputs are exactly the quantities the paper's analysis attributes the
speedups to:

* number of wavefronts (kernel launches + barrier synchronizations),
* rows per wavefront (occupancy / lane utilization),
* nonzeros touched (memory traffic and FLOPs).

A level-scheduled triangular solve is priced as one kernel per wavefront:
``Σ_k  sync + max(flops_k / (peak · util_k), bytes_k / BW, floor)`` —
narrow wavefronts pay the synchronization floor and low utilization, wide
wavefronts run into the memory roof.  This reproduces the paper's causal
chain (fewer wavefronts → fewer barriers + higher occupancy → faster
iterations) without owning an A100.

The :class:`~repro.machine.profiler.KernelProfiler` reports modeled DRAM
and compute utilization percentages, mirroring the Nsight Compute
observations of Section 5.3.
"""

from .device import DeviceModel, A100, V100, EPYC_7413, get_device
from .link import (
    LinkModel,
    NVLINK,
    PCIE4,
    IB_HDR,
    ZERO_LINK,
    get_link,
    time_allreduce,
)
from .kernels import (
    IterationCost,
    ValueTraffic,
    estimate_request_seconds,
    iteration_cost,
    iteration_value_traffic,
    time_dot,
    time_axpy,
    time_spmv,
    time_trisolve,
    time_trisolve_aggregated,
    time_trisolve_partitioned,
    time_ilu_factorization,
    time_sparsification,
    time_checkpoint,
    time_abft_check,
    time_residual_check,
)
from .profiler import KernelProfiler, PhaseUtilization

__all__ = [
    "DeviceModel",
    "A100",
    "V100",
    "EPYC_7413",
    "get_device",
    "LinkModel",
    "NVLINK",
    "PCIE4",
    "IB_HDR",
    "ZERO_LINK",
    "get_link",
    "time_allreduce",
    "IterationCost",
    "ValueTraffic",
    "estimate_request_seconds",
    "iteration_cost",
    "iteration_value_traffic",
    "time_dot",
    "time_axpy",
    "time_spmv",
    "time_trisolve",
    "time_trisolve_aggregated",
    "time_trisolve_partitioned",
    "time_ilu_factorization",
    "time_sparsification",
    "time_checkpoint",
    "time_abft_check",
    "time_residual_check",
    "KernelProfiler",
    "PhaseUtilization",
]
