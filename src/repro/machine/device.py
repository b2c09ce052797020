"""Device models: A100, V100 and the EPYC 7413 host of the paper.

Parameter values are public datasheet numbers (peak throughput, memory
bandwidth, SM/core counts) plus standard microbenchmark figures for
kernel-launch and barrier costs.  Only *relative* behaviour matters for
the reproduction — speedups are ratios of modeled times on the same
device — but the absolute numbers are kept realistic so modeled GFLOP/s
land in plausible ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import DeviceModelError

__all__ = ["DeviceModel", "A100", "V100", "EPYC_7413", "get_device"]


@dataclass(frozen=True)
class DeviceModel:
    """Roofline-style device description.

    Attributes
    ----------
    name:
        Human-readable identifier.
    kind:
        ``"gpu"`` or ``"cpu"``.
    parallel_lanes:
        Concurrent scalar lanes (CUDA cores, or cores × SIMD width).
    group_width:
        Scheduling granularity: warp size on GPUs, SIMD width on CPUs.
        One matrix row occupies one group in the triangular solver, so
        exploitable row parallelism is ``parallel_lanes / group_width``.
    peak_flops:
        Peak FLOP/s at the working precision (fp32 for the experiments).
    mem_bandwidth:
        Sustainable DRAM bandwidth, bytes/s.
    launch_overhead:
        Fixed cost of dispatching one kernel, seconds.
    sync_overhead:
        Device-wide barrier cost between dependent kernels, seconds.
        This is the term wavefront reduction eliminates.
    min_kernel_time:
        Latency floor of even an empty kernel (memory round-trip),
        seconds.
    value_bytes, index_bytes:
        Width of matrix values / indices for traffic accounting.
    """

    name: str
    kind: str
    parallel_lanes: int
    group_width: int
    peak_flops: float
    mem_bandwidth: float
    launch_overhead: float
    sync_overhead: float
    min_kernel_time: float
    value_bytes: int = 4
    index_bytes: int = 4

    def __post_init__(self):
        if self.kind not in ("gpu", "cpu"):
            raise DeviceModelError(f"kind must be 'gpu' or 'cpu', "
                                   f"got {self.kind!r}")
        for field_name in ("parallel_lanes", "group_width", "peak_flops",
                           "mem_bandwidth", "value_bytes", "index_bytes"):
            if getattr(self, field_name) <= 0:
                raise DeviceModelError(f"{field_name} must be positive")
        for field_name in ("launch_overhead", "sync_overhead",
                           "min_kernel_time"):
            if getattr(self, field_name) < 0:
                raise DeviceModelError(f"{field_name} must be non-negative")

    @property
    def row_slots(self) -> int:
        """Rows the triangular solver can progress concurrently
        (groups in flight)."""
        return max(1, self.parallel_lanes // self.group_width)

    def bytes_for(self, dtype) -> int:
        """Bytes per stored value of *dtype* — the per-dtype hook the
        traffic accounting uses, so mixed-precision factors (float32)
        are charged half the value bytes of float64 ones."""
        return int(np.dtype(dtype).itemsize)

    def with_precision(self, value_bytes: int) -> "DeviceModel":
        """Same device at a different value width (fp64 ⇒ 8).

        Peak FLOP/s is halved going from 4- to 8-byte values, the usual
        vector-width relationship.
        """
        if value_bytes not in (4, 8):
            raise DeviceModelError("value_bytes must be 4 or 8")
        scale = self.value_bytes / value_bytes
        return replace(self, value_bytes=value_bytes,
                       peak_flops=self.peak_flops * scale)


#: NVIDIA A100 (SXM4 80 GB): 108 SMs × 64 fp32 lanes, 19.5 TFLOP/s fp32,
#: ~1.6 TB/s HBM2e.
A100 = DeviceModel(
    name="A100",
    kind="gpu",
    parallel_lanes=6912,
    group_width=32,
    peak_flops=19.5e12,
    mem_bandwidth=1.56e12,
    launch_overhead=3.0e-6,
    sync_overhead=2.0e-6,
    min_kernel_time=1.5e-6,
)

#: NVIDIA V100 (SXM2 32 GB): 80 SMs × 64 fp32 lanes, 14 TFLOP/s fp32,
#: 900 GB/s HBM2.
V100 = DeviceModel(
    name="V100",
    kind="gpu",
    parallel_lanes=5120,
    group_width=32,
    peak_flops=14.0e12,
    mem_bandwidth=0.90e12,
    launch_overhead=3.5e-6,
    sync_overhead=2.2e-6,
    min_kernel_time=1.8e-6,
)

#: AMD EPYC 7413 as described in the paper (40 cores @ 2.65 GHz base):
#: cores × AVX2 fp32 width 8 = 320 lanes, 2 FMA pipes ⇒ ~3.4 TFLOP/s
#: theoretical, derated; ~205 GB/s 8-channel DDR4.  Thread-barrier cost
#: replaces the GPU kernel-launch overhead and is much smaller, which is
#: why CPUs see the speedup mostly through utilization, not sync count.
EPYC_7413 = DeviceModel(
    name="EPYC-7413",
    kind="cpu",
    parallel_lanes=320,
    group_width=8,
    peak_flops=1.7e12,
    mem_bandwidth=0.205e12,
    launch_overhead=1.0e-7,
    sync_overhead=8.0e-7,
    min_kernel_time=2.0e-7,
)

_REGISTRY = {d.name.lower(): d for d in (A100, V100, EPYC_7413)}
_REGISTRY["epyc"] = EPYC_7413
_REGISTRY["cpu"] = EPYC_7413


def get_device(device: DeviceModel | str | None) -> DeviceModel:
    """The device model *device* stands for: ``None`` is the A100 model,
    a :class:`DeviceModel` is returned as is, and a name is looked up
    among the presets (case-insensitive)."""
    if device is None:
        return A100
    if isinstance(device, DeviceModel):
        return device
    try:
        return _REGISTRY[device.lower()]
    except KeyError:
        raise DeviceModelError(
            f"unknown device {device!r}; available: "
            f"{sorted(set(d.name for d in _REGISTRY.values()))}") from None
