"""Inter-device link model: latency, bandwidth, collective pricing.

The single-device machine model (:mod:`repro.machine.device`) prices
kernels on one GPU/CPU; a fleet of N modeled devices additionally pays
for the wires between them.  Following the machine-model discipline of
the single-device pricing — public datasheet numbers, only *relative*
behaviour load-bearing — a :class:`LinkModel` is two scalars:

* ``latency`` — per-message fixed cost, seconds.  This is the term the
  communication-reduced CG variants attack: every dot product in
  distributed CG is an **allreduce**, and at cluster latencies the
  2(N−1) ring steps dominate the iteration (the observation driving
  *Communication-reduced Conjugate Gradient Variants for
  GPU-accelerated Clusters*, arXiv 2501.03743).
* ``bandwidth`` — sustained point-to-point bytes/s.

Collectives are priced with the standard ring-algorithm formulas, and
every cost **degenerates to exactly zero at N = 1**: a single-device
fleet must price bitwise-identically to the single-server model —
asserted by the invariant tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DeviceModelError

__all__ = [
    "LinkModel",
    "NVLINK",
    "PCIE4",
    "IB_HDR",
    "ZERO_LINK",
    "get_link",
    "time_allreduce",
]


@dataclass(frozen=True)
class LinkModel:
    """Inter-device interconnect description.

    Attributes
    ----------
    name:
        Human-readable identifier.
    latency:
        Fixed cost of one message between two devices, seconds.
    bandwidth:
        Sustained point-to-point bandwidth, bytes/s.
    """

    name: str
    latency: float
    bandwidth: float

    def __post_init__(self):
        if self.latency < 0:
            raise DeviceModelError("link latency must be non-negative")
        if self.bandwidth <= 0:
            raise DeviceModelError("link bandwidth must be positive")


#: NVLink 3 (A100 SXM): ~300 GB/s per direction, microsecond-scale
#: software latency for small messages.
NVLINK = LinkModel(name="nvlink", latency=2.5e-6, bandwidth=300e9)

#: PCIe 4.0 x16: ~32 GB/s, higher per-message latency through the host.
PCIE4 = LinkModel(name="pcie4", latency=5.0e-6, bandwidth=32e9)

#: InfiniBand HDR (200 Gb/s) between nodes: ~25 GB/s, network latency.
IB_HDR = LinkModel(name="ib-hdr", latency=1.5e-6, bandwidth=25e9)

#: The free interconnect: useful for isolating compute effects in
#: ablations (all link terms vanish, any N).
ZERO_LINK = LinkModel(name="zero", latency=0.0, bandwidth=float("inf"))

_REGISTRY = {link.name: link for link in (NVLINK, PCIE4, IB_HDR, ZERO_LINK)}
_REGISTRY["ib"] = IB_HDR
_REGISTRY["pcie"] = PCIE4


def get_link(name: str) -> LinkModel:
    """Look up a preset link by (case-insensitive) name."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise DeviceModelError(
            f"unknown link {name!r}; available: "
            f"{sorted(set(lk.name for lk in _REGISTRY.values()))}") from None


def _check_devices(n_devices: int) -> int:
    n_devices = int(n_devices)
    if n_devices < 1:
        raise DeviceModelError(
            f"n_devices must be at least 1, got {n_devices}")
    return n_devices


def time_allreduce(link: LinkModel, n_devices: int,
                   message_bytes: float) -> float:
    """Ring allreduce of ``message_bytes`` across ``n_devices``.

    The standard ring algorithm performs ``2(N−1)`` steps
    (reduce-scatter + allgather), each sending a ``1/N`` shard of the
    message and paying one link latency:

    ``2(N−1)·latency + 2·(N−1)/N · message_bytes / bandwidth``

    The cost is monotone non-decreasing in both ``n_devices`` and
    ``message_bytes`` (strictly, at nonzero latency resp. bandwidth
    term), and **exactly zero at N = 1** — a single device never talks
    to the wire, so a 1-device fleet prices bitwise like the
    single-server model.
    """
    n_devices = _check_devices(n_devices)
    if message_bytes < 0:
        raise ValueError("message_bytes must be non-negative")
    if n_devices == 1:
        return 0.0
    steps = 2 * (n_devices - 1)
    return (steps * link.latency
            + steps * (message_bytes / n_devices) / link.bandwidth)

