"""Fingerprint-affine request routing across fleet devices.

Matrices recur: the same operator arrives with many right-hand sides
(the premise of the PR-4 batched service).  Routing on the matrix
fingerprint keeps each operator's factorization hot on few devices:

* **cold** fingerprints (seen at most ``hot_threshold`` times) are
  **consistent-hashed** — a BLAKE2b ring with virtual nodes pins each
  fingerprint to one device, so its factorization is built once and
  every repeat lands on the warm cache.  Adding a device remaps only
  the ring arcs it claims.
* **hot** fingerprints are **replicated**: the affinity that helps a
  cold fingerprint's cache hit rate would funnel a heavy hitter's whole
  load onto one device.  Once a fingerprint crosses the threshold, each
  arrival goes to the **least-backlogged** device (modeled
  busy-until bookkeeping; ties break on the lowest device index).

Routing is a pure function of the submission sequence — no RNG, no
wall clock — so identical seeds and arrival traces reproduce identical
assignment sequences, which the golden determinism test asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b

__all__ = ["RouteDecision", "FleetRouter"]


@dataclass(frozen=True)
class RouteDecision:
    """Where one request went, and why."""

    device: int
    #: ``"hash"`` (cold: consistent-hashed) or ``"replicate"`` (hot:
    #: least-backlog across the fleet).
    policy: str
    #: Times this fingerprint has been routed, including this one.
    heat: int
    #: Modeled backlog seconds on the chosen device at routing time.
    backlog_s: float

    def as_dict(self) -> dict:
        return {"device": self.device, "policy": self.policy,
                "heat": self.heat, "backlog_s": self.backlog_s}


def _ring_hash(token: str) -> int:
    return int.from_bytes(blake2b(token.encode(), digest_size=8).digest(),
                          "big")


class FleetRouter:
    """Deterministic fingerprint router over ``n_devices`` devices."""

    def __init__(self, n_devices: int, *, hot_threshold: int = 3,
                 virtual_nodes: int = 64, salt: str = "fleet"):
        n_devices = int(n_devices)
        if n_devices < 1:
            raise ValueError(
                f"n_devices must be at least 1, got {n_devices}")
        if hot_threshold < 1:
            raise ValueError("hot_threshold must be at least 1")
        if virtual_nodes < 1:
            raise ValueError("virtual_nodes must be at least 1")
        self.n_devices = n_devices
        self.hot_threshold = int(hot_threshold)
        ring = []
        for dev in range(n_devices):
            for vn in range(virtual_nodes):
                ring.append((_ring_hash(f"{salt}:{dev}:{vn}"), dev))
        ring.sort()
        self._ring = ring
        self._heat: dict[str, int] = {}
        #: Modeled time each device is busy until, maintained from the
        #: caller's submission-time estimates.
        self.busy_until = [0.0] * n_devices

    # -- consistent hashing --------------------------------------------
    def hash_device(self, fingerprint: str) -> int:
        """Ring lookup: first virtual node clockwise of the key."""
        key = _ring_hash(fingerprint)
        ring = self._ring
        lo, hi = 0, len(ring)
        while lo < hi:
            mid = (lo + hi) // 2
            if ring[mid][0] < key:
                lo = mid + 1
            else:
                hi = mid
        return ring[lo % len(ring)][1]

    # -- routing -------------------------------------------------------
    def backlog_s(self, device: int, t_now: float) -> float:
        return max(0.0, self.busy_until[device] - t_now)

    def route(self, fingerprint: str, *, t_now: float = 0.0,
              est_seconds: float = 0.0) -> RouteDecision:
        """Route one request; updates heat and backlog bookkeeping.

        ``t_now`` is the request's modeled arrival time and
        ``est_seconds`` the caller's service-time estimate; both feed
        the virtual busy-until ledger behind least-backlog routing.
        """
        heat = self._heat.get(fingerprint, 0) + 1
        self._heat[fingerprint] = heat
        if heat > self.hot_threshold:
            backlogs = [self.backlog_s(d, t_now)
                        for d in range(self.n_devices)]
            device = min(range(self.n_devices),
                         key=lambda d: (backlogs[d], d))
            policy = "replicate"
        else:
            device = self.hash_device(fingerprint)
            policy = "hash"
        backlog = self.backlog_s(device, t_now)
        self.busy_until[device] = (max(self.busy_until[device], t_now)
                                   + max(0.0, est_seconds))
        return RouteDecision(device=device, policy=policy, heat=heat,
                             backlog_s=backlog)
