"""Fleet layer: N modeled devices, a fingerprint router, link pricing.

The serving layer (:mod:`repro.serve`) simulates one device; this
package runs N of them behind one router:

* :mod:`repro.fleet.router` — fingerprint-affine routing (cold →
  consistent hash for cache affinity, hot → replicate with
  least-backlog placement), fully deterministic.
* :mod:`repro.fleet.scheduler` — :class:`FleetScheduler`, one
  :class:`~repro.serve.ServeScheduler` per device behind the router,
  sharing one artifact cache; per-device admission control, continuous
  batching, healing, chaos, and obs all unchanged.
* :mod:`repro.fleet.report` — :class:`FleetReport` aggregation with
  pooled latency percentiles and busy-time-weighted occupancy (the two
  numbers naive per-device averaging gets wrong).
* :mod:`repro.fleet.cost` — per-iteration fleet pricing of ``pcg``
  versus the pipelined and s-step CG variants of arXiv 2501.03743,
  exposing exactly the allreduce-on-the-critical-path seconds each
  variant removes.

Link costs come from :mod:`repro.machine.link` and are exactly zero at
``n_devices = 1``, so a one-device fleet prices bitwise like the single
:class:`~repro.serve.ServeScheduler`.
"""

from .cost import VARIANTS, CommIterationCost, comm_iteration_cost
from .report import FleetReport, fleet_mean_occupancy, pooled_percentile
from .router import FleetRouter, RouteDecision
from .scheduler import FleetScheduler, run_fleet_loadgen

__all__ = [
    "VARIANTS",
    "CommIterationCost",
    "comm_iteration_cost",
    "FleetReport",
    "fleet_mean_occupancy",
    "pooled_percentile",
    "FleetRouter",
    "RouteDecision",
    "FleetScheduler",
    "run_fleet_loadgen",
]
