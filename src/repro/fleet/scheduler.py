"""Fleet scheduler: N modeled devices behind one fingerprint router.

The fleet runs one :class:`~repro.serve.ServeScheduler` **per device**
— admission control, continuous batching, retry/breaker/brownout
healing, chaos injection, and the obs ledger all keep working
per-device, untouched — and puts a :class:`~repro.fleet.FleetRouter`
in front: each submission is assigned a device by matrix fingerprint
(cold → consistent hash, hot → least backlog) and forwarded to that
device's scheduler with its arrival time intact.

All devices share one :class:`~repro.perf.ArtifactCache`, so a
fingerprint replicated across devices is still factorized **once**.

Devices simulate independently (each on its own modeled clock axis,
synchronized at zero — valid because routed requests never interact
across devices), and the per-device reports aggregate into a
:class:`~repro.fleet.FleetReport` with pooled percentiles and
busy-time-weighted occupancy.  The whole pipeline is deterministic:
identical seeds and arrival traces give identical routing sequences
and identical reports, pinned by the golden trace test.
"""

from __future__ import annotations

import numpy as np

from ..core.spcg import make_preconditioner
from ..machine.device import DeviceModel, get_device
from ..machine.kernels import estimate_request_seconds
from ..obs.metrics import get_metrics
from ..obs.trace import get_recorder
from ..perf.cache import ArtifactCache
from ..perf.fingerprint import matrix_fingerprint
from ..serve.loadgen import LoadSpec, poisson_arrivals
from ..serve.request import validate_rhs
from ..serve.scheduler import ServeScheduler
from ..sparse.csr import CSRMatrix
from .report import FleetReport
from .router import FleetRouter

__all__ = ["FleetScheduler", "run_fleet_loadgen"]


class FleetScheduler:
    """Route requests across ``n_devices`` modeled serve schedulers.

    Keyword arguments other than the fleet-level ones below are
    forwarded to every per-device :class:`ServeScheduler` (so
    ``policy``, ``window``, ``retry``, ``breaker``, ``brownout``, …
    configure each device identically; policies are immutable configs,
    per-device state stays per-device).

    Parameters
    ----------
    n_devices:
        Fleet width.  ``1`` degenerates to a single server whose
        modeled outcomes are bitwise those of a bare
        :class:`ServeScheduler` fed the same submissions.
    hot_threshold, virtual_nodes:
        Router knobs (see :class:`FleetRouter`).
    chaos:
        ``None``, or a sequence of ``n_devices`` per-device
        :class:`~repro.resilience.FaultPlan` s (one plan cannot be
        shared — its draw stream is stateful).
    """

    def __init__(self, *, n_devices: int = 1,
                 device: DeviceModel | str | None = None,
                 hot_threshold: int = 3, virtual_nodes: int = 64,
                 cache: ArtifactCache | None = None,
                 prior_iters: int = 100, chaos=None,
                 **device_kwargs):
        n_devices = int(n_devices)
        if n_devices < 1:
            raise ValueError(
                f"n_devices must be at least 1, got {n_devices}")
        device = get_device(device)
        if chaos is not None:
            chaos = list(chaos)
            if len(chaos) != n_devices:
                raise ValueError(
                    f"chaos must provide one plan per device "
                    f"({n_devices}), got {len(chaos)}")
        self.n_devices = n_devices
        self.device = device
        self.cache = cache
        self.kind = device_kwargs.get("preconditioner", "ilu0")
        self.k = int(device_kwargs.get("k", 1))
        self.prior_iters = int(prior_iters)
        self.router = FleetRouter(n_devices, hot_threshold=hot_threshold,
                                  virtual_nodes=virtual_nodes)
        self.schedulers = [
            ServeScheduler(device=device, cache=cache,
                           prior_iters=prior_iters,
                           chaos=None if chaos is None else chaos[d],
                           **device_kwargs)
            for d in range(n_devices)]
        self._routes: list = []
        #: Fleet request id → (device, device-local request id).
        self._placement: dict[int, tuple[int, int]] = {}
        self._next_id = 0
        self._estimates: dict[str, float] = {}

    # -- routing helpers -----------------------------------------------
    def _estimate(self, a: CSRMatrix, fingerprint: str) -> float:
        """A-priori modeled service seconds (cached per fingerprint)."""
        est = self._estimates.get(fingerprint)
        if est is None:
            m = make_preconditioner(a, self.kind, k=self.k,
                                    cache=self.cache)
            crit = self.schedulers[0].criterion
            iters = min(self.prior_iters, crit.max_iters)
            est = estimate_request_seconds(self.device, a, m, iters=iters)
            self._estimates[fingerprint] = est
        return est

    # -- submission ----------------------------------------------------
    def submit(self, a: CSRMatrix, b: np.ndarray, *, tag: str = "",
               priority: int = 0, deadline_s: float | None = None,
               arrival_s: float | None = None) -> int:
        """Route one request to a device and submit it there.

        Returns the fleet-level request id; the placement (device and
        device-local id) is available via :meth:`placement`.  Raises
        exactly what the chosen device's scheduler raises.
        """
        b = validate_rhs(a, b, tag=tag)
        fingerprint = matrix_fingerprint(a)
        t_now = 0.0 if arrival_s is None else float(arrival_s)
        decision = self.router.route(
            fingerprint, t_now=t_now,
            est_seconds=self._estimate(a, fingerprint))
        dev_sched = self.schedulers[decision.device]
        local_id = dev_sched.submit(a, b, tag=tag, priority=priority,
                                    deadline_s=deadline_s,
                                    arrival_s=arrival_s)
        fleet_id = self._next_id
        self._next_id += 1
        self._routes.append(decision)
        self._placement[fleet_id] = (decision.device, local_id)
        metrics = get_metrics()
        metrics.inc("fleet.routed")
        metrics.inc(f"fleet.routed_device_{decision.device}")
        if decision.policy == "replicate":
            metrics.inc("fleet.routed_hot")
        rec = get_recorder()
        if rec.enabled:
            rec.emit("route", req_id=fleet_id, device=decision.device,
                     policy=decision.policy, heat=decision.heat,
                     backlog_s=decision.backlog_s, tag=tag,
                     fingerprint=fingerprint, t_model=t_now)
        return fleet_id

    def placement(self, fleet_id: int) -> tuple[int, int]:
        """``(device, device-local request id)`` for a fleet request."""
        return self._placement[fleet_id]

    def outcome(self, fleet_id: int):
        """Terminal record for a fleet request (``None`` while pending)."""
        device, local_id = self._placement[fleet_id]
        return self.schedulers[device].outcome(local_id)

    # -- execution -----------------------------------------------------
    def run(self) -> FleetReport:
        """Drain every device and aggregate the fleet report.

        Devices are simulated in index order — their modeled clocks are
        independent, so ordering cannot change any outcome.
        """
        reports = [sched.run() for sched in self.schedulers]
        return FleetReport(device_reports=reports,
                           routes=list(self._routes),
                           n_devices=self.n_devices)


def run_fleet_loadgen(fleet: FleetScheduler, matrices,
                      spec: LoadSpec) -> FleetReport:
    """Open-loop Poisson load over *matrices*, served by *fleet*.

    Mirrors :func:`repro.serve.run_loadgen`'s open-loop mode: seeded
    arrivals, uniform matrix draw, Gaussian right-hand sides — the same
    ``spec.seed`` reproduces the same trace, fleet-wide.
    """
    matrices = list(matrices)
    if not matrices:
        raise ValueError("need at least one matrix")
    if spec.mode != "open":
        raise ValueError("fleet loadgen supports open-loop mode only")
    rng = np.random.default_rng(spec.seed)
    arrivals = poisson_arrivals(spec.rate_rps, spec.n_requests, rng)
    for i, t_arr in enumerate(arrivals):
        a = matrices[int(rng.integers(len(matrices)))]
        b = rng.standard_normal(a.n_rows)
        deadline = None if spec.deadline_s is None \
            else float(t_arr) + spec.deadline_s
        fleet.submit(a, b, tag=f"load-{i}", deadline_s=deadline,
                     arrival_s=float(t_arr))
    return fleet.run()
