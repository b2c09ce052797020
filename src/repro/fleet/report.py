"""Fleet-level aggregation of per-device serving reports.

Aggregating N :class:`~repro.serve.ServeReport`\\ s is where naive math
goes wrong, and this module exists to get two numbers right:

* **Latency percentiles.**  Averaging per-device p99s is not a fleet
  p99 — a device serving 3 requests would weigh as much as one serving
  300, and percentiles are not linear in the first place.  The fleet
  percentile is the percentile of the **pooled** per-request latency
  population, identical to what a single global observer would measure.
* **Occupancy.**  A device that was busy for 0.01 modeled seconds must
  not dilute (or inflate) the fleet mean as much as one busy for 10.
  Fleet occupancy weights each device's mean occupancy by its **busy
  time** (sum of its dispatch modeled-seconds):
  ``Σ_d occ_d · busy_d / Σ_d busy_d``.

The regression test constructs a skewed two-device scenario where the
naive averages are measurably wrong and pins the weighted answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..serve.scheduler import ServeReport, _json_num, percentile
from .router import RouteDecision

__all__ = ["FleetReport", "fleet_mean_occupancy", "pooled_percentile"]


def pooled_percentile(reports: list[ServeReport], q: float, *,
                      clock: str = "modeled") -> float:
    """p*q* over the union of all devices' completed-request latencies."""
    vals: list[float] = []
    for rep in reports:
        for o in rep.outcomes:
            if o.t_complete is None:
                continue
            vals.append(o.latency_s if clock == "modeled" else o.wall_s)
    return percentile(vals, q)


def device_busy_seconds(report: ServeReport) -> float:
    """Modeled seconds the device spent inside dispatches."""
    return sum(d.modeled_seconds for d in report.dispatches)


def fleet_mean_occupancy(reports: list[ServeReport]) -> float:
    """Busy-time-weighted mean slot occupancy across devices."""
    num = 0.0
    den = 0.0
    for rep in reports:
        busy = device_busy_seconds(rep)
        occ = rep.mean_occupancy
        if busy > 0 and occ == occ:
            num += occ * busy
            den += busy
    return num / den if den else float("nan")


@dataclass
class FleetReport:
    """Aggregate outcome of a fleet run.

    ``device_reports[d]`` is device *d*'s own :class:`ServeReport` —
    admission, batching, chaos, and obs accounting all remain
    per-device; this record only aggregates.  ``routes`` is the
    assignment sequence in submission order (the determinism golden).
    """

    device_reports: list[ServeReport]
    routes: list[RouteDecision] = field(default_factory=list)
    n_devices: int = 0

    def __post_init__(self):
        if not self.n_devices:
            self.n_devices = len(self.device_reports)

    # -- counts (sums are safe to aggregate naively) -------------------
    @property
    def n_requests(self) -> int:
        return sum(r.n_requests for r in self.device_reports)

    @property
    def n_completed(self) -> int:
        return sum(r.n_completed for r in self.device_reports)

    @property
    def n_shed(self) -> int:
        return sum(r.n_shed for r in self.device_reports)

    @property
    def n_deadline_met(self) -> int:
        return sum(r.n_deadline_met for r in self.device_reports)

    @property
    def shed_by_reason(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for rep in self.device_reports:
            for k, v in rep.shed_by_reason.items():
                out[k] = out.get(k, 0) + v
        return out

    # -- clocks --------------------------------------------------------
    @property
    def makespan_s(self) -> float:
        """First arrival anywhere to last completion anywhere."""
        starts = []
        ends = []
        for rep in self.device_reports:
            for o in rep.outcomes:
                starts.append(o.t_arrival)
                if o.t_complete is not None:
                    ends.append(o.t_complete)
        if not starts or not ends:
            return 0.0
        return max(ends) - min(starts)

    @property
    def throughput_rps(self) -> float:
        mk = self.makespan_s
        if mk <= 0:
            return float("nan")
        return self.n_completed / mk

    @property
    def goodput_rps(self) -> float:
        mk = self.makespan_s
        if mk <= 0:
            return float("nan")
        return self.n_deadline_met / mk

    # -- the two aggregations that must not be naive -------------------
    def latency_percentile(self, q: float, *,
                           clock: str = "modeled") -> float:
        """Fleet percentile over the pooled latency population."""
        return pooled_percentile(self.device_reports, q, clock=clock)

    @property
    def mean_occupancy(self) -> float:
        """Busy-time-weighted fleet occupancy."""
        return fleet_mean_occupancy(self.device_reports)

    @property
    def device_busy_s(self) -> list[float]:
        return [device_busy_seconds(r) for r in self.device_reports]

    @property
    def routes_by_device(self) -> list[int]:
        counts = [0] * self.n_devices
        for r in self.routes:
            counts[r.device] += 1
        return counts

    @property
    def n_replicated(self) -> int:
        return sum(1 for r in self.routes if r.policy == "replicate")

    # -- rendering -----------------------------------------------------
    def capacity_table(self) -> str:
        """Markdown per-device + fleet capacity summary."""
        header = ("| device | requests | completed | shed | busy [s] | "
                  "occupancy | p99 [model s] |")
        rule = "| --- | --- | --- | --- | --- | --- | --- |"
        lines = [header, rule]
        for d, rep in enumerate(self.device_reports):
            occ = rep.mean_occupancy
            p99 = rep.latency_percentile(99)
            lines.append(
                f"| {d} | {rep.n_requests} | {rep.n_completed} | "
                f"{rep.n_shed} | {device_busy_seconds(rep):.6f} | "
                f"{occ:.3f} | {p99:.6f} |")
        occ = self.mean_occupancy
        p99 = self.latency_percentile(99)
        lines.append(
            f"| fleet | {self.n_requests} | {self.n_completed} | "
            f"{self.n_shed} | {sum(self.device_busy_s):.6f} | "
            f"{occ:.3f} | {p99:.6f} |")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-serializable summary (modeled clock only — wall-clock
        figures are nondeterministic and excluded from goldens)."""
        return {
            "n_devices": self.n_devices,
            "n_requests": self.n_requests,
            "n_completed": self.n_completed,
            "n_shed": self.n_shed,
            "shed_by_reason": self.shed_by_reason,
            "n_deadline_met": self.n_deadline_met,
            "makespan_s": self.makespan_s,
            "throughput_rps": _json_num(self.throughput_rps),
            "goodput_rps": _json_num(self.goodput_rps),
            "mean_occupancy": _json_num(self.mean_occupancy),
            "latency_modeled_s": {
                f"p{q}": _json_num(self.latency_percentile(q))
                for q in (50, 95, 99)},
            "routes_by_device": self.routes_by_device,
            "n_replicated": self.n_replicated,
            "device_busy_s": self.device_busy_s,
            "devices": [
                {k: v for k, v in rep.as_dict().items()
                 if k != "latency_wall_s"}
                for rep in self.device_reports],
        }
