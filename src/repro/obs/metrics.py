"""Process-wide metrics registry: counters, gauges, histograms, timers.

Complements :mod:`repro.obs.trace`: traces answer "what happened, in
what order", metrics answer "how much, how often, how long" without
retaining per-event storage.  The registry is thread-safe (one lock
guards every update, so callers may record from several threads) and
bounded — histograms keep running moments (count/sum/min/max), never
samples.

Phase timers record **wall-clock and modeled seconds side by side**
(``phase.<name>.wall_s`` / ``phase.<name>.modeled_s``), so the machine
model's simulated time can be compared against real Python time per
phase — the calibration view the paper's §5 profiling tables need.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

__all__ = ["HistogramStats", "MetricsRegistry", "get_metrics",
           "set_metrics", "use_metrics"]


@dataclass
class HistogramStats:
    """Running moments of one observed series (no samples retained)."""

    count: int = 0
    total: float = 0.0
    vmin: float = float("inf")
    vmax: float = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def as_dict(self) -> dict:
        return {"count": self.count, "total": self.total,
                "min": self.vmin if self.count else float("nan"),
                "max": self.vmax if self.count else float("nan"),
                "mean": self.mean}


class MetricsRegistry:
    """Named counters, gauges and histograms behind one lock.

    Counter and gauge writes are a dict update under an uncontended
    lock — cheap enough to leave permanently on (they sit on per-solve
    paths, never on the per-iteration hot path; the trace recorder's
    ``enabled`` guard covers that one).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._hists: dict[str, HistogramStats] = {}

    # -- counters ----------------------------------------------------------
    def inc(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    # -- gauges ------------------------------------------------------------
    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def gauge_value(self, name: str) -> float:
        return self._gauges.get(name, float("nan"))

    # -- histograms --------------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        with self._lock:
            h = self._hists.get(name)
            if h is None:
                h = self._hists[name] = HistogramStats()
            h.observe(float(value))

    def histogram(self, name: str) -> HistogramStats:
        """The live histogram for *name* (empty stats when never observed)."""
        return self._hists.get(name, HistogramStats())

    # -- phase timers ------------------------------------------------------
    @contextmanager
    def time_phase(self, name: str,
                   modeled_seconds: float | None = None) -> Iterator[None]:
        """Time a ``with`` block into ``phase.<name>.wall_s``; when
        *modeled_seconds* is given, record it to ``phase.<name>.modeled_s``
        so the two clocks stay paired per phase."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.observe(f"phase.{name}.wall_s", time.perf_counter() - t0)
            if modeled_seconds is not None:
                self.observe(f"phase.{name}.modeled_s", modeled_seconds)

    def observe_phase(self, name: str, wall_seconds: float,
                      modeled_seconds: float | None = None) -> None:
        """Record an already-measured phase duration (both clocks)."""
        self.observe(f"phase.{name}.wall_s", wall_seconds)
        if modeled_seconds is not None:
            self.observe(f"phase.{name}.modeled_s", modeled_seconds)

    # -- snapshots ---------------------------------------------------------
    def snapshot(self) -> dict:
        """Point-in-time copy of every series, JSON-serializable."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {k: h.as_dict()
                               for k, h in self._hists.items()},
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()

    def summary(self) -> str:
        """A compact multi-line rendering (CLI / CI step summaries)."""
        snap = self.snapshot()
        lines = []
        for name, v in sorted(snap["counters"].items()):
            lines.append(f"{name} = {v:g}")
        for name, v in sorted(snap["gauges"].items()):
            lines.append(f"{name} := {v:g}")
        for name, h in sorted(snap["histograms"].items()):
            if not h["count"]:
                continue
            lines.append(f"{name}: n={h['count']} mean={h['mean']:.3e} "
                         f"min={h['min']:.3e} max={h['max']:.3e}")
        return "\n".join(lines) or "no metrics recorded"


_default = MetricsRegistry()
_default_lock = threading.Lock()


def get_metrics() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the default registry; returns the previous one."""
    global _default
    with _default_lock:
        old = _default
        _default = registry
        return old


@contextmanager
def use_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Temporarily install *registry* as the default (tests lean on this)."""
    old = set_metrics(registry)
    try:
        yield registry
    finally:
        set_metrics(old)
