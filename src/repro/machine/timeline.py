"""Kernel-event timeline: the modeled analogue of a profiler trace.

The harness records every priced kernel (name, modeled duration, FLOPs,
bytes) into a :class:`Timeline`; phase summaries and the utilization
metrics of Section 5.3 are derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["KernelEvent", "Timeline"]


@dataclass(frozen=True)
class KernelEvent:
    """One modeled kernel execution.

    Attributes
    ----------
    name:
        Kernel identifier, e.g. ``"spmv"``, ``"trisolve_fwd"``.
    phase:
        Pipeline phase: ``"sparsify"``, ``"factorize"`` or ``"solve"``.
    seconds:
        Modeled duration.
    flops, bytes:
        Work and traffic the duration was derived from.
    """

    name: str
    phase: str
    seconds: float
    flops: float = 0.0
    bytes: float = 0.0


@dataclass
class Timeline:
    """Append-only sequence of :class:`KernelEvent` with aggregation."""

    events: list[KernelEvent] = field(default_factory=list)

    def record(self, name: str, phase: str, seconds: float,
               flops: float = 0.0, bytes: float = 0.0) -> None:
        """Append one event."""
        if seconds < 0:
            raise ValueError("event duration must be non-negative")
        self.events.append(KernelEvent(name=name, phase=phase,
                                       seconds=seconds, flops=flops,
                                       bytes=bytes))

    @property
    def total_seconds(self) -> float:
        """Sum of all event durations."""
        return sum(e.seconds for e in self.events)

    def phase_seconds(self, phase: str) -> float:
        """Total duration of one phase."""
        return sum(e.seconds for e in self.events if e.phase == phase)

    def phase_flops(self, phase: str) -> float:
        return sum(e.flops for e in self.events if e.phase == phase)

    def phase_bytes(self, phase: str) -> float:
        return sum(e.bytes for e in self.events if e.phase == phase)

    def phases(self) -> list[str]:
        """Distinct phases in first-appearance order."""
        seen: list[str] = []
        for e in self.events:
            if e.phase not in seen:
                seen.append(e.phase)
        return seen

    def summary(self) -> dict[str, float]:
        """Mapping phase → seconds, plus ``"total"``."""
        out = {p: self.phase_seconds(p) for p in self.phases()}
        out["total"] = self.total_seconds
        return out
