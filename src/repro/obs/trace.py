"""Structured trace recorder — the observability backbone.

The paper's argument is quantitative (wavefront counts, per-iteration
times, cache behaviour, recovery rates), so the pipeline emits *typed
events* at every phase boundary instead of ad-hoc prints.  A
:class:`TraceRecorder` buffers :class:`TraceEvent` records in process
and dumps them as JSON-lines; ``repro report`` renders the ledger.

Event kinds
-----------
``solve_start`` / ``iteration`` / ``solve_end``
    Emitted by :func:`repro.solvers.cg.pcg` around Algorithm 1.
``sparsify_decision``
    Algorithm 2's outcome with the full per-candidate τ/ω diagnostics.
``factorization``
    One preconditioner build (cache misses only — hits never factorize).
``cache_hit`` / ``cache_miss``
    Per-kind artifact-cache traffic.
``fallback_rung`` / ``guard_trip``
    Resilience-ladder attempts and health-guard aborts.
``experiment_start`` / ``experiment_end``
    One matrix of a harness sweep (the ledger's per-matrix rows).
``suite_start`` / ``suite_end``
    Sweep boundaries; ``suite_end`` carries the cache-stats snapshot.
``batch_start`` / ``batch_end``
    One fingerprint-grouped batched solve dispatched by
    :class:`repro.batch.SolverService`; both carry the batch size.
``queue_enqueue`` / ``queue_cancel``
    Serving-queue lifecycle: a request accepted into the
    :class:`repro.serve.RequestQueue`, or cancelled while queued.
``admit`` / ``shed``
    A queued request admitted into a running/new block at an iteration
    boundary, or rejected/expired with a ``reason`` (``queue_depth``,
    ``backlog_seconds``, ``deadline_queued``, ``cancelled``).
``fault_injected``
    A :class:`repro.resilience.FaultPlan` fired one boundary fault at
    an iteration boundary of the serving scheduler (``kind`` is one of
    ``transient``, ``stall``, ``crash``, ``sdc_spmv``,
    ``sdc_trisolve``).
``checksum_fail``
    A detector caught silent corruption — ABFT column-checksum mismatch
    on the batched SpMV or true-vs-recurrence residual drift
    (``method`` is ``"abft"`` / ``"residual"``).
``checkpoint`` / ``restart``
    Per-column (x, r, p) state captured at a verified iteration
    boundary, or a request re-admitted from its last checkpoint.
``retry``
    A failed request re-queued with exponential backoff on the modeled
    clock (``attempt`` counts from 1).
``breaker_open`` / ``breaker_close``
    The per-fingerprint circuit breaker downgraded the dispatch rung
    after repeated failures, or restored it after a cooldown.
``brownout``
    The overload policy entered/left brownout (``active`` is true on
    entry, false on exit) — tolerance loosened / preconditioner
    downgraded while the modeled backlog exceeds its threshold.
``route``
    Fleet-layer routing decisions.
``session_start`` / ``session_step`` / ``staleness``
    Amortized solve streams (:class:`repro.streams.SolveSession`): a
    session opened; one step solved (action taken, iterations, modeled
    seconds, true-residual verification); one staleness decision with
    its drift measurement and the modeled cost of every candidate
    action (``reuse`` / ``refresh`` / ``refactor``).

Zero-cost-when-off invariant
----------------------------
The process-wide default recorder is the :data:`NULL_RECORDER`, whose
``enabled`` flag is ``False``.  Every instrumentation site guards with
``if rec.enabled:`` **before** building the event payload, so a
disabled trace performs one attribute load and a branch per site — no
allocation, no formatting, no locking.  The iteration hot path of
:func:`~repro.solvers.cg.pcg` is guarded this way and the
``test_perf_guard.py`` wall-clock guards hold with tracing off.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

__all__ = ["EVENT_KINDS", "TraceEvent", "TraceRecorder", "NullRecorder",
           "NULL_RECORDER", "get_recorder", "set_recorder", "use_recorder",
           "load_jsonl"]

#: Every event kind the pipeline emits (payloads documented above).
EVENT_KINDS = (
    "solve_start", "iteration", "solve_end",
    "sparsify_decision", "factorization",
    "cache_hit", "cache_miss",
    "fallback_rung", "guard_trip",
    "experiment_start", "experiment_end",
    "suite_start", "suite_end",
    "batch_start", "batch_end",
    "queue_enqueue", "queue_cancel", "admit", "shed",
    "fault_injected", "checksum_fail", "checkpoint", "restart",
    "retry", "breaker_open", "breaker_close", "brownout",
    "route",
    "session_start", "session_step", "staleness",
)


@dataclass(frozen=True)
class TraceEvent:
    """One typed trace record.

    Attributes
    ----------
    kind:
        One of :data:`EVENT_KINDS`.
    seq:
        Monotone per-recorder sequence number (gap-free emission order —
        wall clocks can tie across threads, ``seq`` cannot).
    t_wall:
        ``time.perf_counter()`` at emission, relative to the recorder's
        construction (so traces from different runs are comparable).
    payload:
        Kind-specific fields, JSON-serializable by construction.
    """

    kind: str
    seq: int
    t_wall: float
    payload: dict

    def to_json(self) -> str:
        """One JSONL line; the payload is nested under ``data`` so its
        keys can never collide with the envelope fields."""
        return json.dumps({"kind": self.kind, "seq": self.seq,
                           "t_wall": self.t_wall, "data": self.payload})


class TraceRecorder:
    """Thread-safe in-process event buffer.

    Parameters
    ----------
    maxlen:
        Drop-oldest bound on the buffer (``None`` = unbounded).  Long
        sweeps with per-iteration tracing can emit millions of events;
        the bound keeps memory predictable.  ``dropped`` counts what was
        discarded so a truncated trace is never mistaken for a complete
        one.
    """

    enabled: bool = True

    def __init__(self, maxlen: int | None = None):
        if maxlen is not None and maxlen < 1:
            raise ValueError("maxlen must be positive or None")
        self._maxlen = maxlen
        self._events: list[TraceEvent] = []
        self._lock = threading.Lock()
        self._seq = 0
        self._t0 = time.perf_counter()
        self.dropped = 0

    # ------------------------------------------------------------------
    def emit(self, kind: str, /, **payload) -> None:
        """Record one event (timestamps and sequencing are handled here).

        *kind* is positional-only so payloads may themselves carry a
        ``kind`` field (the cache events do).
        """
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}; "
                             f"choose from {EVENT_KINDS}")
        t = time.perf_counter() - self._t0
        with self._lock:
            ev = TraceEvent(kind=kind, seq=self._seq, t_wall=t,
                            payload=payload)
            self._seq += 1
            self._events.append(ev)
            if self._maxlen is not None and len(self._events) > self._maxlen:
                del self._events[0]
                self.dropped += 1

    def __len__(self) -> int:
        return len(self._events)

    def events(self, kind: str | None = None) -> tuple[TraceEvent, ...]:
        """Snapshot of the buffer, optionally filtered by *kind*."""
        with self._lock:
            evs = tuple(self._events)
        if kind is None:
            return evs
        return tuple(e for e in evs if e.kind == kind)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """The buffered events as JSON-lines text."""
        return "".join(e.to_json() + "\n" for e in self.events())

    def dump(self, path: str | Path) -> int:
        """Write the buffer to *path* as JSON-lines; returns event count."""
        evs = self.events()
        Path(path).write_text("".join(e.to_json() + "\n" for e in evs))
        return len(evs)


class NullRecorder(TraceRecorder):
    """The disabled recorder: ``enabled`` is ``False`` and ``emit`` is a
    no-op, so instrumentation sites that (incorrectly) skip the
    ``enabled`` guard still cost nothing observable."""

    enabled = False

    def emit(self, kind: str, /, **payload) -> None:  # pragma: no cover
        return None


#: Process-wide disabled recorder — the default until tracing is enabled.
NULL_RECORDER = NullRecorder()

_current: TraceRecorder = NULL_RECORDER
_current_lock = threading.Lock()


def get_recorder() -> TraceRecorder:
    """The process-wide current recorder (:data:`NULL_RECORDER` unless
    tracing was enabled via :func:`set_recorder`/:func:`use_recorder`)."""
    return _current


def set_recorder(recorder: TraceRecorder) -> TraceRecorder:
    """Install *recorder* as the process default; returns the previous."""
    global _current
    with _current_lock:
        old = _current
        _current = recorder
        return old


@contextmanager
def use_recorder(recorder: TraceRecorder) -> Iterator[TraceRecorder]:
    """Temporarily install *recorder* (the CLI ``--trace`` path and the
    tests lean on this)."""
    old = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(old)


def load_jsonl(source: str | Path | Iterable[str]) -> list[TraceEvent]:
    """Parse a JSON-lines trace back into :class:`TraceEvent` records.

    *source* is a path or an iterable of lines.  Unknown keys survive in
    the payload, so traces are forward-compatible across schema growth.
    """
    if isinstance(source, (str, Path)):
        lines = Path(source).read_text().splitlines()
    else:
        lines = list(source)
    out: list[TraceEvent] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        d = json.loads(line)
        out.append(TraceEvent(kind=d["kind"], seq=int(d["seq"]),
                              t_wall=float(d["t_wall"]),
                              payload=d.get("data", {})))
    return out
