"""The benchmark's metrics, and what each per-layer metric should move.

Names, units and directions come from ``BENCHMARK.json``; this module
adds what that file's schema has no room for: for each per-layer
metric, whether it repeats exactly, the end-to-end metric a change in
it should move (``moves``) and the workloads on which it should, and
should not (``where``), so a later change can cite the pair by name.

End-to-end metrics come from the untraced run (``--trace 0``);
``fail_share`` is reported as the result's ``failed``/``attempted``
rather than as a metric, because it is 0 whenever the program is right.

Per-layer metrics come from the traced run (``--trace 1``).  Layers are
``repro`` subpackages.  ``fleet``, ``chaos`` and ``resilience`` only
wrap ``serve``/``spcg`` on a modeled clock, and ``obs``, ``harness``,
``datasets`` and ``lowrank`` are on no solve path, so none of them has
a metric here.

Conventions: values are per op (mean over the traced ops, which always
cover whole rounds); ``self_s`` is a span's time minus its child spans';
``bytes`` are computed from array sizes (unit ``B_computed``) -- every
matrix fits in L2 cache, so no bandwidth is claimed.  A layer that does
not run on a workload reports 0.  ``exact`` metrics repeat exactly at a
fixed seed and round count; ``perfbench/test_counts.py`` holds them to
that.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class Spec(NamedTuple):
    workloads: tuple[str, ...]
    #: (name, unit) of the end-to-end and of the per-layer metrics.
    end_to_end: tuple[tuple[str, str], ...]
    per_layer: tuple[tuple[str, str], ...]


@functools.cache
def spec() -> Spec:
    """Workload names and metric units from ``BENCHMARK.json``."""
    raw = json.loads(SPEC_PATH.read_text())
    return Spec(tuple(w["name"] for w in raw["workloads"]),
                *(tuple((m["name"], m["unit"]) for m in raw[kind])
                  for kind in ("end_to_end", "per_layer")))


class Why(NamedTuple):
    exact: bool
    moves: str
    where: str


_TRISOLVE = ("oneshot_ilu0 (1-D sweep, most), service_ilu0 (2-D sweep), "
             "stream_ilu0; 0 calls on service_fsai")
_FACTOR = ("every workload's setup_s; ops of oneshot_ilu0 and refactor "
           "steps of stream_ilu0; 0 in service ops")
_CORE = ("oneshot_ilu0; op_s.tail on stream_ilu0 (refactor steps); "
         "0 on the services")
_SERVICE = "service_ilu0 and service_fsai only"
_STREAM = "stream_ilu0 only"

#: Per-layer metric name -> rationale.
RATIONALE = {
    "sparse.spmv.calls": Why(True, "solves_per_s, op_s.p50",
                             "most on service_fsai, least on oneshot_ilu0"),
    "sparse.spmv.self_s": Why(False, "solves_per_s, op_s.p50",
                              "most on service_fsai (~89% of pcg_block), "
                              "least on oneshot_ilu0 (~6%)"),
    "sparse.spmv.bytes": Why(True, "solves_per_s, op_s.p50",
                             "every workload"),
    "precond.trisolve.calls": Why(True, "op_s.p50, solves_per_s", _TRISOLVE),
    "precond.trisolve.self_s": Why(False, "op_s.p50, solves_per_s",
                                   _TRISOLVE),
    "precond.trisolve.levels": Why(True, "op_s.p50, solves_per_s",
                                   _TRISOLVE),
    "precond.trisolve.s_per_level": Why(False, "op_s.p50, solves_per_s",
                                        _TRISOLVE),
    "precond.trisolve.bytes": Why(True, "op_s.p50, solves_per_s", _TRISOLVE),
    "precond.apply.self_s": Why(False, "op_s.p50, solves_per_s",
                                "every workload"),
    "precond.factor.calls": Why(True, "setup_s; op_s.p50 on oneshot_ilu0",
                                _FACTOR),
    "precond.factor.self_s": Why(False, "setup_s; op_s.p50 on oneshot_ilu0",
                                 _FACTOR),
    "graph.level_schedule.calls": Why(True, "setup_s, op_s.p50",
                                      "oneshot_ilu0, stream_ilu0 "
                                      "refactors; 0 on the services"),
    "graph.level_schedule.self_s": Why(False, "setup_s, op_s.p50",
                                       "oneshot_ilu0, stream_ilu0 "
                                       "refactors; 0 on the services"),
    "core.algorithm2.self_s": Why(False, "setup_s, op_s.p50", _CORE),
    "core.sparsify.self_s": Why(False, "setup_s, op_s.p50", _CORE),
    "core.indicator.self_s": Why(False, "setup_s, op_s.p50", _CORE),
    "core.candidates": Why(True, "setup_s, op_s.p50", _CORE),
    "core.wavefronts.before": Why(True, "setup_s, op_s.p50", _CORE),
    "core.wavefronts.after": Why(True, "op_s.p50", _CORE),
    "core.speedup_vs_unsparsified": Why(
        False, "op_s.p50", "oneshot_ilu0 only (pcg wall, ILU(0) of A over "
        "ILU(0) of the sparsified matrix)"),
    "solvers.pcg.calls": Why(True, "op_s.p50",
                             "oneshot_ilu0; stream_ilu0 only on "
                             "refinement; 0 on the services"),
    "solvers.pcg.iterations": Why(True, "op_s.p50",
                                  "oneshot_ilu0; 0 on the services"),
    "solvers.pcg.self_s": Why(False, "op_s.p50",
                              "oneshot_ilu0; 0 on the services"),
    "solvers.pcg.s_per_iter": Why(False, "op_s.p50",
                                  "oneshot_ilu0 (inclusive pcg wall per "
                                  "iteration)"),
    "batch.pcg_block.sweeps": Why(True, "solves_per_s", _SERVICE),
    "batch.pcg_block.occupancy": Why(True, "solves_per_s", _SERVICE),
    "batch.pcg_block.self_s": Why(False, "solves_per_s", _SERVICE),
    "batch.service.self_s": Why(False, "solves_per_s", _SERVICE),
    "serve.scheduler.self_s": Why(False, "op_s.p50", _SERVICE),
    "serve.queue_wait_s": Why(False, "op_s.p50",
                              _SERVICE + " (wall, submit end to block "
                              "dispatch, mean per request)"),
    "perf.cache.hits": Why(True, "setup_s",
                           "every workload (ArtifactCache.stats deltas "
                           "per op)"),
    "perf.cache.misses": Why(True, "setup_s",
                             "every workload (ArtifactCache.stats deltas "
                             "per op)"),
    "perf.cache.hit_ratio": Why(True, "setup_s", "every workload"),
    "perf.fingerprint.calls": Why(True, "solves_per_s",
                                  "the services and stream_ilu0"),
    "perf.fingerprint.self_s": Why(False, "solves_per_s",
                                   "the services and stream_ilu0"),
    "streams.step.self_s": Why(False, "op_s.p50, solves_per_s", _STREAM),
    "streams.recycle.self_s": Why(False, "op_s.p50, solves_per_s", _STREAM),
    "streams.iterations": Why(True, "op_s.p50, solves_per_s", _STREAM),
    "streams.refine_iters": Why(True, "op_s.p50, solves_per_s", _STREAM),
    "streams.reuse_share": Why(True, "op_s.p50, solves_per_s", _STREAM),
    "streams.deflated": Why(True, "op_s.p50, solves_per_s", _STREAM),
    "machine.pricing.calls": Why(True, "op_s.p50",
                                 "the services and stream_ilu0 (cost model on "
                                 "the request path); 0 on oneshot_ilu0"),
    "machine.pricing.self_s": Why(False, "op_s.p50",
                                  "the services and stream_ilu0; 0 on "
                                  "oneshot_ilu0"),
    "machine.modeled_s": Why(True, "none",
                             "every workload (A100-modeled seconds of the "
                             "same op, priced outside any timed region)"),
    "machine.wall_over_modeled": Why(False, "op_s.p50",
                                     "every workload (untraced op wall "
                                     "over modeled seconds)"),
    "trace.overhead": Why(False, "none",
                          "every workload (traced over untraced op_s.p50, "
                          "minus 1)"),
    "trace.coverage": Why(False, "none",
                          "every workload (share of op wall inside named "
                          "spans)"),
    "host.probe_s": Why(False, "none",
                        "every workload (fixed NumPy loop: host drift, "
                        "not program change)"),
}

EXACT = tuple(name for name, why in RATIONALE.items() if why.exact)


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0


def compute(spans: list[dict], counters: list[dict],
            untraced_walls: list[float], traced_walls: list[float],
            extra: dict) -> dict[str, float]:
    """Every per-layer metric from the traced ops.

    *spans* and *counters* are per traced op (``Tracer.per_op()`` and
    ``Tracer.counters`` with the runner's facts merged in);
    *untraced_walls* are the wall seconds of the same ops run untraced;
    *extra* holds ``core.speedup_vs_unsparsified`` and ``host.probe_s``.
    """
    n_ops = len(spans)
    total: dict[str, float] = {}
    for op_spans, op_counts in zip(spans, counters):
        for span, (self_s, total_s, calls) in op_spans.items():
            for suffix, v in (("self_s", self_s), ("total_s", total_s),
                              ("calls", calls)):
                key = f"{span}.{suffix}"
                total[key] = total.get(key, 0.0) + v
        for key, v in op_counts.items():
            total[key] = total.get(key, 0.0) + v

    def mean(key: str) -> float:
        return total.get(key, 0.0) / n_ops

    values = {name: mean(name) for name, _ in spec().per_layer}
    hits, misses = total.get("perf.cache.hits", 0.0), \
        total.get("perf.cache.misses", 0.0)
    values.update({
        "batch.service.self_s": mean("batch.service.self_s")
        + mean("batch.service.submit.self_s"),
        "precond.trisolve.s_per_level": _ratio(
            total.get("precond.trisolve.self_s", 0.0),
            total.get("precond.trisolve.levels", 0.0)),
        "solvers.pcg.s_per_iter": _ratio(
            total.get("solvers.pcg.total_s", 0.0),
            total.get("solvers.pcg.iterations", 0.0)),
        "batch.pcg_block.occupancy": _ratio(
            total.get("batch.pcg_block.column_iters", 0.0),
            total.get("batch.pcg_block.slots", 0.0)),
        "perf.cache.hit_ratio": _ratio(hits, hits + misses),
        "streams.reuse_share": _ratio(total.get("streams.reuse", 0.0),
                                      total.get("streams.steps", 0.0)),
        "machine.wall_over_modeled": _ratio(
            sum(untraced_walls), total.get("machine.modeled_s", 0.0)),
        "trace.overhead": _ratio(float(np.median(traced_walls)),
                                 float(np.median(untraced_walls))) - 1.0,
        "trace.coverage": float(np.mean(
            [1.0 - s["op"][0] / s["op"][1] for s in spans])),
        "core.speedup_vs_unsparsified":
            extra.get("core.speedup_vs_unsparsified", 0.0),
        "host.probe_s": extra["host.probe_s"],
    })
    return values
