"""Run-ledger rendering: turn a JSON-lines trace into tables.

``repro report t.jsonl`` calls :func:`render_report`; the pure
:func:`summarize_trace` returns the same information as a dict for
programmatic use (the tests assert on it, CI renders it into the step
summary).  The ledger's sections:

* **per-matrix phase table** — one row per ``experiment_end`` event:
  modeled sparsify/factorization/iteration seconds per variant, iteration
  counts, speedups;
* **solve ledger** — ``solve_start``/``solve_end`` pairs (for ``solve``
  traces that carry no experiment events);
* **cache** — hit/miss/rate per artifact kind from the
  ``cache_hit``/``cache_miss`` stream;
* **serving** — queue traffic (enqueues, sheds by reason, cancels),
  dispatch count, mid-block admissions and sweep-weighted mean batch
  occupancy from the ``queue_*``/``admit``/``shed``/``batch_end``
  stream;
* **fleet** — routing decisions per device and per policy
  (hash/replicate) from the ``route`` stream;
* **failures** — taxonomy over failed experiment variants and fallback
  attempts, plus guard-trip and fallback-recovery counts;
* **chaos / self-healing** — injected faults by kind, corruption
  detections by method (ABFT checksum vs true residual), checkpoints,
  restarts, retries, breaker transitions, and brownout episodes from
  the ``fault_injected``/``checksum_fail``/``checkpoint``/``restart``/
  ``retry``/``breaker_*``/``brownout`` stream.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Sequence

from .trace import TraceEvent, load_jsonl

__all__ = ["summarize_trace", "render_report", "render_report_file"]


def _fmt(x, width: int = 9) -> str:
    """Fixed-width number cell; NaN/None render as ``n/a``."""
    if x is None or (isinstance(x, float) and not math.isfinite(x)):
        return "n/a".rjust(width)
    if isinstance(x, float):
        return f"{x:.3g}".rjust(width)
    return str(x).rjust(width)


def summarize_trace(events: Sequence[TraceEvent]) -> dict:
    """Aggregate a trace into the ledger's sections (see module doc)."""
    experiments: list[dict] = []
    solves: list[dict] = []
    open_solves: list[dict] = []
    cache: dict[str, dict[str, int]] = {}
    taxonomy: dict[str, int] = {}
    recovered_by: dict[str, int] = {}
    guard_trips = 0
    fallback_attempts = 0
    suite_meta: dict = {}
    serving = {"enqueued": 0, "shed": {}, "queue_cancels": 0,
               "admits": 0, "mid_block_admits": 0, "dispatches": 0,
               "served_rhs": 0, "modeled_seconds": 0.0}
    chaos = {"faults": {}, "detections": {}, "checkpoints": 0,
             "restarts": 0, "retries": 0, "breaker_opens": 0,
             "breaker_closes": 0, "brownouts": 0}
    fleet = {"routed": 0, "by_device": {}, "by_policy": {}}
    occ_num = occ_den = 0.0

    for ev in events:
        p = ev.payload
        if ev.kind == "experiment_end":
            experiments.append(p)
            for variant in ("baseline", "spcg"):
                fc = p.get(variant, {}).get("failure_class") or ""
                if fc:
                    taxonomy[fc] = taxonomy.get(fc, 0) + 1
        elif ev.kind == "solve_start":
            open_solves.append(dict(p))
        elif ev.kind == "solve_end":
            rec = open_solves.pop() if open_solves else {}
            rec.update(p)
            solves.append(rec)
        elif ev.kind in ("cache_hit", "cache_miss"):
            kind = p.get("kind", "?")
            slot = cache.setdefault(kind, {"hits": 0, "misses": 0})
            slot["hits" if ev.kind == "cache_hit" else "misses"] += 1
        elif ev.kind == "fallback_rung":
            fallback_attempts += 1
            fc = p.get("failure") or ""
            if fc:
                taxonomy[fc] = taxonomy.get(fc, 0) + 1
            if p.get("converged"):
                rung = p.get("rung", "?")
                recovered_by[rung] = recovered_by.get(rung, 0) + 1
        elif ev.kind == "guard_trip":
            guard_trips += 1
        elif ev.kind == "suite_start":
            suite_meta.update(p)
        elif ev.kind == "suite_end":
            suite_meta.update(p)
        elif ev.kind == "queue_enqueue":
            serving["enqueued"] += 1
        elif ev.kind == "queue_cancel":
            serving["queue_cancels"] += 1
            reason = p.get("reason", "?")
            serving["shed"][reason] = serving["shed"].get(reason, 0) + 1
        elif ev.kind == "shed":
            reason = p.get("reason", "?")
            serving["shed"][reason] = serving["shed"].get(reason, 0) + 1
        elif ev.kind == "admit":
            serving["admits"] += 1
            if p.get("mid_block"):
                serving["mid_block_admits"] += 1
        elif ev.kind == "batch_end":
            serving["dispatches"] += 1
            serving["served_rhs"] += int(p.get("batch", 0))
            serving["modeled_seconds"] += float(p.get("modeled_seconds",
                                                      0.0))
            if "occupancy" in p:
                sweeps = float(p.get("sweeps", 0))
                occ_num += float(p["occupancy"]) * sweeps
                occ_den += sweeps
        elif ev.kind == "fault_injected":
            kind = p.get("kind", "?")
            chaos["faults"][kind] = chaos["faults"].get(kind, 0) + 1
        elif ev.kind == "checksum_fail":
            method = p.get("method", "?")
            chaos["detections"][method] = \
                chaos["detections"].get(method, 0) + 1
        elif ev.kind == "checkpoint":
            chaos["checkpoints"] += len(p.get("keys", ())) or 1
        elif ev.kind == "restart":
            chaos["restarts"] += 1
        elif ev.kind == "retry":
            chaos["retries"] += 1
        elif ev.kind == "breaker_open":
            chaos["breaker_opens"] += 1
        elif ev.kind == "breaker_close":
            chaos["breaker_closes"] += 1
        elif ev.kind == "brownout":
            if p.get("active"):
                chaos["brownouts"] += 1
        elif ev.kind == "route":
            fleet["routed"] += 1
            dev = p.get("device", "?")
            fleet["by_device"][dev] = fleet["by_device"].get(dev, 0) + 1
            policy = p.get("policy", "?")
            fleet["by_policy"][policy] = \
                fleet["by_policy"].get(policy, 0) + 1

    for slot in cache.values():
        n = slot["hits"] + slot["misses"]
        slot["hit_rate"] = slot["hits"] / n if n else 0.0
    serving["mean_occupancy"] = (occ_num / occ_den if occ_den
                                 else float("nan"))

    return {
        "n_events": len(events),
        "suite": suite_meta,
        "experiments": experiments,
        "solves": solves,
        "cache": cache,
        "serving": serving,
        "chaos": chaos,
        "fleet": fleet,
        "failure_taxonomy": dict(sorted(taxonomy.items(),
                                        key=lambda kv: (-kv[1], kv[0]))),
        "guard_trips": guard_trips,
        "fallback_attempts": fallback_attempts,
        "recovered_by": recovered_by,
    }


def _experiment_rows(experiments: Iterable[dict]) -> list[str]:
    hdr = (f"{'matrix':28s} {'n':>6s} {'ratio%':>6s} "
           f"{'it(pcg)':>7s} {'it(spcg)':>8s} "
           f"{'sparsify_s':>10s} {'factor_s':>9s} {'iter_s':>9s} "
           f"{'per-it×':>8s} {'e2e×':>8s}  status")
    lines = [hdr, "-" * len(hdr)]
    for p in experiments:
        base, sp = p.get("baseline", {}), p.get("spcg", {})
        status = "ok"
        if sp.get("failure_class"):
            status = f"spcg:{sp['failure_class']}"
        elif base.get("failure_class"):
            status = f"pcg:{base['failure_class']}"
        robust = p.get("robust")
        if robust:
            status += (f" robust={'ok' if robust.get('converged') else 'FAIL'}"
                       f"({robust.get('n_attempts', 0)} att)")
        lines.append(
            f"{str(p.get('name', '?'))[:28]:28s} {_fmt(p.get('n'), 6)} "
            f"{_fmt(p.get('chosen_ratio'), 6)} "
            f"{_fmt(base.get('n_iters'), 7)} {_fmt(sp.get('n_iters'), 8)} "
            f"{_fmt(sp.get('sparsify_s'), 10)} {_fmt(sp.get('factor_s'), 9)} "
            f"{_fmt(sp.get('iter_s'), 9)} "
            f"{_fmt(p.get('per_iteration_speedup'), 8)} "
            f"{_fmt(p.get('end_to_end_speedup'), 8)}  {status}")
    return lines


def render_report(events: Sequence[TraceEvent]) -> str:
    """Human-readable run ledger for a trace (see module doc)."""
    s = summarize_trace(events)
    out: list[str] = [f"run ledger — {s['n_events']} events"]
    if s["suite"]:
        meta = s["suite"]
        bits = [f"{k}={meta[k]}" for k in ("device", "precond",
                                           "n_matrices", "n_results")
                if k in meta]
        if bits:
            out.append("suite: " + "  ".join(bits))

    if s["experiments"]:
        out.append("")
        out.append("## per-matrix phases (modeled seconds, SPCG variant)")
        out.extend(_experiment_rows(s["experiments"]))

    if s["solves"] and not s["experiments"]:
        out.append("")
        out.append("## solves")
        for rec in s["solves"]:
            out.append(f"  n={rec.get('n', '?')} "
                       f"precond={rec.get('precond', '?')} "
                       f"iters={rec.get('n_iters', '?')} "
                       f"reason={rec.get('reason', '?')} "
                       f"residual={_fmt(rec.get('final_residual'), 0).strip()}")

    if s["cache"]:
        out.append("")
        out.append("## artifact cache")
        for kind, slot in sorted(s["cache"].items()):
            out.append(f"  {kind:20s} {slot['hits']:6d} hits "
                       f"{slot['misses']:6d} misses  "
                       f"(hit rate {100.0 * slot['hit_rate']:.1f}%)")

    srv = s["serving"]
    if srv["enqueued"] or srv["dispatches"]:
        out.append("")
        out.append("## serving")
        out.append(f"  enqueued {srv['enqueued']}  "
                   f"dispatches {srv['dispatches']}  "
                   f"served rhs {srv['served_rhs']}  "
                   f"mid-block admits {srv['mid_block_admits']}")
        occ = srv["mean_occupancy"]
        occ_txt = f"{occ:.3f}" if math.isfinite(occ) else "n/a"
        out.append(f"  mean batch occupancy {occ_txt}  "
                   f"modeled {srv['modeled_seconds']:.3g}s")
        if srv["shed"]:
            shed_txt = ", ".join(f"{k}×{v}" for k, v in
                                 sorted(srv["shed"].items()))
            out.append(f"  shed: {shed_txt}")

    fl = s["fleet"]
    if fl["routed"]:
        out.append("")
        out.append("## fleet")
        dev_txt = ", ".join(f"dev{d}×{c}" for d, c in
                            sorted(fl["by_device"].items()))
        pol_txt = ", ".join(f"{k}×{v}" for k, v in
                            sorted(fl["by_policy"].items()))
        out.append(f"  routed {fl['routed']}  ({dev_txt})")
        out.append(f"  policy: {pol_txt}")

    ch = s["chaos"]
    if (ch["faults"] or ch["detections"] or ch["retries"]
            or ch["brownouts"]):
        out.append("")
        out.append("## chaos / self-healing")
        if ch["faults"]:
            txt = ", ".join(f"{k}×{v}" for k, v in
                            sorted(ch["faults"].items()))
            out.append(f"  faults injected: {txt}")
        if ch["detections"]:
            txt = ", ".join(f"{k}×{v}" for k, v in
                            sorted(ch["detections"].items()))
            out.append(f"  corruption detected: {txt}")
        out.append(f"  checkpoints {ch['checkpoints']}  "
                   f"restarts {ch['restarts']}  retries {ch['retries']}")
        if ch["breaker_opens"] or ch["breaker_closes"]:
            out.append(f"  breaker: {ch['breaker_opens']} downgrades, "
                       f"{ch['breaker_closes']} recoveries")
        if ch["brownouts"]:
            out.append(f"  brownout episodes: {ch['brownouts']}")

    out.append("")
    out.append("## failures")
    if s["failure_taxonomy"]:
        for name, count in s["failure_taxonomy"].items():
            out.append(f"  {name:20s} ×{count}")
    else:
        out.append("  none")
    if s["fallback_attempts"]:
        rec = ", ".join(f"{k}×{v}" for k, v in
                        sorted(s["recovered_by"].items())) or "none"
        out.append(f"  fallback attempts: {s['fallback_attempts']}; "
                   f"recovered by: {rec}")
    if s["guard_trips"]:
        out.append(f"  guard trips: {s['guard_trips']}")
    return "\n".join(out)


def render_report_file(path: str | Path) -> str:
    """Load a JSON-lines trace from *path* and render its ledger."""
    return render_report(load_jsonl(path))
