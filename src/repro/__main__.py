"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``suite``
    Run PCG-vs-SPCG over (a subset of) the built-in registry and print
    the headline aggregates.
``solve``
    Solve a Matrix Market system with SPCG and report the decision.
``report``
    Render the run ledger (per-matrix phase table, cache hit rates,
    failure taxonomy) from a ``--trace`` JSON-lines file.
``batch``
    Batch-scaling study: dispatch grouped multi-RHS requests through
    the :class:`~repro.batch.SolverService` and report modeled per-RHS
    cost versus batch size.
``serve``
    Online serving study: generate an open- or closed-loop workload
    against the :class:`~repro.serve.ServeScheduler` (continuous
    batching, admission control, deadlines) and print the SLO table —
    throughput, goodput, occupancy, latency percentiles.
``chaos``
    Fault-injection study: sweep a seeded per-sweep device-fault rate
    over the self-healing scheduler (ABFT detection, checkpointed
    retries, circuit breaker) and a no-retry baseline; print the
    goodput-vs-fault-rate table with audited goodput.
``datasets``
    List the registry (name, category, order, nnz on demand).
``devices``
    Show the machine-model presets.

``solve`` and ``suite`` accept ``--trace out.jsonl`` to record the
structured event stream (see :mod:`repro.obs`); tracing is off — and
zero-cost — otherwise.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

import numpy as np


@contextmanager
def _tracing(path: str | None):
    """Install a recorder for the command body and dump it to *path*
    afterwards; a no-op (null recorder stays installed) without
    ``--trace``."""
    if not path:
        yield
        return
    from .obs import TraceRecorder, use_recorder

    rec = TraceRecorder()
    with use_recorder(rec):
        yield
    n = rec.dump(path)
    print(f"trace: {n} events -> {path}", file=sys.stderr)


def _cmd_suite(args) -> int:
    from .datasets import SUITE
    from .harness import run_suite
    from .machine import get_device

    names = [s.name for s in SUITE if s.n <= args.max_n]
    if args.category:
        names = [s.name for s in SUITE
                 if s.category == args.category and s.n <= args.max_n]
    if args.limit:
        names = names[:args.limit]
    if not names:
        print("no matrices selected", file=sys.stderr)
        return 2
    with _tracing(args.trace):
        res = run_suite(names, device=get_device(args.device),
                        precond=args.precond,
                        k_candidates=tuple(args.k_candidates),
                        run_fixed_ratios=not args.fast,
                        progress=not args.quiet,
                        robust=args.robust)
    agg = res.aggregates()
    print(f"\nmatrices: {agg.n_matrices}  device: {res.device}  "
          f"preconditioner: {res.precond_kind}")
    print(f"gmean per-iteration speedup: "
          f"{agg.gmean_per_iteration_speedup:.3f}x  "
          f"({agg.percent_accelerated:.1f}% accelerated)")
    print(f"gmean end-to-end speedup:    "
          f"{agg.gmean_end_to_end_speedup:.3f}x  "
          f"(over {agg.n_end_to_end} converging)")
    print(f"iterations unchanged:        "
          f"{agg.percent_iterations_unchanged:.1f}%")
    if not args.fast:
        print(f"oracle gmean / match rate:   "
              f"{agg.gmean_oracle_speedup:.3f}x / "
              f"{agg.percent_oracle_match:.1f}%")
    print(f"wavefront-speedup Spearman:  "
          f"{agg.spearman_wavefront_speedup:.3f}")
    resilience = res.resilience_summary()
    if resilience is not None:
        print(resilience.summary())
    from .perf import cache_stats

    print(cache_stats().summary())
    return 0


def _cmd_solve(args) -> int:
    from .core import spcg
    from .sparse import is_symmetric, read_matrix_market, symmetrize

    a = read_matrix_market(args.mtx)
    if not is_symmetric(a, tol=1e-12):
        print("warning: symmetrizing input", file=sys.stderr)
        a = symmetrize(a)
    b = a.matvec(np.ones(a.n_rows))
    if args.robust:
        from .resilience import robust_spcg

        with _tracing(args.trace):
            report = robust_spcg(a, b, preconditioner=args.precond,
                                 k=args.k, tau=args.tau, omega=args.omega)
        print(report.summary())
        r = report.result
        resid = r.final_residual if r is not None else float("nan")
        print(f"n={a.n_rows} nnz={a.nnz} "
              f"converged={report.converged} attempts={report.n_attempts} "
              f"residual={resid:.3e}")
        return 0 if report.converged else 1
    with _tracing(args.trace):
        res = spcg(a, b, preconditioner=args.precond, k=args.k,
                   tau=args.tau, omega=args.omega, precision=args.precision)
    extra = ""
    if args.precision == "mixed":
        extra += (" fallback=yes" if res.solve.extra.get("mixed_fallback")
                  else " fallback=no")
    print(f"n={a.n_rows} nnz={a.nnz} ratio={res.chosen_ratio:g}% "
          f"converged={res.converged} iters={res.solve.n_iters} "
          f"residual={res.solve.final_residual:.3e}{extra}")
    return 0 if res.converged else 1


def _cmd_batch(args) -> int:
    from .harness import run_batch_scaling
    from .sparse import stencil_poisson_2d

    if args.mtx:
        from .sparse import is_symmetric, read_matrix_market, symmetrize

        a = read_matrix_market(args.mtx)
        if not is_symmetric(a, tol=1e-12):
            print("warning: symmetrizing input", file=sys.stderr)
            a = symmetrize(a)
        name = args.mtx
    elif args.matrix:
        from .datasets import load

        a = load(args.matrix)
        name = args.matrix
    else:
        a = stencil_poisson_2d(args.side)
        name = f"poisson2d_{args.side}x{args.side}"
    with _tracing(args.trace):
        res = run_batch_scaling(a, name=name,
                                batch_sizes=tuple(args.batch_sizes),
                                preconditioner=args.precond, k=args.k,
                                device=args.device, seed=args.seed)
    print(res.summary_table())
    n_conv = sum(p.n_converged for p in res.points)
    n_req = sum(p.batch for p in res.points)
    print(f"requests: {n_req}  converged: {n_conv}")
    return 0 if n_conv == n_req else 1


def _cmd_serve(args) -> int:
    import json

    from .serve import (AdmissionPolicy, BatchingWindow, LoadSpec,
                        ServeScheduler, run_loadgen)
    from .sparse import stencil_poisson_2d

    if args.matrix:
        from .datasets import load

        matrices = [load(name) for name in args.matrix]
    else:
        matrices = [stencil_poisson_2d(side) for side in args.sides]
    policy = AdmissionPolicy(
        max_depth=args.max_depth or None,
        max_backlog_s=args.max_backlog or None)
    window = BatchingWindow(max_wait_s=args.max_wait,
                            max_batch=args.max_batch or None,
                            continuous=not args.no_continuous)
    spec = LoadSpec(n_requests=args.requests, rate_rps=args.rate,
                    mode=args.mode, concurrency=args.concurrency,
                    think_s=args.think,
                    deadline_s=args.deadline or None, seed=args.seed)
    with _tracing(args.trace):
        sched = ServeScheduler(preconditioner=args.precond, k=args.k,
                               device=args.device, policy=policy,
                               window=window)
        report = run_loadgen(sched, matrices, spec)
    print(f"mode={spec.mode} requests={spec.n_requests} "
          f"rate={spec.rate_rps:g}/s window=(wait {window.max_wait_s:g}s, "
          f"batch {window.max_batch or 'inf'}, "
          f"continuous={window.continuous})")
    print(report.slo_table())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.as_dict(), fh, indent=2)
        print(f"summary -> {args.json}", file=sys.stderr)
    return 0 if report.n_completed else 1


def _cmd_chaos(args) -> int:
    import json

    from .chaos import run_chaos_study

    with _tracing(args.trace):
        res = run_chaos_study(rates=tuple(args.rates), side=args.side,
                              n_requests=args.requests, seed=args.seed,
                              chaos_seed=args.chaos_seed,
                              preconditioner=args.precond,
                              max_batch=args.max_batch,
                              max_retries=args.max_retries,
                              checkpoint_every=args.checkpoint_every,
                              device=args.device)
    print(f"n={res.params['n']} requests={res.params['n_requests']} "
          f"precond={res.params['preconditioner']} "
          f"retries<={res.params['max_retries']} "
          f"checkpoint_every={res.params['checkpoint_every']}")
    print(res.summary_table())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(res.as_dict(), fh, indent=2)
        print(f"summary -> {args.json}", file=sys.stderr)
    worst = min(r.goodput for r in res.rows if r.mode == "self_healing")
    if args.goodput_floor and worst < args.goodput_floor:
        print(f"FAIL: self-healing goodput {worst:.3f} below floor "
              f"{args.goodput_floor:.3f}", file=sys.stderr)
        return 1
    return 0


def _cmd_fleet(args) -> int:
    import json

    from .fleet import (FleetScheduler, comm_iteration_cost,
                        run_fleet_loadgen)
    from .machine import get_device, get_link
    from .core.spcg import make_preconditioner
    from .serve import LoadSpec
    from .sparse import random_spd

    link = get_link(args.link)
    device = get_device(args.device)
    matrices = [random_spd(args.n, density=args.density, seed=s)
                for s in range(args.matrices)]
    rows = []
    with _tracing(args.trace):
        for n_dev in args.devices:
            from .perf import ArtifactCache

            fleet = FleetScheduler(
                n_devices=n_dev, device=device,
                hot_threshold=args.hot_threshold,
                cache=ArtifactCache(), preconditioner=args.precond,
                k=args.k)
            spec = LoadSpec(n_requests=args.requests,
                            rate_rps=args.rate, seed=args.seed)
            report = run_fleet_loadgen(fleet, matrices, spec)
            rows.append((n_dev, report))
            print(f"\n### fleet N={n_dev} "
                  f"(link={link.name}, {args.requests} req @ "
                  f"{args.rate:g} rps)")
            print(report.capacity_table())
    # Communication-variant pricing at the largest fleet width.
    n_dev = max(args.devices)
    a = matrices[0]
    m = make_preconditioner(a, args.precond, k=args.k)
    print(f"\n### per-iteration sync cost at N={n_dev} "
          f"(link={link.name})")
    print("| variant | exposed allreduce [s] | total [s] |")
    print("| --- | --- | --- |")
    costs = {}
    for variant in ("pcg", "pipelined", "s_step"):
        c = comm_iteration_cost(device, link, n_dev, a, m,
                                variant=variant, s=args.s)
        costs[variant] = c
        print(f"| {variant} | {c.exposed:.3e} | {c.total:.3e} |")
    if args.json:
        summary = {
            "link": link.name,
            "device": device.name,
            "sweep": [{"n_devices": nd, **rep.as_dict()}
                      for nd, rep in rows],
            "comm_cost": {v: {"exposed": c.exposed,
                              "allreduce": c.allreduce,
                              "compute": c.compute,
                              "total": c.total}
                          for v, c in costs.items()},
        }
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2)
        print(f"summary -> {args.json}", file=sys.stderr)
    bad = [nd for nd, rep in rows if rep.n_completed < rep.n_requests
           and not rep.n_shed]
    return 1 if bad else 0


def _cmd_spai(args) -> int:
    import json

    from .harness import run_spai_crossover
    from .harness.spai_study import (DEFAULT_CATEGORIES,
                                     DEFAULT_SYNC_SCALES)

    categories = tuple(args.categories) if args.categories \
        else DEFAULT_CATEGORIES
    scales = tuple(args.sync_scales) if args.sync_scales \
        else DEFAULT_SYNC_SCALES
    res = run_spai_crossover(categories=categories, n=args.n,
                             sync_scales=scales, k=args.k,
                             device=args.device, seed=args.seed)
    print(res.summary())
    if args.json:
        summary = {
            "device": res.device,
            "candidates": list(res.candidates),
            "has_crossover": res.has_crossover,
            "points": [{
                "category": p.category, "n": p.n, "nnz": p.nnz,
                "sync_scale": p.sync_scale, "winner": p.winner,
                "candidates": {c.kind: {
                    "converged": c.converged,
                    "iterations": c.iterations,
                    "setup_seconds": c.setup_seconds,
                    "per_iteration_seconds": c.per_iteration_seconds,
                    "apply_sync_barriers": c.apply_sync_barriers,
                    "total_seconds": c.total_seconds,
                } for c in p.plan.candidates},
            } for p in res.points],
        }
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2)
        print(f"summary -> {args.json}", file=sys.stderr)
    return 0 if res.has_crossover else 1


def _cmd_stream(args) -> int:
    import json

    from .harness import run_stream_study
    from .streams import DriftSchedule

    drift = None
    if args.drift is not None:
        drift = DriftSchedule(seed=args.seed + 1, magnitude=args.drift,
                              shock_every=max(2, args.steps // 2))
    with _tracing(args.trace):
        res = run_stream_study(side=args.side, dt=args.dt,
                               n_steps=args.steps, seed=args.seed,
                               preconditioner=args.precond,
                               recycle=args.recycle, drift=drift,
                               device=args.device)
    print(res.summary())
    ok = (res.all_verified
          and res.speedup >= args.min_speedup
          and res.warm_iterations < res.cold_iterations
          and res.deflation_mismatch <= 1e-8
          and res.deflation_iter_excess <= 0)
    if args.json:
        summary = {
            "n": res.n, "nnz": res.nnz, "n_steps": res.n_steps,
            "dt": res.dt, "device": res.device,
            "speedup": res.speedup,
            "warm_seconds": res.warm_seconds,
            "cold_seconds": res.cold_seconds,
            "warm_iterations": res.warm_iterations,
            "cold_iterations": res.cold_iterations,
            "all_verified": res.all_verified,
            "deflation_mismatch": res.deflation_mismatch,
            "deflation_iter_excess": res.deflation_iter_excess,
            "ok": ok,
        }
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2)
        print(f"summary -> {args.json}", file=sys.stderr)
    return 0 if ok else 1


def _cmd_report(args) -> int:
    from .obs import render_report_file

    try:
        print(render_report_file(args.trace_file))
    except FileNotFoundError:
        print(f"no such trace file: {args.trace_file}", file=sys.stderr)
        return 2
    return 0


def _cmd_datasets(args) -> int:
    from .datasets import SUITE, load

    for spec in SUITE:
        line = f"{spec.name:42s} {spec.category:22s} n~{spec.n}"
        if args.verbose:
            a = load(spec.name, cache=False)
            line += f"  (n={a.n_rows}, nnz={a.nnz})"
        print(line)
    print(f"\n{len(SUITE)} matrices")
    return 0


def _cmd_devices(_args) -> int:
    from .machine import A100, EPYC_7413, V100

    for d in (A100, V100, EPYC_7413):
        print(f"{d.name:10s} kind={d.kind} lanes={d.parallel_lanes} "
              f"peak={d.peak_flops / 1e12:.1f}TF "
              f"bw={d.mem_bandwidth / 1e9:.0f}GB/s "
              f"launch={d.launch_overhead * 1e6:.1f}us "
              f"sync={d.sync_overhead * 1e6:.1f}us")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="python -m repro",
                                 description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("suite", help="run PCG vs SPCG over the registry")
    p.add_argument("--device", default="a100")
    p.add_argument("--precond", default="ilu0",
                   choices=["ilu0", "iluk", "ic0", "jacobi", "spai", "fsai"])
    p.add_argument("--max-n", type=int, default=1600, dest="max_n")
    p.add_argument("--limit", type=int, default=0)
    p.add_argument("--category", default="")
    p.add_argument("--k-candidates", type=int, nargs="+",
                   default=[1, 2, 3, 5], dest="k_candidates")
    p.add_argument("--fast", action="store_true",
                   help="skip the fixed-ratio ablations")
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--robust", action="store_true",
                   help="also run the fallback ladder per matrix and "
                        "report recovery rate + failure taxonomy")
    p.add_argument("--trace", default="", metavar="OUT.JSONL",
                   help="record the structured event trace to this "
                        "JSON-lines file (render with `repro report`)")
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("solve", help="solve a Matrix Market system")
    p.add_argument("mtx")
    p.add_argument("--precond", default="ilu0",
                   choices=["ilu0", "iluk", "ic0", "jacobi", "spai", "fsai"])
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=10.0)
    p.add_argument("--precision", default="float64",
                   choices=["float64", "mixed"],
                   help="'mixed' = float32 factors + float64 outer CG "
                        "with guarded full-precision fallback")
    p.add_argument("--robust", action="store_true",
                   help="solve through the robust_spcg fallback ladder "
                        "and print the per-attempt report")
    p.add_argument("--trace", default="", metavar="OUT.JSONL",
                   help="record the structured event trace to this "
                        "JSON-lines file (render with `repro report`)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("batch", help="multi-RHS batch-scaling study "
                                     "through the solver service")
    p.add_argument("--matrix", default="",
                   help="registry matrix name (see `repro datasets`)")
    p.add_argument("--mtx", default="",
                   help="Matrix Market file (overrides --matrix)")
    p.add_argument("--side", type=int, default=24,
                   help="grid side of the default 2-D Poisson stand-in")
    p.add_argument("--precond", default="ilu0",
                   choices=["ilu0", "iluk", "ic0", "jacobi", "spai", "fsai"])
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--batch-sizes", type=int, nargs="+",
                   default=[1, 2, 4, 8], dest="batch_sizes")
    p.add_argument("--device", default="a100")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default="", metavar="OUT.JSONL",
                   help="record the structured event trace to this "
                        "JSON-lines file (render with `repro report`)")
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("serve", help="online serving study with "
                                     "continuous batching and SLOs")
    p.add_argument("--matrix", nargs="+", default=[],
                   help="registry matrix name(s) (see `repro datasets`)")
    p.add_argument("--sides", type=int, nargs="+", default=[16, 24],
                   help="grid sides of 2-D Poisson stand-ins (used when "
                        "no --matrix is given)")
    p.add_argument("--requests", type=int, default=48)
    p.add_argument("--rate", type=float, default=500.0,
                   help="open-loop Poisson arrival rate "
                        "[requests / modeled second]")
    p.add_argument("--mode", default="open", choices=["open", "closed"])
    p.add_argument("--concurrency", type=int, default=4,
                   help="closed-loop client count")
    p.add_argument("--think", type=float, default=0.0,
                   help="closed-loop think time [modeled s]")
    p.add_argument("--deadline", type=float, default=0.0,
                   help="relative per-request deadline [modeled s]; "
                        "0 = none")
    p.add_argument("--max-batch", type=int, default=8, dest="max_batch",
                   help="batching-window slot capacity; 0 = unbounded")
    p.add_argument("--max-wait", type=float, default=1e-3,
                   dest="max_wait",
                   help="batching-window max wait [modeled s]")
    p.add_argument("--max-depth", type=int, default=0, dest="max_depth",
                   help="admission: queue depth cap; 0 = unbounded")
    p.add_argument("--max-backlog", type=float, default=0.0,
                   dest="max_backlog",
                   help="admission: modeled backlog cap [s]; 0 = none")
    p.add_argument("--no-continuous", action="store_true",
                   help="disable mid-block slot admission "
                        "(flush-style batching baseline)")
    p.add_argument("--precond", default="ilu0",
                   choices=["ilu0", "iluk", "ic0", "jacobi", "spai", "fsai"])
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--device", default="a100")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default="", metavar="OUT.JSON",
                   help="write the SLO summary as JSON")
    p.add_argument("--trace", default="", metavar="OUT.JSONL",
                   help="record the structured event trace to this "
                        "JSON-lines file (render with `repro report`)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("chaos", help="fault-injection study: goodput "
                                     "vs fault rate, self-healing vs "
                                     "no-retry baseline")
    p.add_argument("--rates", type=float, nargs="+",
                   default=[0.0, 0.02, 0.05, 0.10],
                   help="per-sweep fault probabilities to sweep")
    p.add_argument("--side", type=int, default=16,
                   help="grid side of the 2-D Poisson test matrix")
    p.add_argument("--requests", type=int, default=32)
    p.add_argument("--precond", default="jacobi",
                   choices=["ilu0", "iluk", "ic0", "jacobi", "spai", "fsai"])
    p.add_argument("--max-batch", type=int, default=8, dest="max_batch")
    p.add_argument("--max-retries", type=int, default=4,
                   dest="max_retries")
    p.add_argument("--checkpoint-every", type=int, default=10,
                   dest="checkpoint_every",
                   help="verified-checkpoint cadence [sweeps]")
    p.add_argument("--device", default="a100")
    p.add_argument("--seed", type=int, default=12345,
                   help="request-stream seed")
    p.add_argument("--chaos-seed", type=int, default=7, dest="chaos_seed",
                   help="fault-schedule seed")
    p.add_argument("--goodput-floor", type=float, default=0.0,
                   dest="goodput_floor",
                   help="exit non-zero if self-healing goodput drops "
                        "below this fraction at any swept rate")
    p.add_argument("--json", default="", metavar="OUT.JSON",
                   help="write the study as JSON")
    p.add_argument("--trace", default="", metavar="OUT.JSONL",
                   help="record the structured event trace to this "
                        "JSON-lines file (render with `repro report`)")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("fleet", help="fleet capacity study: devices × "
                                     "rps sweep with fingerprint "
                                     "routing and link-cost pricing")
    p.add_argument("--devices", type=int, nargs="+", default=[1, 2, 4],
                   help="fleet widths to sweep")
    p.add_argument("--requests", type=int, default=48)
    p.add_argument("--rate", type=float, default=1e5,
                   help="open-loop Poisson arrival rate "
                        "[requests / modeled second]")
    p.add_argument("--matrices", type=int, default=12,
                   help="number of distinct random SPD operators "
                        "(fingerprint diversity)")
    p.add_argument("--n", type=int, default=96,
                   help="order of each random SPD operator")
    p.add_argument("--density", type=float, default=0.05)
    p.add_argument("--hot-threshold", type=int, default=3,
                   dest="hot_threshold",
                   help="routes before a fingerprint is replicated")
    p.add_argument("--link", default="nvlink",
                   help="inter-device link preset "
                        "(nvlink, pcie4, ib-hdr, zero)")
    p.add_argument("--s", type=int, default=2,
                   help="s-step CG block size for the cost table")
    p.add_argument("--precond", default="jacobi",
                   choices=["ilu0", "iluk", "ic0", "jacobi", "spai", "fsai"])
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--device", default="a100")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default="", metavar="OUT.JSON",
                   help="write the sweep summary as JSON")
    p.add_argument("--trace", default="", metavar="OUT.JSONL",
                   help="record the structured event trace to this "
                        "JSON-lines file (render with `repro report`)")
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser("spai", help="preconditioner crossover study: "
                                    "sparsified-ILU vs SPAI/FSAI by "
                                    "category and device sync cost")
    p.add_argument("--categories", nargs="+", default=None,
                   help="matrix categories to sweep (default: the "
                        "study's four structural regimes)")
    p.add_argument("--n", type=int, default=900,
                   help="matrix order per category")
    p.add_argument("--sync-scales", type=float, nargs="+", default=None,
                   dest="sync_scales",
                   help="latency-constant scalings (0 = sync-free limit)")
    p.add_argument("--k", type=int, default=1,
                   help="approximate-inverse pattern power / ILU fill")
    p.add_argument("--device", default="a100")
    p.add_argument("--seed", type=int, default=100)
    p.add_argument("--json", default="", metavar="OUT.JSON",
                   help="write the crossover map as JSON")
    p.set_defaults(func=_cmd_spai)

    p = sub.add_parser("stream", help="amortized-stream macro-benchmark: "
                                      "warm+reuse+recycling session vs "
                                      "cold per-step solves")
    p.add_argument("--side", type=int, default=20,
                   help="plate side (n = side²)")
    p.add_argument("--steps", type=int, default=24,
                   help="stream length (backward-Euler steps)")
    p.add_argument("--dt", type=float, default=20.0,
                   help="implicit time step (coarse = stiff solves)")
    p.add_argument("--precond", default="ilu0",
                   choices=["jacobi", "ic0", "ilu0", "iluk", "spai",
                            "fsai"])
    p.add_argument("--recycle", type=int, default=8,
                   help="Ritz vectors harvested per solve (0 = off)")
    p.add_argument("--drift", type=float, default=None,
                   help="steady drift magnitude (default: the study's "
                        "1e-6 with a shock halfway)")
    p.add_argument("--min-speedup", type=float, default=1.5,
                   dest="min_speedup",
                   help="required cold/warm modeled speedup")
    p.add_argument("--device", default="a100")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default="", metavar="OUT.JSON",
                   help="write the study summary as JSON")
    p.add_argument("--trace", default="", metavar="OUT.JSONL",
                   help="record the structured event stream")
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("report", help="render the run ledger from a "
                                      "--trace JSON-lines file")
    p.add_argument("trace_file")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("datasets", help="list the matrix registry")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_datasets)

    p = sub.add_parser("devices", help="show machine-model presets")
    p.set_defaults(func=_cmd_devices)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
