"""Wall-clock benchmark of the SPCG solver stack (closed loop, one client).

One workload per process::

    python3 perfbench/run.py --workload oneshot_ilu0 --seed 1 \\
        --seconds 20 --trace 0

Ops run in rounds (one op per matrix, or one whole stream).  ``--seconds``
sets how many: the seconds over the workload's nominal round time, so
every run at one ``--seconds`` times the same ops; ``--rounds N`` runs
exactly N.  ``--trace 0`` times ops with nothing wrapped and reports the
end-to-end metrics: wall times scaled to the reference host's speed by
a short reference loop timed beside each op (see :func:`scaled`; the
run record keeps the raw walls too).  ``--trace 1`` runs each op both
untraced and traced (spans around the public calls into every layer,
see :mod:`perfbench.spans`), errors unless the two agree bitwise, and
reports the per-layer metrics of :mod:`perfbench.metrics`.  Every
workload, one process each, with a summary table::

    python3 perfbench/run.py --all --seed 1 --seconds 20 [--trace 1]

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it is the run record (host,
versions, seed, sample counts, host probe); the record, and the traced
run's spans, are also written under ``.perfbench/`` at the repository
root.
"""

import os

# One client thread: pin BLAS before NumPy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from functools import cache, partial  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT))

from perfbench.metrics import spec  # noqa: E402

#: The tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10
#: Preconditioner builds behind each ``setup_s`` median.
SETUP_BUILDS = 31
#: Iterations of the short reference loop timed beside every op and
#: every setup build (2-4 ms).
REF_ITERS = 200
#: Seconds of that loop on the reference host (2 vCPUs of an Intel Xeon
#: at 2.0 GHz) in its faster speed state.  End-to-end times are scaled
#: by this over the loop's time beside them, so they read as wall
#: seconds on that host undisturbed.
REF_LOOP_S = 0.0022


class BitwiseMismatch(RuntimeError):
    """The traced run computed something the untraced run did not."""


def _load_program() -> None:
    """Import the ``repro`` package of this checkout, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'repro'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not "
              f"from {SRC}", file=sys.stderr)
        sys.exit(2)


# ----------------------------------------------------------------------
# Run record
# ----------------------------------------------------------------------

@cache
def _loop_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.standard_normal(4096), rng.permutation(4096)


def reference_loop(iters: int = REF_ITERS) -> float:
    """Seconds of a fixed NumPy loop (gather, multiply-add and dot on
    4096 doubles, *iters* times): host speed, independent of the
    program."""
    import numpy as np

    v, perm = _loop_inputs()
    t0 = time.perf_counter()
    acc = v.copy()
    for _ in range(iters):
        acc = np.take(acc, perm) * 0.5 + v
        acc[0] = acc.dot(v) * 1e-9
    return time.perf_counter() - t0


def host_probe(reps: int = 5) -> float:
    """Median seconds of five 1500-iteration reference loops."""
    return statistics.median(reference_loop(1500) for _ in range(reps))


def beside_loop(fn):
    """``(fn(), loop)``, *loop* being the mean time of the reference
    loop run just before and just after the call."""
    before = reference_loop()
    out = fn()
    return out, (before + reference_loop()) / 2


def scaled(wall: float, loop: float) -> float:
    """*wall* in reference-host seconds.

    A shared host can flip the speed of this process's cores between
    two states, often within a second; on the reference host the slow
    state stretches the reference loop 1.8-fold and the workloads' ops
    1.3- to 1.8-fold.  Raw medians then jump with the share of a run
    spent in each state; medians of ``wall / loop`` hardly move."""
    return wall * REF_LOOP_S / loop


def _git_sha() -> str | None:
    """HEAD of the checkout (``None`` outside git)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, env={**os.environ,
                            "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas() -> dict:
    """BLAS name and version, and the thread pins set above."""
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": {v: os.environ[v] for v in BLAS_THREAD_VARS}}


def _record(args, **extra) -> dict:
    import numpy as np

    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "rounds": args.rounds,
            "trace": args.trace, "host": platform.node(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": _blas(),
            "git_sha": _git_sha(), **extra}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, int, int]:
    """``(value, percentile, beyond)``: the nearest-rank value at the
    highest whole percentile with at least ``TAIL_BEYOND`` samples
    above it.  Too few samples for that percentile to reach the median
    give the maximum (percentile 100)."""
    n = len(samples)
    s = sorted(samples)
    q = 100 * (n - TAIL_BEYOND) // n if n > TAIL_BEYOND else 0
    if q < 50:
        return s[-1], 100, 0
    rank = math.ceil(q * n / 100)
    return s[rank - 1], q, n - rank


# ----------------------------------------------------------------------
# The op loop
# ----------------------------------------------------------------------

def n_rounds(args, wl) -> int:
    """Rounds the run times: ``--rounds``, or ``--seconds`` over the
    workload's nominal round time on the reference host, and at least
    the workload's ``min_rounds``.  A fixed count keeps the tail rank at
    one place in the matrix mix, however fast the host runs on the day.
    A traced round runs every op twice, so a traced run gets half the
    rounds (and no floor: it reports no tail)."""
    if args.rounds is not None:
        return args.rounds
    if args.trace:
        return max(1, round(args.seconds / (2 * wl.round_s)))
    return max(wl.min_rounds, round(args.seconds / wl.round_s))


def _drive(gens, step) -> None:
    """Feed the ops of parallel round generators to ``step(ops)``, which
    returns their results (sent back into the generators) or ``None``
    to end the round."""
    outs = [None] * len(gens)
    try:
        while outs is not None:
            outs = step([g.send(o) for g, o in zip(gens, outs)])
    except StopIteration:
        pass
    finally:
        for g in gens:
            g.close()


def _call(op):
    """Time one op under its cache: ``(result, wall, traceback)``."""
    from repro.perf.cache import use_cache

    with use_cache(op.cache):
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception:  # a failed op is counted, and the run goes on
            return None, time.perf_counter() - t0, traceback.format_exc()
        return out, time.perf_counter() - t0, None


def _traced_call(op, tracer, patches):
    """The op with every wrapper installed: ``(result, wall)``."""
    from repro.perf.cache import use_cache

    with use_cache(op.cache):
        patches.install()
        try:
            root = tracer.begin_op()
            try:
                out = op.call()
            finally:
                tracer.close(root)
        finally:
            patches.remove()
    return out, tracer.end[root] - tracer.start[root]


class Tally:
    """Answer checks of every solve, outside the timed region."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, op, out) -> list:
        from perfbench.workloads import passes

        solves = op.solves(out)
        self.attempted += len(solves)
        self.failed += sum(not passes(s) for s in solves)
        return solves

    def fail(self, err: str, n_solves: int) -> None:
        print(err, file=sys.stderr)
        self.attempted += n_solves
        self.failed += n_solves


def warm_up(wl) -> None:
    """Run the workload's first ``warm_ops`` ops untimed."""
    left = [wl.warm_ops]

    def step(ops):
        out, _, err = _call(ops[0])
        left[0] -= 1
        if err:
            print(err, file=sys.stderr)
        return None if err or left[0] == 0 else [out]

    _drive([wl.round(0)], step)


def timed_phase(wl, rounds: int, tally: Tally):
    """Untraced ops.  Returns ``(wall, loop)`` of every op and of the
    ``setup_s`` samples: ``SETUP_BUILDS`` preconditioner builds spread
    over the run between rounds.  *loop* is the reference loop's time
    beside the op or build (see :func:`scaled`)."""
    ops_timed: list[tuple[float, float]] = []
    setups: list[tuple[float, float]] = []

    def step(ops):
        (out, wall, err), loop = beside_loop(partial(_call, ops[0]))
        ops_timed.append((wall, loop))
        if err:
            tally.fail(err, wl.rhs_per_op)
            return None
        tally.check(ops[0], out)
        return [out]

    for r in range(rounds):
        _drive([wl.round(r)], step)
        while len(setups) < SETUP_BUILDS * (r + 1) / rounds:
            setups.append(beside_loop(wl.setup_once))
    return ops_timed, setups


def _digest(solves) -> list[tuple[int, bytes]]:
    return [(s.iters, s.x.tobytes()) for s in solves]


def traced_phase(wl, rounds: int, tally: Tally, tracer, patches):
    """Each op untraced and the same op traced, alternating which runs
    first so that neither gets the other's warm hardware caches; the two
    must agree bitwise in iteration counts and ``x``.  Returns both wall
    lists."""
    untraced: list[float] = []
    traced: list[float] = []

    def run_untraced(op):
        out, wall, err = _call(op)
        if err:
            raise RuntimeError(f"untraced op failed:\n{err}")
        return out, wall

    def run_traced(op):
        before = op.cache.stats.snapshot()
        out, wall = _traced_call(op, tracer, patches)
        counts = tracer.counters[tracer.op_id]
        counts["perf.cache.hits"] = op.cache.stats.hits - before.hits
        counts["perf.cache.misses"] = op.cache.stats.misses - before.misses
        for key, v in op.facts(out).items():
            counts[key] = counts.get(key, 0) + v
        return out, wall

    def step(ops):
        op_u, op_t = ops
        if len(traced) % 2:
            (out_t, wall_t), (out_u, wall_u) = run_traced(op_t), \
                run_untraced(op_u)
        else:
            (out_u, wall_u), (out_t, wall_t) = run_untraced(op_u), \
                run_traced(op_t)
        if _digest(tally.check(op_u, out_u)) != \
                _digest(tally.check(op_t, out_t)):
            raise BitwiseMismatch(
                f"op {tracer.op_id}: traced iterations or x differ from "
                f"the untraced run")
        untraced.append(wall_u)
        traced.append(wall_t)
        return [out_u, out_t]

    for r in range(rounds):
        _drive([wl.round(r), wl.round(r)], step)
    return untraced, traced


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

def _write(name: str, write) -> None:
    """``write(path)`` under ``.perfbench/``; a checkout that cannot take
    the file loses only the file (the record is also on stdout)."""
    try:
        OUT.mkdir(exist_ok=True)
        write(OUT / name)
    except OSError as exc:
        print(f"perfbench: could not write {OUT / name}: {exc}",
              file=sys.stderr)


def _times(op_walls, setup_walls, verified: int) -> tuple[dict, int, int]:
    """The timed end-to-end metrics, and the tail's percentile and
    count beyond it."""
    tail_s, q, beyond = tail(op_walls)
    return {"op_s.p50": statistics.median(op_walls), "op_s.tail": tail_s,
            "solves_per_s": verified / sum(op_walls),
            "setup_s": statistics.median(setup_walls)}, q, beyond


def run_timed(args, wl, probe_start: float) -> dict:
    """The untraced run: end-to-end metrics, in reference-host seconds
    (the run record keeps them raw as well)."""
    tally = Tally()
    rounds = n_rounds(args, wl)
    ops_timed, setups = timed_phase(wl, rounds, tally)
    verified = tally.attempted - tally.failed
    values, q, beyond = _times([scaled(*s) for s in ops_timed],
                               [scaled(*s) for s in setups], verified)
    values["peak_rss_mib"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw, _, _ = _times([wall for wall, _ in ops_timed],
                       [wall for wall, _ in setups], verified)
    loops = sorted(loop for _, loop in ops_timed + setups)
    fail_share = tally.failed / max(1, tally.attempted)
    print(f"{args.workload}: " + "  ".join(
        f"{name} {values[name]:.6g} {unit}"
        for name, unit in spec().end_to_end)
        + f"  fail_share {fail_share:.6g} ({tally.failed}/"
        f"{tally.attempted})  [tail = p{q}, {beyond} beyond, "
        f"{len(ops_timed)} ops in {rounds} rounds]")
    record = _record(
        args, samples={"op_s": len(ops_timed), "setup_s": len(setups),
                       "solves": tally.attempted},
        rounds_run=rounds, tail={"percentile": q, "beyond": beyond},
        fail_share=fail_share,
        raw_wall=raw,
        reference_loop_s={
            "reference": REF_LOOP_S, "iters": REF_ITERS,
            "p10": loops[len(loops) // 10],
            "p50": statistics.median(loops),
            "p90": loops[len(loops) * 9 // 10]},
        setup_s_all=[scaled(*s) for s in setups],
        host_probe_s={"start": probe_start, "end": host_probe()})
    return _result(args, record, tally, {
        name: {"value": values[name], "unit": unit}
        for name, unit in spec().end_to_end})


def run_traced(args, wl, probe_start: float) -> dict:
    """The traced run: per-layer metrics."""
    from perfbench import metrics, spans

    tally = Tally()
    tracer = spans.Tracer()
    patches = spans.Patches(tracer)
    untraced, traced = traced_phase(wl, n_rounds(args, wl), tally, tracer,
                                    patches)
    per_op = tracer.per_op()
    for counts, wait in zip(tracer.counters, tracer.queue_waits()):
        counts["serve.queue_wait_s"] = wait
    extra = wl.extra_metrics()
    probe_end = host_probe()
    extra["host.probe_s"] = statistics.median([probe_start, probe_end])
    values = metrics.compute(per_op, tracer.counters, untraced, traced,
                            extra)
    _write(f"{args.workload}-seed{args.seed}-spans.json", tracer.dump)
    print(f"{args.workload} (traced, {len(traced)} ops): " + "  ".join(
        f"{name} {values[name]:.6g}" for name, _ in spec().per_layer))
    record = _record(
        args, samples={"ops": len(traced), "spans": len(tracer.name),
                       "solves": tally.attempted},
        speedup_by_matrix=extra.get("speedup_by_matrix"),
        stream_actions={
            key[len("streams.action."):]: sum(c.get(key, 0)
                                              for c in tracer.counters)
            for key in sorted({k for c in tracer.counters for k in c
                               if k.startswith("streams.action.")})},
        host_probe_s={"start": probe_start, "end": probe_end})
    return _result(args, record, tally, {
        name: {"value": values[name], "unit": unit}
        for name, unit in spec().per_layer})


def _result(args, record: dict, tally: Tally, values: dict) -> dict:
    """Write and print the run record; the result object for stdout."""
    _write(f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
           lambda path: path.write_text(json.dumps(record, indent=1)))
    print("record " + json.dumps(record))
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": values}


def run_all(args) -> int:
    """Every workload in its own process; a table of their metrics."""
    status = 0
    results = {}
    for name in spec().workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.rounds is not None:
            cmd += ["--rounds", str(args.rounds)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[:-2]))
        result = json.loads(lines[-1])
        results[name] = result
        if not result["correct"]:
            status = 1
    for name, result in results.items():
        share = result["failed"] / max(1, result["attempted"])
        cells = "  ".join(f"{k} {v['value']:.6g} {v['unit']}"
                          for k, v in result["metrics"].items()
                          if args.trace == 0)
        print(f"{name:14s} {cells}  fail_share {share:.6g} "
              f"({result['failed']}/{result['attempted']})")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=spec().workloads)
    which.add_argument("--all", action="store_true",
                       help="every workload, one process each")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="sets the number of rounds (see above)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    _load_program()
    from perfbench import workloads

    probe_start = host_probe()
    wl = workloads.make(args.workload, args.seed)
    warm_up(wl)
    run = run_traced if args.trace else run_timed
    result = run(args, wl, probe_start)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
