"""Triangular-solve engines: level-scheduled vs partitioned SpTRSV on
the A100 model, plus the mixed-precision iteration/traffic trade.

Not a paper figure.  The partitioned engine (arXiv 2508.04917) is
priced, not run.  On the band-1 chain (the wavefront-deep worst case
for level scheduling) it must be modeled strictly faster for every
candidate partition count, and the device model must pick it.  The
model picks it on the 2-D Poisson 20² factor too (P = 2, 5.74×
modeled), but only the chain's pick is asserted.  The timed fixture
is the level-scheduled chain solve, the executor every solve runs.  A
second table runs the precision study: mixed
(float32-factor) SPCG must reach the float64 stopping criterion within
1.3x the outer iterations while moving strictly fewer value bytes per
iteration.  The machine-readable summary lands in
``results/BENCH_trisolve.json``.
"""

import json

import numpy as np

from conftest import RESULTS_DIR, _scale, emit

from repro.harness import render_table, run_precision_study
from repro.machine import A100
from repro.precond import ScheduledTriangularSolver, plan_trisolve
from repro.precond.ilu0 import ilu0
from repro.sparse import stencil_poisson_1d, stencil_poisson_2d

PARTS = (2, 4, 8, 16)


def _sizes():
    if _scale() == "tiny":
        return 256, 12
    return 512, 20


def test_trisolve_engine_selection(benchmark):
    chain_n, side = _sizes()
    chain = ilu0(stencil_poisson_1d(chain_n)).lower
    shallow = ilu0(stencil_poisson_2d(side)).lower
    cases = [("chain", chain), ("poisson2d", shallow)]

    summary = {"device": A100.name, "cases": {}}
    rows = []
    for name, tri in cases:
        entry = {"n": tri.n_rows, "nnz": tri.nnz, "plans": {}}
        for p in PARTS:
            if p > tri.n_rows:
                continue
            plan = plan_trisolve(tri, n_parts=p, device=A100)
            entry["plans"][f"P={p}"] = {
                "levels_s": plan.levels_seconds,
                "partitioned_s": plan.partitioned_seconds,
                "speedup": plan.speedup,
            }
            rows.append([name, f"{p}", f"{plan.levels_seconds:.3e}",
                         f"{plan.partitioned_seconds:.3e}",
                         f"{plan.speedup:.2f}x"])
            if name == "chain":
                # The wavefront-deep case: partitioned must win at
                # every candidate width, not just the auto pick.
                assert plan.partitioned_seconds < plan.levels_seconds
        auto = plan_trisolve(tri, device=A100)
        entry["auto"] = {"engine": auto.engine, "n_parts": auto.n_parts,
                         "modeled_s": min(auto.levels_seconds,
                                          auto.partitioned_seconds)}
        summary["cases"][name] = entry
        rows.append([name, "auto", f"{auto.levels_seconds:.3e}",
                     f"{auto.partitioned_seconds:.3e}",
                     f"-> {auto.engine} (P={auto.n_parts})"])

    assert summary["cases"]["chain"]["auto"]["engine"] == "partitioned"

    solver = ScheduledTriangularSolver(chain, unit_diagonal=True)
    b = np.ones(chain.n_rows)
    benchmark(lambda: solver.solve(b))

    table = render_table(
        ["matrix", "P", "levels (s)", "partitioned (s)", "speedup"],
        rows, title="SpTRSV engines on the A100 model "
                    "(modeled per-solve seconds)")
    emit("trisolve_engines.txt", table)

    study = run_precision_study(
        stencil_poisson_2d(side), name=f"poisson2d-{side}")
    assert study.full.converged and study.mixed.converged
    assert study.iteration_ratio <= 1.3
    assert study.traffic_ratio < 1.0
    summary["precision_study"] = {
        "matrix": study.matrix,
        "full_iters": study.full.iterations,
        "mixed_iters": study.mixed.iterations,
        "iteration_ratio": study.iteration_ratio,
        "full_value_bytes": study.full.value_traffic_bytes,
        "mixed_value_bytes": study.mixed.value_traffic_bytes,
        "traffic_ratio": study.traffic_ratio,
        "mixed_fallback": study.mixed.mixed_fallback,
    }
    emit("precision_study.txt", study.summary())

    (RESULTS_DIR / "BENCH_trisolve.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8")
