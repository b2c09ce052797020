"""Ablation: sparsification vs HDagg-style level aggregation.

The related work (Section 6.1) reduces synchronization cost by
*scheduling* — packing consecutive wavefronts into one kernel with cheap
intra-kernel syncs — while SPCG reduces it by *changing the matrix*.
This ablation prices four variants of the triangular-solve pair on the
A100 model:

    baseline / aggregated / SPCG / SPCG + aggregated

showing (a) both attack the same bottleneck, (b) they compose, and
(c) sparsification additionally removes work, which aggregation cannot.

The wall-clock benchmark times the aggregation transformation.
"""

from conftest import emit, study_names

from repro.core import wavefront_aware_sparsify
from repro.datasets import load
from repro.graph import aggregate_levels
from repro.harness import render_table
from repro.machine import A100, time_trisolve, time_trisolve_aggregated
from repro.precond import ILU0Preconditioner
from repro.util import gmean

NAMES = study_names()


def _apply_times(m: ILU0Preconditioner) -> tuple[float, float]:
    """(plain, aggregated) modeled times of one preconditioner apply."""
    plain = agg = 0.0
    for solver in m.solvers():
        rows, nnz = solver.kernel_profile()
        plain += time_trisolve(A100, rows, nnz)
        packed = aggregate_levels(solver.schedule,
                                  max_group_rows=A100.row_slots)
        agg += time_trisolve_aggregated(A100, rows, nnz, packed.group_ptr)
    return plain, agg


def test_aggregation_ablation(benchmark):
    speed_agg, speed_spcg, speed_both = [], [], []
    for name in NAMES:
        a = load(name)
        try:
            m0 = ILU0Preconditioner(a)
            d = wavefront_aware_sparsify(a)
            m1 = ILU0Preconditioner(d.a_hat, raise_on_zero_pivot=False)
        except Exception:
            continue
        base_plain, base_agg = _apply_times(m0)
        spcg_plain, spcg_agg = _apply_times(m1)
        speed_agg.append(base_plain / base_agg)
        speed_spcg.append(base_plain / spcg_plain)
        speed_both.append(base_plain / spcg_agg)
    text = render_table(
        ["variant", "gmean preconditioner-apply speedup"],
        [["aggregation only", f"{gmean(speed_agg):.2f}×"],
         ["SPCG only", f"{gmean(speed_spcg):.2f}×"],
         ["SPCG + aggregation", f"{gmean(speed_both):.2f}×"]],
        title="Ablation — scheduling (HDagg-style packing) vs "
              "sparsification vs both, ILU(0) apply on A100")
    text += ("\nBoth techniques attack the synchronization bottleneck; "
             "they compose, and the combined variant dominates each "
             "alone.")
    emit("aggregation_ablation.txt", text)

    g_agg, g_spcg, g_both = (gmean(speed_agg), gmean(speed_spcg),
                             gmean(speed_both))
    assert g_agg > 1.0
    assert g_both >= max(g_agg, g_spcg) - 1e-9

    sched = ILU0Preconditioner(load(NAMES[0])).solvers()[0].schedule
    benchmark(aggregate_levels, sched, max_group_rows=A100.row_slots)
