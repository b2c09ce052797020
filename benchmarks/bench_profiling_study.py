"""Section 5.3 — modeled GPU profiling observations.

The paper profiles three representative matrices with Nsight Compute:

* *thermomech_dM* (speedup 4.39×): DRAM utilization **rises** (4.24 % →
  6.25 %) and compute utilization rises (16.49 % → 23.71 %) — less time
  stuck at barriers, more time doing work;
* *Muu* (0.99×): DRAM utilization falls, nothing gained;
* *2cubes_sphere*: compute utilization flat — latency-bound either way.

We reproduce the *mechanism* with the modeled profiler: utilization =
work / (time · peak); matrices whose runtime is barrier-dominated show
rising utilization exactly when they speed up.

The wall-clock benchmark times the profiler itself.
"""

from conftest import emit, scaled_matrix

from repro.core import wavefront_aware_sparsify
from repro.datasets import load
from repro.harness import render_table
from repro.machine import A100, KernelProfiler
from repro.precond import ILU0Preconditioner

CASES = {
    # strong speedup expected (front-rich structural matrix)
    "thermomech_dM-like": scaled_matrix("structural_2500_s104"),
    # negligible speedup expected (uniform counter-example)
    "Muu-like": "counter_1156_s101",
    # latency-bound random graph
    "2cubes_sphere-like": "random2d3d_1156_s101",
}


def test_profiling_report(benchmark):
    prof = KernelProfiler(A100)
    rows = []
    utils = {}
    for label, name in CASES.items():
        a = load(name)
        d = wavefront_aware_sparsify(a)
        m0 = ILU0Preconditioner(a)
        m1 = ILU0Preconditioner(d.a_hat, raise_on_zero_pivot=False)
        u0 = prof.iteration_utilization(a, m0)
        u1 = prof.iteration_utilization(a, m1)
        speedup = u0.seconds / u1.seconds
        utils[label] = (u0, u1, speedup)
        rows.append([label, f"×{speedup:.2f}",
                     f"{u0.dram_util_percent:.3f}% → "
                     f"{u1.dram_util_percent:.3f}%",
                     f"{u0.compute_util_percent:.3f}% → "
                     f"{u1.compute_util_percent:.3f}%",
                     f"{u0.bound} → {u1.bound}"])
    text = render_table(
        ["case", "per-iter speedup", "DRAM util", "compute util",
         "bound"],
        rows,
        title="§5.3 — modeled Nsight-style profile, PCG iteration before "
              "→ after sparsification (A100)")
    text += ("\npaper: thermomech_dM 4.39× with DRAM 4.24→6.25% and "
             "compute 16.49→23.71%; Muu 0.99× with DRAM falling; "
             "2cubes_sphere compute flat at 1.07%.")
    emit("profiling_study.txt", text)
    a0 = load(CASES["thermomech_dM-like"])
    benchmark(prof.iteration_utilization, a0, ILU0Preconditioner(a0))

    u0, u1, speedup = utils["thermomech_dM-like"]
    if speedup > 1.05:
        # Speedup must come with *rising* utilization: same work in less
        # time (the thermomech_dM signature).
        assert u1.dram_util_percent >= u0.dram_util_percent * 0.9
    _, _, s_muu = utils["Muu-like"]
    assert s_muu < 1.2  # the no-gain case stays near 1


def test_profiling_bench(benchmark):
    a = load(CASES["thermomech_dM-like"])
    m = ILU0Preconditioner(a)
    prof = KernelProfiler(A100)
    benchmark(prof.iteration_utilization, a, m)
