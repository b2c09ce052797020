"""Cross-module integration tests: the full pipeline end to end."""

import numpy as np
import pytest

from repro import (A100, EPYC_7413, ILU0Preconditioner, StoppingCriterion,
                   cg, pcg, spcg, wavefront_count)
from repro.core import sparsify_magnitude, wavefront_aware_sparsify
from repro.datasets import generate, load
from repro.harness import run_experiment
from repro.machine import KernelProfiler, iteration_cost
from repro.precond import (IC0Preconditioner, ILUKPreconditioner,
                           ILUTPreconditioner, JacobiPreconditioner)
from repro.sparse import read_matrix_market, write_matrix_market

from test_core_algorithm2 import front_matrix


class TestFullPipeline:
    def test_spcg_solution_equals_pcg_solution(self):
        """Sparsification perturbs only the preconditioner, never the
        answer: both must solve the same system to the same tolerance."""
        a = front_matrix(side=20)
        x_true = np.sin(np.arange(a.n_rows) / 7.0)
        b = a.matvec(x_true)
        crit = StoppingCriterion(rtol=1e-12, atol=0.0, max_iters=2000)
        base = pcg(a, b, ILU0Preconditioner(a), criterion=crit)
        sp = spcg(a, b, criterion=crit)
        assert base.converged and sp.converged
        np.testing.assert_allclose(base.x, x_true, atol=1e-6)
        np.testing.assert_allclose(sp.x, x_true, atol=1e-6)

    def test_all_preconditioners_solve_same_system(self):
        a = generate("thermal", 400, seed=3)
        x_true = np.ones(a.n_rows)
        b = a.matvec(x_true)
        crit = StoppingCriterion(rtol=1e-10, atol=0.0, max_iters=3000)
        preconds = [
            ILU0Preconditioner(a),
            ILUKPreconditioner(a, k=2),
            IC0Preconditioner(a),
            ILUTPreconditioner(a, p=8, drop_tol=1e-3),
            JacobiPreconditioner(a),
        ]
        for m in preconds:
            res = pcg(a, b, m, criterion=crit)
            assert res.converged, m.name
            np.testing.assert_allclose(res.x, x_true, atol=1e-5,
                                       err_msg=m.name)

    def test_preconditioner_ordering_by_quality(self):
        """ILU(K) ≤ ILU(0) ≤ Jacobi ≤ plain CG in iterations."""
        a = generate("2d3d", 900, seed=5)
        b = a.matvec(np.ones(a.n_rows))
        crit = StoppingCriterion(rtol=1e-10, atol=0.0, max_iters=5000)
        it_plain = cg(a, b, criterion=crit).n_iters
        it_jac = pcg(a, b, JacobiPreconditioner(a), criterion=crit).n_iters
        it_ilu0 = pcg(a, b, ILU0Preconditioner(a), criterion=crit).n_iters
        it_iluk = pcg(a, b, ILUKPreconditioner(a, k=3),
                      criterion=crit).n_iters
        assert it_iluk <= it_ilu0 <= it_jac <= it_plain

    def test_experiment_roundtrip_through_matrix_market(self, tmp_path):
        """Write a registry matrix to .mtx, read it back, run the full
        experiment — the SuiteSparse drop-in path."""
        a = load("circuit_900_s100")
        path = tmp_path / "m.mtx"
        write_matrix_market(path, a, symmetric=True)
        b = read_matrix_market(path)
        r1 = run_experiment(a, run_fixed_ratios=False)
        r2 = run_experiment(b, run_fixed_ratios=False)
        assert r1.spcg.ratio_percent == r2.spcg.ratio_percent
        assert r1.baseline.n_iters == r2.baseline.n_iters

    def test_wavefront_reduction_translates_to_modeled_speedup(self):
        a = front_matrix(side=24)
        d = wavefront_aware_sparsify(a)
        assert wavefront_count(d.a_hat) < wavefront_count(a)
        m0 = ILU0Preconditioner(a)
        m1 = ILU0Preconditioner(d.a_hat, raise_on_zero_pivot=False)
        for dev in (A100, EPYC_7413):
            t0 = iteration_cost(dev, a, m0).total
            t1 = iteration_cost(dev, a, m1).total
            assert t1 < t0, dev.name

    def test_profiler_consistent_with_cost_model(self):
        a = load("thermal_900_s100")
        m = ILU0Preconditioner(a)
        u = KernelProfiler(A100).iteration_utilization(a, m)
        assert u.seconds == pytest.approx(
            iteration_cost(A100, a, m).total)

    def test_float32_full_pipeline(self):
        """The paper's single-precision configuration."""
        a = generate("thermal", 400, seed=9).astype(np.float32)
        b = a.matvec(np.ones(a.n_rows, dtype=np.float32))
        res = spcg(a, b, criterion=StoppingCriterion(rtol=1e-4, atol=0.0))
        assert res.converged
        assert res.x.dtype == np.float32

    def test_determinism_end_to_end(self):
        a = load("graphics_900_s100")
        b = a.matvec(np.ones(a.n_rows))
        r1 = spcg(a, b)
        r2 = spcg(a, b)
        assert r1.chosen_ratio == r2.chosen_ratio
        assert r1.solve.n_iters == r2.solve.n_iters
        np.testing.assert_array_equal(r1.x, r2.x)

    def test_sparsified_system_decomposition_through_pipeline(self):
        """A = Â + S exactly, and the preconditioner factors Â's
        pattern — the invariants Figure 2 relies on."""
        a = load("materials_900_s100")
        res = sparsify_magnitude(a, 10.0)
        from repro.sparse import add

        np.testing.assert_allclose(add(res.a_hat, res.s).to_dense(),
                                   a.to_dense(), atol=1e-14)
        m = ILU0Preconditioner(res.a_hat, raise_on_zero_pivot=False)
        assert m.factors.nnz == res.a_hat.nnz


class TestRegressionGuards:
    """Pin down behaviours the calibration depends on."""

    def test_suite_has_reduction_diversity(self):
        """Some registry matrices must reduce wavefronts at 10 % and
        others must not — Algorithm 2's branches all need real members."""
        reduced = unreduced = 0
        for name in ["thermal_900_s100", "statmath_900_s100",
                     "counter_900_s100", "2d3d_1156_s101_dim3",
                     "graphics_900_s100", "cfd_900_s100"]:
            a = load(name)
            w0 = wavefront_count(a)
            w1 = wavefront_count(sparsify_magnitude(a, 10.0).a_hat)
            if w1 < w0:
                reduced += 1
            else:
                unreduced += 1
        assert reduced >= 1
        assert unreduced >= 1

    def test_paper_defaults_are_defaults(self):
        crit = StoppingCriterion.paper_default()
        assert (crit.atol, crit.max_iters) == (1e-12, 1000)
        import inspect

        sig = inspect.signature(wavefront_aware_sparsify)
        assert sig.parameters["tau"].default == 1.0
        assert sig.parameters["omega"].default == 10.0
        assert sig.parameters["ratios"].default == (10.0, 5.0, 1.0)
