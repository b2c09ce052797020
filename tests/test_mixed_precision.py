"""Tests for mixed-precision iterative refinement: float32 factors
driving a float64 outer CG (``precision="mixed"``)."""

import numpy as np
import pytest

from repro.core.spcg import PRECISIONS, make_preconditioner, spcg
from repro.machine import A100, iteration_value_traffic
from repro.perf import get_cache
from repro.solvers.stopping import StoppingCriterion
from repro.sparse import stencil_poisson_2d


class TestMixedPrecisionSolve:
    def _solve(self, precision, rng, **kw):
        a = stencil_poisson_2d(20)
        b = rng.standard_normal(a.n_rows)
        return a, b, spcg(a, b, preconditioner="ilu0",
                          precision=precision, **kw)

    def test_reaches_float64_tolerance(self, make_rng):
        a, b, full = self._solve("float64", make_rng(0))
        _, _, mixed = self._solve("mixed", make_rng(0))
        crit = StoppingCriterion.paper_default()
        thr = crit.threshold(float(np.linalg.norm(b)))
        assert full.converged and mixed.converged
        for res in (full, mixed):
            r = b - a @ res.solve.x
            assert np.linalg.norm(r) <= 10 * thr
        # Acceptance: mixed costs at most 30% extra outer iterations.
        assert mixed.solve.n_iters <= 1.3 * full.solve.n_iters
        assert mixed.solve.extra["precision"] == "mixed"
        assert "mixed_fallback" not in mixed.solve.extra

    def test_value_traffic_strictly_lower(self, make_rng):
        a, _, full = self._solve("float64", make_rng(1))
        _, _, mixed = self._solve("mixed", make_rng(1))
        t_full = iteration_value_traffic(A100, a, full.preconditioner)
        t_mixed = iteration_value_traffic(A100, a, mixed.preconditioner)
        assert t_mixed.precond < t_full.precond
        assert t_mixed.total < t_full.total
        # Only the preconditioner's value bytes shrink; SpMV and the
        # float64 vector traffic are identical across modes.
        assert t_mixed.spmv == t_full.spmv
        assert t_mixed.vectors == t_full.vectors

    def test_factor_dtype_is_float32(self, make_rng):
        _, _, mixed = self._solve("mixed", make_rng(2))
        assert mixed.preconditioner.value_dtype == np.float32
        _, _, full = self._solve("float64", make_rng(2))
        assert full.preconditioner.value_dtype == np.float64

    def test_solution_is_float64(self, make_rng):
        _, _, mixed = self._solve("mixed", make_rng(3))
        assert mixed.solve.x.dtype == np.float64

    def test_fallback_wiring(self, make_rng):
        # An iteration cap far below convergence forces the guarded
        # mixed run to stop unconverged, which must trigger the
        # full-precision re-solve and record the mixed iteration count.
        crit = StoppingCriterion(rtol=0.0, atol=1e-12, max_iters=3)
        _, _, res = self._solve("mixed", make_rng(4), criterion=crit)
        assert res.solve.extra["mixed_fallback"] is True
        assert res.solve.extra["mixed_iterations"] == 3
        assert res.solve.extra["precision"] == "mixed"
        # The retry rebuilt full-precision factors.
        assert res.preconditioner.value_dtype == np.float64


class TestMixedPrecisionPreconditioner:
    def test_invalid_precision_raises(self):
        a = stencil_poisson_2d(6)
        with pytest.raises(ValueError, match="precision"):
            make_preconditioner(a, "ilu0", precision="float16")
        assert PRECISIONS == ("float64", "mixed")

    def test_precisions_get_distinct_cache_entries(self):
        a = stencil_poisson_2d(8)
        make_preconditioner(a, "ilu0", precision="float64")
        make_preconditioner(a, "ilu0", precision="mixed")
        assert get_cache().stats.misses_by_kind["preconditioner"] == 2
        # Repeats hit the cache — the key distinguishes the modes.
        make_preconditioner(a, "ilu0", precision="mixed")
        assert get_cache().stats.misses_by_kind["preconditioner"] == 2
        assert get_cache().stats.hits_by_kind["preconditioner"] == 1

    @pytest.mark.parametrize("kind", ["ilu0", "iluk", "ic0"])
    def test_all_families_support_mixed(self, kind):
        a = stencil_poisson_2d(8)
        m = make_preconditioner(a, kind, precision="mixed")
        assert m.value_dtype == np.float32
        z = m.apply(np.ones(a.n_rows))
        assert z.dtype == np.float64
        assert np.all(np.isfinite(z))


class TestPrecisionStudy:
    def test_run_precision_study(self):
        from repro.harness import run_precision_study

        a = stencil_poisson_2d(16)
        study = run_precision_study(a, name="poisson2d-16")
        assert study.full.precision == "float64"
        assert study.mixed.precision == "mixed"
        assert study.full.converged and study.mixed.converged
        assert study.iteration_ratio <= 1.3
        assert study.traffic_ratio < 1.0
        text = study.summary()
        assert "iteration ratio" in text
        assert "poisson2d-16" in text
