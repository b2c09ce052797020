"""The two-sweep preconditioners: ILU(0), ILU(K), ILUT and IC(0).

All four apply as a forward sweep and a backward sweep, through the one
:class:`TriangularPreconditioner`; these tests hold each kind's
application to the sequential substitutions on the triangles it was
built from, its cost metadata to the numbers the separate formulas used
to give, and its setup price to one rule.
"""

import numpy as np
import pytest

from repro.datasets import load
from repro.harness import run_experiment
from repro.machine import A100, time_ilu_factorization
from repro.machine.kernels import iteration_value_traffic, time_precond_setup
from repro.precond import (IC0Preconditioner, IdentityPreconditioner,
                           ILU0Preconditioner, ILUKPreconditioner,
                           ILUTPreconditioner, JacobiPreconditioner,
                           TriangularPreconditioner, solve_lower_sequential,
                           solve_upper_sequential)
from repro.sparse import CSRMatrix

#: One builder per kind, keyed by the preconditioner's ``name``.
KINDS = {
    "ilu0": ILU0Preconditioner,
    "iluk": lambda a: ILUKPreconditioner(a, k=2),
    "ilut": ILUTPreconditioner,
    "ic0": IC0Preconditioner,
}


@pytest.fixture(scope="module")
def thermal():
    return load("thermal_900_s100")


def _triangles(kind: str, m) -> tuple[CSRMatrix, bool, CSRMatrix]:
    """``(L, unit_lower, U)`` of *m*, from its public factors."""
    if kind == "ic0":
        return m.factor, False, m.factor.transpose()
    return m.factors.lower, True, m.factors.upper


class TestTwoSweepPreconditioners:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_apply_equals_sequential_sweeps(self, poisson16, rng, kind):
        m = KINDS[kind](poisson16)
        assert isinstance(m, TriangularPreconditioner) and m.name == kind
        lower, unit, upper = _triangles(kind, m)
        r = rng.standard_normal(m.n)
        y = solve_lower_sequential(lower, r, unit_diagonal=unit)
        np.testing.assert_allclose(m.apply(r),
                                   solve_upper_sequential(upper, y),
                                   atol=1e-9)

    # What each kind's own formula gave on thermal_900_s100 before the
    # classes shared one.
    @pytest.mark.parametrize("kind,nnz,levels", [
        ("ilu0", 5280, (59, 59)),
        ("iluk", 8586, (117, 117)),
        ("ilut", 12067, (152, 152)),
        ("ic0", 5280, (59, 59)),
    ])
    def test_cost_metadata_unchanged(self, thermal, kind, nnz, levels):
        m = KINDS[kind](thermal)
        assert m.n == 900
        assert m.apply_nnz() == nnz
        assert m.apply_levels() == levels

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_float32_factors_priced_at_four_bytes(self, poisson16, kind):
        a32 = poisson16.astype(np.float32)
        m = KINDS[kind](a32)
        assert m.value_dtype == np.float32
        f64 = A100.bytes_for(np.float64)
        assert iteration_value_traffic(A100, a32, m).precond == \
            4 * m.apply_nnz() + 4 * m.n * f64


class TestOneSetupPrice:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_every_kind_priced_as_a_factorization(self, thermal, kind):
        # Every two-sweep kind declares its factor flops (IC(0) its 0),
        # so none falls through to the one-pass price of Jacobi.
        m = KINDS[kind](thermal)
        assert m.factor_flops >= 0
        rows, nnz = m.solvers()[0].kernel_profile()
        setup = time_precond_setup(A100, m)
        assert setup == time_ilu_factorization(A100, rows, nnz,
                                               m.factor_flops)
        assert setup > time_precond_setup(A100, JacobiPreconditioner(thermal))

    def test_ic0_priced_as_a_factorization(self, thermal):
        setup = time_precond_setup(A100, IC0Preconditioner(thermal))
        res = run_experiment(thermal, precond="ic0", run_fixed_ratios=False)
        assert setup == res.baseline.factor_seconds
        assert setup > time_precond_setup(A100, JacobiPreconditioner(thermal))

    def test_jacobi_and_identity_priced_as_one_pass(self, thermal):
        # One kernel reading and writing n values: at n = 900 it runs at
        # the latency floor, at n = 4e6 on the memory roof.
        floor = A100.launch_overhead + A100.min_kernel_time
        assert time_precond_setup(A100, JacobiPreconditioner(thermal)) \
            == floor
        assert time_precond_setup(A100, IdentityPreconditioner(900)) \
            == floor
        n = 4_000_000
        assert time_precond_setup(A100, IdentityPreconditioner(n)) == \
            A100.launch_overhead + 2.0 * n * A100.value_bytes \
            / A100.mem_bandwidth
