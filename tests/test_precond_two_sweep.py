"""The two-sweep preconditioners: ILU(0), ILU(K), ILUT, IC(0) and SSOR.

All five apply as a forward sweep, an optional diagonal scale and a
backward sweep, through the one :class:`TriangularPreconditioner`; these
tests hold each kind's application to the sequential substitutions on
the triangles it was built from, its cost metadata to the numbers the
five separate formulas used to give, and its setup price to one rule.
"""

import numpy as np
import pytest

from repro.datasets import load
from repro.harness import run_experiment
from repro.machine import A100
from repro.machine.kernels import iteration_value_traffic, time_precond_setup
from repro.precond import (IC0Preconditioner, ILU0Preconditioner,
                           ILUKPreconditioner, ILUTPreconditioner,
                           JacobiPreconditioner, SSORPreconditioner,
                           TriangularPreconditioner, solve_lower_sequential,
                           solve_upper_sequential)
from repro.sparse import CSRMatrix

#: One builder per kind, keyed by the preconditioner's ``name``.
KINDS = {
    "ilu0": ILU0Preconditioner,
    "iluk": lambda a: ILUKPreconditioner(a, k=2),
    "ilut": ILUTPreconditioner,
    "ic0": IC0Preconditioner,
    "ssor": lambda a: SSORPreconditioner(a, omega=1.2),
}


@pytest.fixture(scope="module")
def thermal():
    return load("thermal_900_s100")


def _triangles(kind: str, a: CSRMatrix, m):
    """``(L, unit_lower, scale, U)`` of *m*, from its public factors —
    SSOR's rebuilt from *a*: ``D/ω + L``, ``(2−ω)/ω²·D`` and ``D/ω + U``."""
    if kind in ("ilu0", "iluk", "ilut"):
        return m.factors.lower, True, None, m.factors.upper
    if kind == "ic0":
        return m.factor, False, None, m.factor.transpose()
    dense, d, w = a.to_dense(), a.diagonal(), m.omega
    lower = CSRMatrix.from_dense(np.tril(dense, -1) + np.diag(d / w))
    upper = CSRMatrix.from_dense(np.triu(dense, 1) + np.diag(d / w))
    return lower, False, d * (2.0 - w) / w ** 2, upper


class TestTwoSweepPreconditioners:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_apply_equals_sequential_sweeps(self, poisson16, rng, kind):
        m = KINDS[kind](poisson16)
        assert isinstance(m, TriangularPreconditioner) and m.name == kind
        lower, unit, scale, upper = _triangles(kind, poisson16, m)
        r = rng.standard_normal(m.n)
        y = solve_lower_sequential(lower, r, unit_diagonal=unit)
        if scale is not None:
            y = scale * y
        np.testing.assert_allclose(m.apply(r),
                                   solve_upper_sequential(upper, y),
                                   atol=1e-9)

    # What each kind's own formula gave on thermal_900_s100 before the
    # five classes shared one.
    @pytest.mark.parametrize("kind,nnz,levels", [
        ("ilu0", 5280, (59, 59)),
        ("iluk", 8586, (117, 117)),
        ("ilut", 12067, (152, 152)),
        ("ic0", 5280, (59, 59)),
        ("ssor", 6180, (59, 59)),
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
    def test_ic0_priced_as_a_factorization(self, thermal):
        setup = time_precond_setup(A100, IC0Preconditioner(thermal))
        res = run_experiment(thermal, precond="ic0", run_fixed_ratios=False)
        assert setup == res.baseline.factor_seconds
        assert setup > time_precond_setup(A100, JacobiPreconditioner(thermal))

    def test_ssor_priced_as_one_pass(self, thermal):
        assert time_precond_setup(A100, SSORPreconditioner(thermal)) == \
            time_precond_setup(A100, JacobiPreconditioner(thermal))
