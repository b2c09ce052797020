"""Property suite for the communication-reduced CG variants.

Locks down the algebra behind the fleet's cheaper synchronization:
pipelined CG and s-step CG (s ∈ {1, 2, 4}) must converge to the same
iterate as sequential ``pcg`` within 1e-8 on random SPD systems —
across preconditioners and batch widths — and s=1 s-step CG must
reproduce the standard solver's residual history *exactly* (it shares
``pcg``'s code path; this suite keeps that true)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.spcg import make_preconditioner
from repro.errors import InvalidRequestError, ShapeError
from repro.precond import JacobiPreconditioner
from repro.solvers import (StoppingCriterion, TerminationReason, pcg,
                           pipelined_cg, s_step_cg)
from repro.sparse import random_spd, stencil_poisson_2d

# Recurrence-based residuals stall near machine precision, so the
# property suite converges at 1e-10 relative (comfortably below the
# 1e-8 agreement bound it asserts) rather than the paper default's
# absolute 1e-12.
CRIT = StoppingCriterion(rtol=1e-10, atol=0.0, max_iters=800)

PRECONDS = (None, "jacobi", "ilu0", "ic0")


def _make_precond(a, kind):
    return None if kind is None else make_preconditioner(a, kind)


@st.composite
def spd_system(draw):
    n = draw(st.integers(20, 120))
    seed = draw(st.integers(0, 2 ** 31))
    density = draw(st.floats(0.02, 0.15))
    a = random_spd(n, density=density, seed=seed)
    rng = np.random.default_rng(seed + 1)
    b = rng.standard_normal(n)
    return a, b


class TestPipelinedMatchesPcg:
    @given(spd_system(), st.sampled_from(PRECONDS))
    @settings(max_examples=40, deadline=None)
    def test_same_iterate_within_1e8(self, system, kind):
        a, b = system
        m = _make_precond(a, kind)
        ref = pcg(a, b, m, criterion=CRIT)
        res = pipelined_cg(a, b, m, criterion=CRIT)
        assert ref.converged and res.converged
        assert np.max(np.abs(ref.x - res.x)) < 1e-8

    @given(spd_system())
    @settings(max_examples=25, deadline=None)
    def test_one_fused_allreduce_per_iteration(self, system):
        a, b = system
        res = pipelined_cg(a, b, criterion=CRIT)
        comm = res.extra["comm"]
        assert comm["variant"] == "pipelined"
        assert comm["scalars_per_allreduce"] == 3
        # One fused reduction per pipelined iteration, one per
        # true-residual verification, three per iteration handed to the
        # standard-PCG fallback.
        fb = comm["fallback_iters"]
        if fb == 0:
            assert comm["allreduces"] == \
                res.n_iters + comm["verifications"]
        else:
            assert comm["allreduces"] <= \
                res.n_iters + comm["verifications"] + 2 * fb + 1


class TestSStepMatchesPcg:
    @given(spd_system(), st.sampled_from(PRECONDS),
           st.sampled_from([1, 2, 4]))
    @settings(max_examples=40, deadline=None)
    def test_same_iterate_within_1e8(self, system, kind, s):
        a, b = system
        m = _make_precond(a, kind)
        ref = pcg(a, b, m, criterion=CRIT)
        res = s_step_cg(a, b, m, s=s, criterion=CRIT)
        assert ref.converged and res.converged
        assert np.max(np.abs(ref.x - res.x)) < 1e-8

    @given(spd_system(), st.sampled_from(PRECONDS))
    @settings(max_examples=30, deadline=None)
    def test_s1_reproduces_pcg_history_exactly(self, system, kind):
        a, b = system
        m = _make_precond(a, kind)
        ref = pcg(a, b, m, criterion=CRIT)
        res = s_step_cg(a, b, m, s=1, criterion=CRIT)
        assert np.array_equal(ref.residual_norms, res.residual_norms)
        assert np.array_equal(ref.x, res.x)
        assert ref.n_iters == res.n_iters
        assert ref.reason is res.reason
        assert res.extra["comm"]["s"] == 1

    @given(spd_system(), st.sampled_from([2, 4]))
    @settings(max_examples=25, deadline=None)
    def test_fewer_allreduces_than_iterations(self, system, s):
        a, b = system
        res = s_step_cg(a, b, s=s, criterion=CRIT)
        comm = res.extra["comm"]
        # Two reductions (Gram + verification) per outer block of up
        # to s iterations — strictly fewer than pcg's 3 per iteration —
        # plus 3 per iteration handed to the standard-PCG fallback.
        fb = comm["fallback_iters"]
        assert comm["allreduces"] <= 2 * comm["blocks"] + 3 * fb
        if fb == 0:
            assert comm["allreduces"] < 3 * max(1, res.n_iters)


class TestBatchWidths:
    @given(st.integers(1, 5), st.sampled_from(PRECONDS),
           st.sampled_from([1, 2, 4]), st.integers(0, 2 ** 31))
    @settings(max_examples=20, deadline=None)
    def test_block_rhs_matches_sequential_per_column(self, width, kind,
                                                     s, seed):
        a = random_spd(60, density=0.08, seed=seed % 1000)
        rng = np.random.default_rng(seed)
        bmat = rng.standard_normal((60, width))
        m = _make_precond(a, kind)
        pipe = pipelined_cg(a, bmat, m, criterion=CRIT)
        sstep = s_step_cg(a, bmat, m, s=s, criterion=CRIT)
        assert len(pipe) == width and len(sstep) == width
        for j in range(width):
            ref = pcg(a, np.ascontiguousarray(bmat[:, j]), m,
                      criterion=CRIT)
            assert np.max(np.abs(ref.x - pipe[j].x)) < 1e-8
            assert np.max(np.abs(ref.x - sstep[j].x)) < 1e-8


class TestEdgesAndBreakdowns:
    def test_zero_rhs_converges_immediately(self):
        a = stencil_poisson_2d(6)
        b = np.zeros(a.n_rows)
        for res in (pipelined_cg(a, b, criterion=CRIT),
                    s_step_cg(a, b, s=2, criterion=CRIT)):
            assert res.converged and res.n_iters == 0

    def test_warm_start_converges(self):
        a = stencil_poisson_2d(8)
        rng = np.random.default_rng(0)
        xstar = rng.standard_normal(a.n_rows)
        b = a.matvec(xstar)
        ref = pcg(a, b, x0=0.9 * xstar, criterion=CRIT)
        for res in (pipelined_cg(a, b, x0=0.9 * xstar, criterion=CRIT),
                    s_step_cg(a, b, s=2, x0=0.9 * xstar,
                              criterion=CRIT)):
            assert res.converged
            assert np.max(np.abs(ref.x - res.x)) < 1e-8

    def test_indefinite_matrix_flagged(self):
        # diag(1, -1): CG's (p, Ap) goes non-positive.
        from repro.sparse import CSRMatrix

        a = CSRMatrix(np.array([0, 1, 2]), np.array([0, 1]),
                      np.array([1.0, -1.0]), (2, 2))
        b = np.array([1.0, 1.0])
        for res in (pipelined_cg(a, b, criterion=CRIT),
                    s_step_cg(a, b, s=2, criterion=CRIT)):
            assert not res.converged
            assert res.reason in (TerminationReason.INDEFINITE,
                                  TerminationReason.NUMERICAL_BREAKDOWN)

    def test_s_must_be_positive(self):
        a = stencil_poisson_2d(4)
        with pytest.raises(ValueError):
            s_step_cg(a, np.ones(a.n_rows), s=0)

    def test_max_iters_honored(self):
        a = stencil_poisson_2d(10)
        b = np.ones(a.n_rows)
        tight = StoppingCriterion(rtol=1e-14, atol=0.0, max_iters=3)
        for res in (pipelined_cg(a, b, criterion=tight),
                    s_step_cg(a, b, s=4, criterion=tight)):
            assert res.n_iters <= 3
            assert not res.converged


class CountingJacobi(JacobiPreconditioner):
    """Jacobi that counts its applications."""

    applies = 0

    def apply(self, r):
        self.applies += 1
        return super().apply(r)


VARIANTS = {"pipelined": pipelined_cg,
            "s_step": lambda *args, **kw: s_step_cg(*args, s=2, **kw)}


class TestX0Checks:
    """``x0`` is checked against the whole right-hand side before any
    column is solved or any operator applied."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_block_x0_with_extra_column_rejected(self, variant):
        a = stencil_poisson_2d(5)
        b = np.ones((a.n_rows, 2))
        with pytest.raises(ShapeError):
            VARIANTS[variant](a, b, x0=np.zeros((a.n_rows, 3)),
                              criterion=CRIT)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_vector_x0_for_block_is_shape_error(self, variant):
        a = stencil_poisson_2d(5)
        b = np.ones((a.n_rows, 2))
        with pytest.raises(ShapeError):
            VARIANTS[variant](a, b, x0=np.zeros(a.n_rows), criterion=CRIT)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_nan_x0_rejected_before_any_apply(self, variant):
        a = stencil_poisson_2d(5)
        m = CountingJacobi(a)
        x0 = np.zeros(a.n_rows)
        x0[3] = np.nan
        with pytest.raises(InvalidRequestError):
            VARIANTS[variant](a, np.ones(a.n_rows), m, x0=x0,
                              criterion=CRIT)
        assert m.applies == 0
