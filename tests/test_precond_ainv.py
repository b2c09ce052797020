"""Tests for the approximate-inverse family (SPAI / FSAI) and the
crossover planner.

The exactness anchor: on a small SPD matrix whose pattern power
saturates (``k = n``), SPAI's per-row least-squares fit recovers
``A^-1`` exactly and FSAI's factor recovers the inverse Cholesky
factor, so both applies must match ``np.linalg.solve(A, r)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NotPositiveDefiniteError
from repro.core.spcg import make_preconditioner
from repro.datasets.generators import generate
from repro.precond import (FSAIPreconditioner, SPAIPreconditioner,
                           ainv_pattern, plan_preconditioner)
from repro.precond.plan import AINV_KINDS
from repro.solvers import pcg
from repro.solvers.stopping import StoppingCriterion
from repro.sparse import CSRMatrix

CRITERION_1E8 = StoppingCriterion(rtol=1e-8, atol=0.0, max_iters=2000)


@st.composite
def small_spd(draw, max_n=10):
    """Random sparse diagonally dominant SPD matrix, order <= max_n."""
    n = draw(st.integers(2, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    density = draw(st.floats(0.1, 0.7))
    dense = rng.standard_normal((n, n))
    dense[rng.random((n, n)) > density] = 0.0
    dense = np.tril(dense, -1)
    dense = dense + dense.T
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    return CSRMatrix.from_dense(dense)


class TestPattern:
    def test_power_pattern_grows(self, poisson16):
        p1 = ainv_pattern(poisson16, 1)
        p2 = ainv_pattern(poisson16, 2)
        assert p1.nnz == poisson16.nnz
        assert p2.nnz > p1.nnz
        # Pattern of A^2 contains the pattern of A (diagonal is stored).
        d1 = p1.to_dense() != 0.0
        d2 = p2.to_dense() != 0.0
        assert np.all(d2 | ~d1)

    def test_invalid_k(self, poisson16):
        with pytest.raises(ValueError):
            ainv_pattern(poisson16, 0)


class TestSPAI:
    @given(small_spd())
    @settings(max_examples=40, deadline=None)
    def test_full_pattern_recovers_dense_inverse(self, a):
        # k = n saturates the pattern within each connected component,
        # where A^-1 lives, so the per-row fit is exact.
        m = SPAIPreconditioner(a, k=a.n_rows)
        rng = np.random.default_rng(0)
        r = rng.standard_normal(a.n_rows)
        ref = np.linalg.solve(a.to_dense(), r)
        np.testing.assert_allclose(m.apply(r), ref, rtol=1e-7, atol=1e-9)

    @given(small_spd())
    @settings(max_examples=40, deadline=None)
    def test_batched_apply_bitwise_matches_vector_path(self, a):
        m = SPAIPreconditioner(a, k=1)
        rng = np.random.default_rng(1)
        block = rng.standard_normal((a.n_rows, 3))
        out = m.apply(block)
        assert out.shape == block.shape
        for j in range(block.shape[1]):
            assert np.array_equal(out[:, j], m.apply(block[:, j]))

    def test_zero_sync_barriers(self, poisson16):
        m = SPAIPreconditioner(poisson16)
        assert m.apply_levels() == (1, 0)
        assert m.apply_sync_barriers() == 0
        prof = m.spmv_profile()
        assert len(prof) == 1
        assert prof[0][0] == poisson16.n_rows

    def test_setup_profile_shape(self, poisson16):
        prof = SPAIPreconditioner(poisson16).setup_profile()
        assert prof["n_rows"] == poisson16.n_rows
        assert prof["flops"] > 0 and prof["bytes"] > 0

    def test_converges_at_1e8(self, poisson16):
        b = poisson16.matvec(np.ones(poisson16.n_rows))
        res = pcg(poisson16, b, SPAIPreconditioner(poisson16),
                  criterion=CRITERION_1E8)
        assert res.converged


class TestFSAI:
    @given(small_spd())
    @settings(max_examples=40, deadline=None)
    def test_preserves_spd(self, a):
        # M^-1 = G^T G is SPD by construction: its dense form must have
        # strictly positive eigenvalues.
        m = FSAIPreconditioner(a, k=1)
        g = m.factor.to_dense()
        eigs = np.linalg.eigvalsh(g.T @ g)
        assert np.all(eigs > 0.0)

    @given(small_spd())
    @settings(max_examples=40, deadline=None)
    def test_full_pattern_recovers_dense_inverse(self, a):
        m = FSAIPreconditioner(a, k=a.n_rows)
        rng = np.random.default_rng(2)
        r = rng.standard_normal(a.n_rows)
        ref = np.linalg.solve(a.to_dense(), r)
        np.testing.assert_allclose(m.apply(r), ref, rtol=1e-7, atol=1e-9)

    @given(small_spd())
    @settings(max_examples=40, deadline=None)
    def test_batched_apply_bitwise_matches_vector_path(self, a):
        m = FSAIPreconditioner(a, k=1)
        rng = np.random.default_rng(3)
        block = rng.standard_normal((a.n_rows, 4))
        out = m.apply(block)
        for j in range(block.shape[1]):
            assert np.array_equal(out[:, j], m.apply(block[:, j]))

    def test_rejects_indefinite_matrix(self):
        dense = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(NotPositiveDefiniteError):
            FSAIPreconditioner(CSRMatrix.from_dense(dense), k=2)

    def test_zero_sync_barriers(self, poisson16):
        m = FSAIPreconditioner(poisson16)
        assert m.apply_levels() == (1, 1)
        assert m.apply_sync_barriers() == 0
        assert len(m.spmv_profile()) == 2

    def test_converges_at_1e8(self, poisson16, spd_random):
        for a in (poisson16, spd_random):
            b = a.matvec(np.ones(a.n_rows))
            res = pcg(a, b, FSAIPreconditioner(a), criterion=CRITERION_1E8)
            assert res.converged


class TestRegistryAndPlan:
    def test_make_preconditioner_builds_both_kinds(self, poisson16):
        for kind, cls in (("spai", SPAIPreconditioner),
                          ("fsai", FSAIPreconditioner)):
            m = make_preconditioner(poisson16, kind, cache=False)
            assert isinstance(m, cls)
            assert m.apply_sync_barriers() == 0

    def test_ilu_still_reports_barriers(self, poisson16):
        m = make_preconditioner(poisson16, "ilu0", cache=False)
        assert m.apply_sync_barriers() > 0

    def test_plan_covers_candidates_and_picks_winner(self, poisson16):
        plan = plan_preconditioner(poisson16)
        kinds = {c.kind for c in plan.candidates}
        assert kinds == {"ilu0", "spai", "fsai"}
        assert plan.kind in kinds
        win = plan.winner
        assert win.converged
        assert win.total_seconds == min(c.total_seconds
                                        for c in plan.candidates)
        for kind in AINV_KINDS:
            assert plan.candidate(kind).apply_sync_barriers == 0

    def test_plan_survives_failing_candidate(self):
        # An indefinite matrix kills FSAI; the plan must keep the
        # failed candidate (at infinite cost) rather than raise.
        dense = np.array([[1.0, 2.0, 0.0],
                          [2.0, 1.0, 0.0],
                          [0.0, 0.0, 3.0]])
        a = CSRMatrix.from_dense(dense)
        plan = plan_preconditioner(a, candidates=("fsai",))
        c = plan.candidate("fsai")
        assert not c.converged
        assert c.total_seconds == float("inf")

    def test_crossover_builds_each_ilu0_once(self, monkeypatch):
        # The probe solves do not depend on the device: the three
        # sync-scaled devices of one category share one ILU(0) of Â.
        from repro.harness import run_spai_crossover
        from repro.perf.cache import ArtifactCache, use_cache
        from repro.precond import ILU0Preconditioner

        builds = []
        init = ILU0Preconditioner.__init__

        def counted(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ILU0Preconditioner, "__init__", counted)
        with use_cache(ArtifactCache()):
            res = run_spai_crossover(n=220, categories=("thermal", "cfd"))
        assert len(res.points) == 6
        assert len({p.plan.device for p in res.points}) == 3
        assert len(builds) == 2

    def test_spcg_suite_matrix_converges(self):
        # The acceptance bar: a tier-1 suite matrix at the 1e-8
        # criterion through the registry path, both ainv kinds.
        a = generate("thermal", 220, 100)
        b = a.matvec(np.ones(a.n_rows))
        for kind in AINV_KINDS:
            m = make_preconditioner(a, kind, cache=False)
            res = pcg(a, b, m, criterion=CRITERION_1E8)
            assert res.converged, kind
