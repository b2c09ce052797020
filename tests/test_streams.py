"""Tests for :mod:`repro.streams` — solve sessions, warm starts,
staleness-gated factor reuse, Krylov recycling — plus the warm-start
(``x0``) plumbing through the request path."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.spcg import make_preconditioner
from repro.errors import AbortSolve, InvalidRequestError, ShapeError
from repro.precond import ILU0Preconditioner, JacobiPreconditioner
from repro.perf.fingerprint import (matrix_fingerprint,
                                    structure_fingerprint)
from repro.solvers.cg import pcg
from repro.solvers.stopping import StoppingCriterion
from repro.sparse import is_symmetric, stencil_poisson_2d
from repro.streams import (DriftSchedule, RecycleBasis, SolveSession,
                           StalenessConfig, decide_staleness, harvest_ritz,
                           perturb_spd, recycling_pcg)

CRIT = StoppingCriterion(rtol=1e-10, atol=0.0, max_iters=500)


# ---------------------------------------------------------------------
# Satellite bugfix: non-finite warm starts must be rejected up front.
# ---------------------------------------------------------------------
class TestNonFiniteX0Rejected:
    """Regression: before the fix, a NaN/Inf ``x0`` flowed straight
    into the iteration and silently poisoned every iterate."""

    def test_pcg_rejects_nan_x0(self, poisson16, make_rng):
        b = make_rng().standard_normal(poisson16.n_rows)
        x0 = np.zeros(poisson16.n_rows)
        x0[3] = np.nan
        with pytest.raises(InvalidRequestError):
            pcg(poisson16, b, criterion=CRIT, x0=x0)

    def test_pcg_rejects_inf_x0(self, poisson16, make_rng):
        b = make_rng().standard_normal(poisson16.n_rows)
        x0 = np.full(poisson16.n_rows, np.inf)
        with pytest.raises(InvalidRequestError):
            pcg(poisson16, b, criterion=CRIT, x0=x0)

    def test_pcg_block_rejects_nan_x0(self, poisson16, make_rng):
        from repro.batch import pcg_block

        class CountingJacobi(JacobiPreconditioner):
            applies = 0

            def apply(self, r, out=None):
                self.applies += 1
                return super().apply(r, out)

        m = CountingJacobi(poisson16)
        x0 = make_rng().standard_normal((poisson16.n_rows, 2))
        x0[5, 1] = np.nan
        b = make_rng(1).standard_normal((poisson16.n_rows, 2))
        with pytest.raises(InvalidRequestError):
            pcg_block(poisson16, b, m, criterion=CRIT, x0=x0)
        # Rejected before any operator ran; a finite x0 does apply M.
        assert m.applies == 0
        x0[5, 1] = 0.0
        pcg_block(poisson16, b, m, criterion=CRIT, x0=x0)
        assert m.applies > 0

    def test_recycling_pcg_rejects_nan_x0(self, poisson16, make_rng):
        b = make_rng().standard_normal(poisson16.n_rows)
        x0 = np.zeros(poisson16.n_rows)
        x0[0] = np.nan
        with pytest.raises(InvalidRequestError):
            recycling_pcg(poisson16, b, criterion=CRIT, x0=x0)

    def test_finite_x0_still_accepted(self, poisson16, make_rng):
        b = make_rng().standard_normal(poisson16.n_rows)
        res = pcg(poisson16, b, ILU0Preconditioner(poisson16),
                  criterion=CRIT, x0=np.ones(poisson16.n_rows))
        assert res.converged


# ---------------------------------------------------------------------
# Satellite: x0 through the request path (service + scheduler).
# ---------------------------------------------------------------------
class TestRequestPathX0:
    def test_service_submit_accepts_x0(self, poisson16, make_rng):
        from repro.batch import SolverService

        rng = make_rng()
        b = rng.standard_normal(poisson16.n_rows)
        exact = pcg(poisson16, b, ILU0Preconditioner(poisson16),
                    criterion=CRIT)
        svc = SolverService(preconditioner="ilu0", criterion=CRIT)
        h = svc.submit(poisson16, b, x0=exact.x)
        rep = svc.flush()
        res = rep.results[h]
        assert res.converged
        # Warm-started from the exact solution: converges immediately.
        assert res.n_iters == 0

    def test_scheduler_submit_accepts_x0(self, poisson16, make_rng):
        from repro.serve import ServeScheduler

        rng = make_rng()
        b = rng.standard_normal(poisson16.n_rows)
        exact = pcg(poisson16, b, ILU0Preconditioner(poisson16),
                    criterion=CRIT)
        sched = ServeScheduler(criterion=CRIT)
        rid = sched.submit(poisson16, b, x0=exact.x)
        rep = sched.run()
        out = [o for o in rep.outcomes if o.req_id == rid][0]
        assert out.result.converged
        assert out.result.n_iters == 0

    def test_service_submit_rejects_bad_x0(self, poisson16, make_rng):
        from repro.batch import SolverService

        b = make_rng().standard_normal(poisson16.n_rows)
        svc = SolverService(criterion=CRIT)
        with pytest.raises(ShapeError):
            svc.submit(poisson16, b, x0=np.zeros(7))
        bad = np.zeros(poisson16.n_rows)
        bad[0] = np.inf
        with pytest.raises(InvalidRequestError):
            svc.submit(poisson16, b, x0=bad)

    def test_scheduler_submit_rejects_nan_x0(self, poisson16, make_rng):
        from repro.serve import ServeScheduler

        b = make_rng().standard_normal(poisson16.n_rows)
        bad = np.zeros(poisson16.n_rows)
        bad[-1] = np.nan
        with pytest.raises(InvalidRequestError):
            ServeScheduler(criterion=CRIT).submit(poisson16, b, x0=bad)


# ---------------------------------------------------------------------
# SPD-preserving drift.
# ---------------------------------------------------------------------
class TestPerturbSpd:
    def test_preserves_structure_and_spd(self, poisson16):
        drifted = perturb_spd(poisson16, 0.3, seed=5)
        assert structure_fingerprint(drifted) == \
            structure_fingerprint(poisson16)
        assert matrix_fingerprint(drifted) != \
            matrix_fingerprint(poisson16)
        assert is_symmetric(drifted, tol=1e-12)
        evals = np.linalg.eigvalsh(drifted.to_dense())
        assert evals.min() > 0

    def test_seeded_reproducible(self, poisson16):
        d1 = perturb_spd(poisson16, 1e-3, seed=9)
        d2 = perturb_spd(poisson16, 1e-3, seed=9)
        assert np.array_equal(d1.data, d2.data)
        d3 = perturb_spd(poisson16, 1e-3, seed=10)
        assert not np.array_equal(d1.data, d3.data)

    def test_matrix_built_after_its_drift(self, poisson16):
        """A matrix is read-only and memoizes its fingerprints, so
        ``perturb_spd`` finishes the drifted values before it builds the
        matrix: one whose fingerprint is taken the moment it is built
        still hashes the drifted values.  The drift itself is pinned
        bitwise by its digest."""
        import repro.streams.drift as drift_module
        from repro.sparse import CSRMatrix

        def hashed_when_built(*args, **kwargs):
            m = CSRMatrix(*args, **kwargs)
            matrix_fingerprint(m)
            return m

        with mock.patch.object(drift_module, "CSRMatrix",
                               side_effect=hashed_when_built):
            d = perturb_spd(poisson16, 0.05, seed=3)
        fresh = CSRMatrix(d.indptr.copy(), d.indices.copy(),
                          d.data.copy(), d.shape)
        assert matrix_fingerprint(d) == matrix_fingerprint(fresh) \
            == "ffb91f0bb851c3a596be1b8c3eb8dd74"

    def test_zero_magnitude_is_identity(self, poisson16):
        d = perturb_spd(poisson16, 0.0, seed=1)
        assert np.array_equal(d.data, poisson16.data)
        assert d.data is not poisson16.data

    def test_rejects_non_square(self, make_rng):
        from tests.conftest import random_csr

        rect = random_csr(make_rng(), 6, 9, density=0.5)
        with pytest.raises(ShapeError):
            perturb_spd(rect, 1e-3, seed=0)

    def test_schedule_shocks_and_period(self):
        sched = DriftSchedule(seed=0, magnitude=1e-4, period=2,
                              shock_every=3, shock_magnitude=0.7)
        assert sched.magnitude_at(1) == 0.0          # off-period
        assert sched.magnitude_at(2) == 1e-4
        assert sched.magnitude_at(12) == 0.7         # 6th drifted step
        with pytest.raises(ValueError):
            DriftSchedule(period=0)


# ---------------------------------------------------------------------
# The staleness detector.
# ---------------------------------------------------------------------
class TestStalenessDetector:
    KW = dict(base_iters=50.0, iter_seconds=1e-3, check_seconds=1e-5,
              factor_seconds=5e-3, sparsify_seconds=2e-2)

    def test_tiny_drift_reuses(self):
        d = decide_staleness(StalenessConfig(), drift=1e-6,
                             structure_changed=False, **self.KW)
        assert d.action == "reuse"

    def test_moderate_drift_refreshes(self):
        # Drift where reuse's inflated iterations exceed a factor sweep
        # but a full sparsify is still not worth it.
        d = decide_staleness(StalenessConfig(), drift=5e-3,
                             structure_changed=False, **self.KW)
        assert d.action == "refresh"

    def test_large_drift_refactors(self):
        d = decide_staleness(StalenessConfig(), drift=0.8,
                             structure_changed=False, **self.KW)
        assert d.action == "refactor"

    def test_structure_change_mandates_refactor(self):
        d = decide_staleness(StalenessConfig(), drift=0.0,
                             structure_changed=True, **self.KW)
        assert d.action == "refactor"
        assert d.structure_changed

    def test_force_overrides_argmin(self):
        d = decide_staleness(StalenessConfig(force="refactor"),
                             drift=0.0, structure_changed=False,
                             **self.KW)
        assert d.action == "refactor" and d.forced

    def test_costs_monotone_in_drift(self):
        lo = decide_staleness(StalenessConfig(), drift=1e-4,
                              structure_changed=False, **self.KW)
        hi = decide_staleness(StalenessConfig(), drift=1e-1,
                              structure_changed=False, **self.KW)
        assert hi.modeled_costs["reuse"] > lo.modeled_costs["reuse"]
        # Refactor ignores drift entirely (fresh values).
        assert hi.modeled_costs["refactor"] == \
            pytest.approx(lo.modeled_costs["refactor"])

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            StalenessConfig(force="rebuild")
        with pytest.raises(ValueError):
            StalenessConfig(kappa_reuse=1.0, kappa_refresh=2.0)

    def test_session_reuses_on_identical_stream(self, poisson16,
                                                make_rng):
        """Property: an identical-matrix stream never rebuilds."""
        rng = make_rng()
        session = SolveSession(preconditioner="ilu0", criterion=CRIT)
        for _ in range(5):
            session.step(poisson16, rng.standard_normal(poisson16.n_rows))
        actions = [s.action for s in session.report.steps]
        assert actions[0] == "setup"
        assert all(a == "reuse" for a in actions[1:])
        assert all(s.drift == 0.0 for s in session.report.steps)

    def test_session_tiny_drift_reuses_large_refactors(self, poisson16,
                                                       make_rng):
        rng = make_rng()
        session = SolveSession(preconditioner="ilu0", criterion=CRIT)
        b = rng.standard_normal(poisson16.n_rows)
        session.step(poisson16, b)
        tiny = perturb_spd(poisson16, 1e-7, seed=2)
        rec = session.step(tiny, b)
        assert rec.action == "reuse"
        assert 0 < rec.drift < 1e-5
        shocked = perturb_spd(tiny, 0.5, seed=3)
        rec = session.step(shocked, b)
        assert rec.action == "refactor"
        assert rec.drift > 1e-2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_session_seeded_perturbations_stay_verified(self, poisson16,
                                                        make_rng, seed):
        rng = make_rng(seed)
        sched = DriftSchedule(seed=seed, magnitude=1e-5, shock_every=3)
        session = SolveSession(preconditioner="ilu0", criterion=CRIT)
        a = poisson16
        b = rng.standard_normal(a.n_rows)
        for s in range(1, 7):
            a = sched.evolve(a, s)
            rec = session.step(a, b)
            assert rec.converged and rec.verified
        assert session.report.all_verified


# ---------------------------------------------------------------------
# Krylov recycling.
# ---------------------------------------------------------------------
class TestRecycling:
    def test_deflator_keeps_aw_c_ordered_and_bitwise(self, poisson16,
                                                     make_rng):
        """``AW`` stays C-ordered although the block SpMV returns
        column-major blocks: its layout picks the BLAS kernel of every
        product with it, so a layout change moves the deflated
        iterates in the last digits.  Each column is ``A w_j``."""
        from repro.streams.recycle import _Deflator

        q, _ = np.linalg.qr(make_rng().standard_normal(
            (poisson16.n_rows, 4)))
        for w in (q, np.ascontiguousarray(q), np.asfortranarray(q)):
            aw = _Deflator(poisson16, w).aw
            assert aw.flags.c_contiguous
            for j in range(w.shape[1]):
                col = poisson16.matvec(np.ascontiguousarray(w[:, j]))
                assert np.array_equal(aw[:, j].view(np.int64),
                                      col.view(np.int64))

    def test_empty_basis_is_bitwise_pcg(self, poisson16, make_rng):
        b = make_rng().standard_normal(poisson16.n_rows)
        m = ILU0Preconditioner(poisson16)
        plain = pcg(poisson16, b, m, criterion=CRIT)
        res, basis = recycling_pcg(poisson16, b, m, criterion=CRIT)
        assert basis is None
        assert res.n_iters == plain.n_iters
        assert np.array_equal(res.x, plain.x)
        assert np.array_equal(res.residual_norms, plain.residual_norms)

    @given(side=st.integers(3, 9), seed=st.integers(0, 2 ** 31 - 1),
           kind=st.sampled_from([None, "jacobi", "ilu0"]),
           empty_basis=st.booleans(), harvest=st.sampled_from([0, 3]),
           warm=st.booleans(),
           abort_at=st.one_of(st.none(), st.integers(0, 25)))
    @settings(max_examples=60, deadline=None)
    def test_without_basis_is_bitwise_pcg(self, side, seed, kind,
                                          empty_basis, harvest, warm,
                                          abort_at):
        """With no basis to deflate, recycling runs ``pcg``'s loop
        unchanged: same iterate, history, count and reason, whether or
        not it harvests, from a cold or warm start, and when a callback
        aborts the solve."""
        a = stencil_poisson_2d(side)
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(a.n_rows)
        x0 = rng.standard_normal(a.n_rows) if warm else None
        m = None if kind is None else make_preconditioner(a, kind,
                                                          cache=False)
        basis = (RecycleBasis(w=np.zeros((a.n_rows, 0)),
                              ritz_values=np.zeros(0), source_iters=0)
                 if empty_basis else None)

        def callback(k, r_norm):
            if k == abort_at:
                raise AbortSolve(f"stop at iteration {k}")

        plain = pcg(a, b, m, x0=x0, criterion=CRIT, callback=callback)
        res, _ = recycling_pcg(a, b, m, x0=x0, basis=basis,
                               harvest=harvest, criterion=CRIT,
                               callback=callback)
        assert res.n_iters == plain.n_iters
        assert res.reason is plain.reason
        assert np.array_equal(res.x, plain.x)
        assert np.array_equal(res.residual_norms, plain.residual_norms)

    def test_records_lanczos_vectors_only_when_harvesting(
            self, poisson16, make_rng, monkeypatch):
        from repro.streams import recycle

        made = []

        class Spy(recycle._Lanczos):
            def __init__(self, max_store):
                super().__init__(max_store)
                made.append(self)

        monkeypatch.setattr(recycle, "_Lanczos", Spy)
        b = make_rng().standard_normal(poisson16.n_rows)
        recycling_pcg(poisson16, b, criterion=CRIT)
        assert made == []
        _, basis = recycling_pcg(poisson16, b, harvest=3, criterion=CRIT)
        assert basis is not None and len(made) == 1
        assert 2 <= len(made[0].vectors) <= recycle.DEFAULT_MAX_STORE

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_deflated_matches_pcg_and_never_iterates_more(
            self, poisson16, make_rng, seed):
        """The ISSUE's recycling contract, property-tested: on an
        identical-matrix stream, deflated solves match plain ``pcg``
        to 1e-8 and take no more iterations."""
        rng = make_rng(seed)
        m = ILU0Preconditioner(poisson16)
        basis = None
        for _ in range(4):
            b = rng.standard_normal(poisson16.n_rows)
            plain = pcg(poisson16, b, m, criterion=CRIT)
            defl, new = recycling_pcg(poisson16, b, m, basis=basis,
                                      harvest=6, criterion=CRIT)
            if new is not None:
                basis = new
            rel = (np.linalg.norm(defl.x - plain.x)
                   / np.linalg.norm(plain.x))
            assert rel < 1e-8
            assert defl.n_iters <= plain.n_iters

    def test_basis_accumulates_across_solves(self, poisson16, make_rng):
        rng = make_rng()
        m = ILU0Preconditioner(poisson16)
        b = rng.standard_normal(poisson16.n_rows)
        _, b1 = recycling_pcg(poisson16, b, m, harvest=4, criterion=CRIT)
        _, b2 = recycling_pcg(poisson16, rng.standard_normal(
            poisson16.n_rows), m, basis=b1, harvest=4, criterion=CRIT)
        assert b2.size > b1.size  # union, not replacement
        # Accumulated basis stays orthonormal.
        g = b2.w.T @ b2.w
        assert np.allclose(g, np.eye(b2.size), atol=1e-10)

    def test_harvest_needs_two_iterations(self):
        assert harvest_ritz([0.5], [], [np.ones(4)], 4, 1) is None
        assert harvest_ritz([], [], [], 4, 0) is None

    def test_harvested_ritz_values_approximate_spectrum(self, make_rng):
        """On an identity-preconditioned small SPD matrix the smallest
        Ritz value from a converged solve approximates λ_min(A)."""
        a = stencil_poisson_2d(8)
        b = make_rng().standard_normal(a.n_rows)
        _, basis = recycling_pcg(a, b, harvest=4, max_store=200,
                                 criterion=CRIT)
        evals = np.linalg.eigvalsh(a.to_dense())
        assert basis is not None
        assert basis.ritz_values[0] == pytest.approx(evals[0], rel=1e-3)

    def test_mismatched_basis_length_raises(self, poisson16, make_rng):
        from repro.streams import RecycleBasis

        bad = RecycleBasis(w=np.eye(7, 2), ritz_values=np.ones(2),
                           source_iters=3)
        with pytest.raises(ShapeError):
            recycling_pcg(poisson16,
                          make_rng().standard_normal(poisson16.n_rows),
                          basis=bad, criterion=CRIT)


# ---------------------------------------------------------------------
# The session end-to-end.
# ---------------------------------------------------------------------
class TestSolveSession:
    def test_warm_session_beats_cold_on_steady_stream(self, make_rng):
        from repro.harness import build_heat_stream_operator

        a = build_heat_stream_operator(10, 10.0)
        n = a.n_rows
        f = np.zeros(n)
        f[n // 2] = 50.0
        warm = SolveSession(preconditioner="ilu0", criterion=CRIT)
        cold = SolveSession(preconditioner="ilu0", criterion=CRIT,
                            warm_start=False, recycle=0,
                            staleness=StalenessConfig(force="refactor"))
        for session in (warm, cold):
            u = np.zeros(n)
            for s in range(8):
                rec = session.step(a, u / 10.0 + f, tag=f"t{s}")
                u = rec.result.x
        assert warm.report.all_verified and cold.report.all_verified
        assert warm.report.total_iterations < \
            cold.report.total_iterations
        assert warm.report.modeled_seconds < cold.report.modeled_seconds

    def test_step_records_and_metrics(self, poisson16, make_rng,
                                      _fresh_metrics):
        session = SolveSession(preconditioner="ilu0", criterion=CRIT)
        b = make_rng().standard_normal(poisson16.n_rows)
        r1 = session.step(poisson16, b, tag="a")
        r2 = session.step(poisson16, b, tag="b")
        assert r1.action == "setup" and r2.action == "reuse"
        assert r2.warm_started and not r1.warm_started
        assert r2.n_iters == 0  # same b, warm start is already exact
        assert "setup_s" in r1.modeled and "check_s" in r2.modeled
        assert _fresh_metrics.counter("stream.steps") == 2
        assert _fresh_metrics.counter("stream.actions.setup") == 1
        assert _fresh_metrics.counter("stream.actions.reuse") == 1

    def test_session_emits_trace_events(self, poisson16, make_rng):
        from repro.obs import TraceRecorder, use_recorder

        rec = TraceRecorder()
        with use_recorder(rec):
            session = SolveSession(preconditioner="ilu0", criterion=CRIT)
            b = make_rng().standard_normal(poisson16.n_rows)
            session.step(poisson16, b)
            session.step(poisson16, b)
        kinds = [e.kind for e in rec.events()]
        assert "session_start" in kinds
        assert kinds.count("session_step") == 2
        assert "staleness" in kinds

    def test_replays_identically(self, poisson16, make_rng):
        # A seeded drifting stream with shocks: two sessions take the
        # same actions and iterations and return the same bits.
        drift = DriftSchedule(seed=3, magnitude=1e-6, shock_every=3,
                              shock_magnitude=0.3)
        b = make_rng(47).standard_normal(poisson16.n_rows)

        def replay():
            session = SolveSession(preconditioner="ilu0", criterion=CRIT)
            a, steps = poisson16, []
            for s in range(1, 8):
                a = drift.evolve(a, s)
                rec = session.step(a, b, tag=f"t{s}")
                steps.append((rec.action, rec.n_iters, rec.deflated,
                              rec.verified, rec.result.x.tobytes()))
            return steps

        first = replay()
        assert first == replay()
        assert {"setup", "reuse"} <= {step[0] for step in first}
        assert len({step[0] for step in first}) >= 3

    def test_rejects_bad_inputs(self, poisson16):
        session = SolveSession(criterion=CRIT)
        with pytest.raises(ShapeError):
            session.step(poisson16, np.zeros(5))
        with pytest.raises(ValueError):
            SolveSession(recycle=-1)

    @pytest.mark.parametrize("name", ["heat", "thermal_900_s100",
                                      "structural_2500_s104"])
    def test_pattern_positions_match_per_row_search(self, name):
        """The one global ``searchsorted`` finds the positions the
        per-row search did, for Algorithm 2's kept pattern and for
        entries ``A`` does not store (their insertion points)."""
        from repro.core import wavefront_aware_sparsify
        from repro.datasets import load
        from repro.harness import build_heat_stream_operator
        from repro.sparse import CSRMatrix

        def per_row(a, a_hat):
            pos = np.empty(a_hat.nnz, dtype=np.int64)
            for i in range(a.n_rows):
                b0, b1 = a.indptr[i], a.indptr[i + 1]
                h0, h1 = a_hat.indptr[i], a_hat.indptr[i + 1]
                pos[h0:h1] = b0 + np.searchsorted(a.indices[b0:b1],
                                                  a_hat.indices[h0:h1])
            return pos

        a = (build_heat_stream_operator(50, 20.0) if name == "heat"
             else load(name))
        a_hat = wavefront_aware_sparsify(a).a_hat
        pos = SolveSession._pattern_positions(a, a_hat)
        assert np.array_equal(pos, per_row(a, a_hat))
        assert np.array_equal(a.data[pos], a_hat.data)
        # A dense pattern holds every stored entry and every hole.
        n = min(a.n_rows, 60)
        sub = CSRMatrix.from_dense(a.to_dense()[:n, :n])
        full = CSRMatrix.from_dense(np.ones((n, n)))
        assert np.array_equal(SolveSession._pattern_positions(sub, full),
                              per_row(sub, full))


# ---------------------------------------------------------------------
# The macro-benchmark harness (tiny smoke; full scale in benchmarks/).
# ---------------------------------------------------------------------
class TestStreamStudy:
    def test_tiny_study_amortizes_and_verifies(self):
        from repro.harness import run_stream_study

        res = run_stream_study(side=10, n_steps=10, seed=0)
        assert res.all_verified
        assert res.warm_iterations < res.cold_iterations
        assert res.speedup > 1.0
        assert res.deflation_mismatch < 1e-8
        assert res.deflation_iter_excess <= 0
        text = res.summary()
        assert "speedup" in text and "amortization" in text
