"""Tests for repro.batch — block PCG, batched pricing, solver service.

The load-bearing invariant: a batched solve is *semantically invisible*.
Every column of :func:`pcg_block` must equal the sequential
:func:`~repro.solvers.cg.pcg` run on that column alone, bitwise — same
termination reason, iteration count, residual history and iterate —
while the machine model prices the block strictly cheaper per RHS than
solo solves.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.batch import (BatchReport, SlotDecision, SolveRequest,
                         SolverService, pcg_block)
from repro.errors import AbortSolve, ShapeError
from repro.datasets import load
from repro.harness import run_batch_scaling
from repro.machine import (A100, EPYC_7413, iteration_cost, time_dot,
                           time_spmv, time_trisolve)
from repro.obs import TraceRecorder, get_metrics, use_recorder
from repro.perf.fingerprint import matrix_fingerprint
from repro.precond import (FSAIPreconditioner, IC0Preconditioner,
                           ILU0Preconditioner, ILUKPreconditioner,
                           ILUTPreconditioner, JacobiPreconditioner,
                           SPAIPreconditioner, ScheduledTriangularSolver)
from repro.solvers import StoppingCriterion, TerminationReason, pcg
from repro.sparse import CSRMatrix, diags, stencil_poisson_2d

from test_properties import dense_matrix


def _assert_same_solve(col, seq, label=""):
    """*col* and *seq* are the same solve, bitwise."""
    assert col.reason == seq.reason, label
    assert col.n_iters == seq.n_iters, label
    assert col.converged == seq.converged, label
    np.testing.assert_array_equal(col.residual_norms, seq.residual_norms,
                                  err_msg=label)
    np.testing.assert_array_equal(col.x, seq.x, err_msg=label)
    assert col.tolerance == seq.tolerance, label


def _assert_columns_match_sequential(a, b_block, make_precond,
                                     criterion=None):
    """Each column of the block result must equal a fresh sequential
    pcg on that column, bitwise (reason, iterations, histories,
    iterates, tolerance)."""
    blk = pcg_block(a, b_block, make_precond(), criterion=criterion)
    assert blk.batch == b_block.shape[1]
    for j in range(b_block.shape[1]):
        seq = pcg(a, b_block[:, j], make_precond(), criterion=criterion)
        _assert_same_solve(blk.column(j), seq, f"column {j}")
    return blk


class TestBlockMatchesSequential:
    @pytest.mark.parametrize("nb", [1, 2, 5])
    def test_poisson_ilu0(self, poisson16, make_rng, nb):
        rng = make_rng(nb)
        b = rng.standard_normal((poisson16.n_rows, nb))
        _assert_columns_match_sequential(
            poisson16, b, lambda: ILU0Preconditioner(poisson16))

    @pytest.mark.parametrize("nb", [2, 5])
    def test_poisson_jacobi(self, poisson16, make_rng, nb):
        rng = make_rng(10 + nb)
        b = rng.standard_normal((poisson16.n_rows, nb))
        _assert_columns_match_sequential(
            poisson16, b, lambda: JacobiPreconditioner(poisson16))

    def test_poisson_ic0(self, poisson16, make_rng):
        b = make_rng(20).standard_normal((poisson16.n_rows, 3))
        _assert_columns_match_sequential(
            poisson16, b, lambda: IC0Preconditioner(poisson16))

    def test_poisson_fsai(self, poisson16, make_rng):
        # The barrier-free family: two SpMVs per apply, no sweeps.
        b = make_rng(21).standard_normal((poisson16.n_rows, 3))
        _assert_columns_match_sequential(
            poisson16, b, lambda: FSAIPreconditioner(poisson16))

    @given(dense_matrix(max_n=20, spd=True), st.sampled_from([1, 2, 5]),
           st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_property_identity_precond(self, dense, nb, seed):
        a = CSRMatrix.from_dense(dense)
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((a.n_rows, nb))
        _assert_columns_match_sequential(a, b, lambda: None)

    @given(dense_matrix(max_n=20, spd=True), st.sampled_from([2, 5]),
           st.integers(0, 2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_property_ilu0_precond(self, dense, nb, seed):
        a = CSRMatrix.from_dense(dense)
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((a.n_rows, nb))
        _assert_columns_match_sequential(
            a, b, lambda: ILU0Preconditioner(a))

    def test_mixed_terminations_in_one_block(self):
        # diag(1, -1, 2): the -1 eigendirection has negative curvature.
        # Column 0 (all zeros) converges at iteration 0; column 1 (e2)
        # hits p·Ap < 0 -> INDEFINITE; column 2 lives in the positive
        # eigenspace and converges.  One block, three destinies.
        a = diags({0: np.array([1.0, -1.0, 2.0])}, 3)
        b = np.zeros((3, 3))
        b[1, 1] = 1.0      # e2 -> indefinite direction
        b[0, 2] = 1.0      # e1 -> converges in one step
        blk = _assert_columns_match_sequential(a, b, lambda: None)
        assert blk.reasons[0] == TerminationReason.CONVERGED
        assert blk.n_iters[0] == 0
        assert blk.reasons[1] == TerminationReason.INDEFINITE
        assert blk.reasons[2] == TerminationReason.CONVERGED
        assert not blk.all_converged
        assert blk.converged.tolist() == [True, False, True]

    def test_frozen_column_rides_along(self, poisson16, make_rng):
        # One column converges immediately (b = 0) while the other needs
        # real iterations: the frozen column's history must stop at
        # length 1 and its solution must stay exactly zero.
        rng = make_rng(31)
        b = np.zeros((poisson16.n_rows, 2))
        b[:, 1] = rng.standard_normal(poisson16.n_rows)
        blk = pcg_block(poisson16, b, ILU0Preconditioner(poisson16))
        assert blk.n_iters[0] == 0
        assert len(blk.residual_norms[0]) == 1
        np.testing.assert_array_equal(blk.x[:, 0], 0.0)
        assert blk.n_iters[1] > 0
        assert blk.converged.all()

    def test_max_iterations(self, poisson16, make_rng):
        crit = StoppingCriterion(rtol=0.0, atol=1e-300, max_iters=3)
        b = make_rng(32).standard_normal((poisson16.n_rows, 2))
        blk = _assert_columns_match_sequential(
            poisson16, b, lambda: None, criterion=crit)
        assert all(r == TerminationReason.MAX_ITERATIONS
                   for r in blk.reasons)
        assert blk.n_iters.tolist() == [3, 3]

    def test_callback_abort_marks_active_columns(self, poisson16, make_rng):
        b = make_rng(33).standard_normal((poisson16.n_rows, 2))

        def guard(k, r_norms):
            assert r_norms.shape == (2,)
            if k >= 2:
                raise AbortSolve("enough")

        blk = pcg_block(poisson16, b, callback=guard)
        assert all(r == TerminationReason.GUARD_TRIPPED
                   for r in blk.reasons)
        assert blk.n_iters.tolist() == [2, 2]
        assert isinstance(blk.column(0).extra["abort"], AbortSolve)

    def test_one_dim_rhs_promoted(self, poisson16, make_rng):
        b = make_rng(34).standard_normal(poisson16.n_rows)
        blk = pcg_block(poisson16, b)
        assert blk.batch == 1
        seq = pcg(poisson16, b)
        np.testing.assert_allclose(blk.column(0).x, seq.x, atol=1e-10)

    def test_iterating_block_yields_columns(self, poisson16, make_rng):
        b = make_rng(35).standard_normal((poisson16.n_rows, 3))
        blk = pcg_block(poisson16, b, JacobiPreconditioner(poisson16))
        cols = list(blk)
        assert len(cols) == len(blk) == 3
        assert all(c.converged for c in cols)

    def test_shape_validation(self, poisson16):
        with pytest.raises(ShapeError):
            pcg_block(poisson16, np.ones((7, 2)))
        with pytest.raises(ShapeError):
            pcg_block(poisson16, np.ones((poisson16.n_rows, 0)))
        with pytest.raises(ShapeError):
            pcg_block(poisson16, np.ones((poisson16.n_rows, 2)),
                      x0=np.ones(poisson16.n_rows))
        with pytest.raises(ShapeError):
            pcg_block(poisson16, np.ones((poisson16.n_rows, 2)),
                      x0=np.zeros((poisson16.n_rows, 3)))

    def test_batched_metrics(self, poisson16, make_rng):
        b = make_rng(36).standard_normal((poisson16.n_rows, 4))
        blk = pcg_block(poisson16, b, ILU0Preconditioner(poisson16))
        m = get_metrics()
        assert m.counter("pcg.batched_solves") == 1
        assert m.counter("pcg.batched_rhs") == 4
        assert m.counter("pcg.batched_sweeps") == blk.block_iters


class TestOneKernel:
    """``pcg``, every column of ``pcg_block`` and ``recycling_pcg``
    without a basis run the same iteration, so they agree bitwise —
    whatever the width, the warm starts, the columns that converge at
    iteration 0 and the iteration a callback aborts at."""

    @given(st.integers(1, 8), st.integers(0, 2 ** 31),
           st.sampled_from(["ilu0", "jacobi", None]),
           st.lists(st.sampled_from(["cold", "warm", "zero"]),
                    min_size=8, max_size=8),
           st.one_of(st.none(), st.integers(0, 12)))
    @settings(max_examples=40, deadline=None)
    def test_pcg_block_and_recycling_agree(self, width, seed, kind, kinds,
                                           abort_at):
        from repro.streams import recycling_pcg

        a = stencil_poisson_2d(7)
        n = a.n_rows
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((n, width))
        x0 = np.zeros((n, width))
        for j in range(width):
            if kinds[j] == "zero":
                b[:, j] = 0.0          # converged at iteration 0
            elif kinds[j] == "warm":
                x0[:, j] = rng.standard_normal(n)

        def precond():
            return {"ilu0": ILU0Preconditioner, "jacobi":
                    JacobiPreconditioner}[kind](a) if kind else None

        def guard(k, _norms):
            if k == abort_at:
                raise AbortSolve(f"abort at {k}")

        crit = StoppingCriterion(rtol=1e-10, atol=0.0, max_iters=60)
        cb = guard if abort_at is not None else None
        blk = pcg_block(a, b, precond(), x0=x0, criterion=crit, callback=cb)
        for j in range(width):
            warm = x0[:, j] if kinds[j] == "warm" else None
            seq = pcg(a, b[:, j], precond(), x0=warm, criterion=crit,
                      callback=cb)
            rec, basis = recycling_pcg(a, b[:, j], precond(), x0=warm,
                                       criterion=crit, callback=cb)
            assert basis is None
            _assert_same_solve(blk.column(j), seq, f"block column {j}")
            _assert_same_solve(rec, seq, f"recycling column {j}")

    def test_boundary_view_carries_entering_width(self, poisson16,
                                                  make_rng):
        # A column whose b is NaN breaks down at admission and never
        # takes a slot; the width the next boundary reports leaves it
        # out, as the block's own width record does.
        b = make_rng(42).standard_normal((poisson16.n_rows, 3))
        seen = {}

        def hook(sweep, active, view):
            seen[sweep] = view.width
            if sweep == 2:
                bad = np.full(poisson16.n_rows, np.nan)
                return SlotDecision(admit=[("nan", bad),
                                           ("ok", b[:, 0].copy())])
            return None

        blk = pcg_block(poisson16, b, ILU0Preconditioner(poisson16),
                        slot_hook=hook)
        widths = blk.extra["serve"]["widths"]
        assert seen[1] == 0
        assert [seen[k] for k in range(2, len(widths) + 2)] == widths
        assert widths[:2] == [3, 4]
        nan_col = blk.extra["serve"]["keys"].index("nan")
        assert blk.reasons[nan_col] is TerminationReason.NUMERICAL_BREAKDOWN
        assert blk.n_iters[nan_col] == 0


class TestBatchedApply:
    """2-D right-hand sides through the shared kernels: column j of the
    block result must be *bitwise* the 1-D result on that column."""

    def test_trisolve_block_bitwise(self, make_rng):
        # Width 1 takes the 1-D sweep's own path; width 4 the block path.
        rng = make_rng(40)
        a = stencil_poisson_2d(8)
        m = ILU0Preconditioner(a)
        fwd, bwd = m.solvers()
        for solver in (fwd, bwd):
            for width in (1, 4):
                b = rng.standard_normal((a.n_rows, width))
                xb = solver.solve(b)
                assert xb.shape == b.shape
                for j in range(width):
                    np.testing.assert_array_equal(xb[:, j],
                                                  solver.solve(b[:, j]))
                out = np.empty_like(b)
                assert solver.solve(b, out=out) is out
                np.testing.assert_array_equal(out, xb)

    def test_trisolve_block_out_param(self, fig1_lower, make_rng):
        solver = ScheduledTriangularSolver(fig1_lower, kind="lower")
        b = make_rng(41).standard_normal((4, 3))
        out = np.empty_like(b)
        res = solver.solve(b, out=out)
        assert res is out
        np.testing.assert_array_equal(out[:, 1], solver.solve(b[:, 1]))

    def test_matmat_bitwise_columns(self, poisson16, make_rng):
        x = make_rng(42).standard_normal((poisson16.n_rows, 5))
        y = poisson16.matmat(x)
        for j in range(5):
            np.testing.assert_array_equal(y[:, j],
                                          poisson16.matvec(x[:, j]))

    def test_matmul_operator_dispatches_2d(self, poisson16, make_rng):
        x = make_rng(43).standard_normal((poisson16.n_rows, 2))
        np.testing.assert_array_equal(poisson16 @ x,
                                      poisson16.matmat(x))

    @pytest.mark.parametrize("precond_cls", [
        JacobiPreconditioner, ILU0Preconditioner, ILUKPreconditioner,
        ILUTPreconditioner, IC0Preconditioner, FSAIPreconditioner,
        SPAIPreconditioner])
    def test_preconditioner_apply_block(self, poisson16, make_rng,
                                        precond_cls):
        m = precond_cls(poisson16)
        r = make_rng(44).standard_normal((poisson16.n_rows, 3))
        z = m.apply(r)
        assert z.shape == r.shape
        for j in range(3):
            np.testing.assert_array_equal(z[:, j], m.apply(r[:, j]))


def _bits(u: np.ndarray) -> np.ndarray:
    """*u*'s bit patterns, so ``-0.0`` and ``0.0`` differ."""
    return u.view(np.int64 if u.dtype == np.float64 else np.int32)


def _laid_out(x: np.ndarray, layout: str) -> np.ndarray:
    """*x* as a C-ordered, column-major or doubly strided block."""
    if layout == "C":
        return np.ascontiguousarray(x)
    if layout == "F":
        return np.asfortranarray(x)
    big = np.zeros((2 * x.shape[0], 2 * x.shape[1] + 1), dtype=x.dtype)
    big[::2, 1::2] = x
    return big[::2, 1::2]


class TestColumnMajorBlocks:
    """Blocks are column-major from the SpMV through the CG kernel,
    whatever layout they came in with, and no layout moves a bit."""

    @given(st.integers(1, 30), st.integers(0, 8),
           st.sampled_from([np.float32, np.float64]), st.booleans(),
           st.floats(0.05, 0.9), st.integers(0, 2 ** 31))
    @settings(max_examples=80, deadline=None)
    def test_matmat_any_layout_bitwise_columns(self, n, width, dtype,
                                               empty_rows, density, seed):
        rng = np.random.default_rng(seed)
        dense = rng.standard_normal((n, n))
        dense[rng.random((n, n)) > density] = 0.0
        if empty_rows:
            dense[rng.random(n) < 0.3] = 0.0
        a = CSRMatrix.from_dense(dense.astype(dtype))
        x = rng.standard_normal((n, width)).astype(dtype)
        # Zero operands make -0.0 products, which the bits compare.
        x[rng.random((n, width)) < 0.2] = 0.0
        want = [a.matvec(np.ascontiguousarray(x[:, j]))
                for j in range(width)]
        for layout in ("C", "F", "strided"):
            y = a.matmat(_laid_out(x, layout))
            assert y.shape == (n, width) and y.dtype == dtype
            assert y.flags.f_contiguous
            for j in range(width):
                np.testing.assert_array_equal(_bits(y[:, j]),
                                              _bits(want[j]))

    @pytest.mark.parametrize("make", [
        lambda a: ILU0Preconditioner(a),
        lambda a: ILUKPreconditioner(a, k=2),
        lambda a: ILUTPreconditioner(a),
        lambda a: IC0Preconditioner(a),
        FSAIPreconditioner, SPAIPreconditioner, JacobiPreconditioner],
        ids=["ilu0", "iluk", "ilut", "ic0", "fsai", "spai", "jacobi"])
    def test_preconditioner_apply_any_layout(self, make, make_rng):
        a = stencil_poisson_2d(9)
        m = make(a)
        rng = make_rng(45)
        for width in (1, 2, 8):
            r = rng.standard_normal((a.n_rows, width))
            want = [m.apply(np.ascontiguousarray(r[:, j]))
                    for j in range(width)]
            for layout in ("C", "F", "strided"):
                z = m.apply(_laid_out(r, layout))
                # The CG kernel's blocks come back in its own layout.
                assert z.flags.f_contiguous or layout != "F"
                for j in range(width):
                    np.testing.assert_array_equal(_bits(z[:, j]),
                                                  _bits(want[j]))

    @pytest.mark.parametrize("c_ordered", [False, True])
    def test_working_blocks_stay_column_major(self, poisson16, make_rng,
                                              c_ordered):
        """``x``, ``r`` and ``p`` are column-major after admission,
        after a retire (down to one column), after mid-block joins (one
        fresh column beside the last one; then a warm-started and a
        resumed column) and at every boundary of the run that follows,
        also when the preconditioner hands back C-ordered blocks."""
        from repro.batch.block import CheckpointState
        from repro.solvers.cg import _BlockCG

        class COrdered(ILU0Preconditioner):
            def apply(self, r, out=None):
                return np.ascontiguousarray(super().apply(r, out))

        a, n = poisson16, poisson16.n_rows
        rng = make_rng(46)
        crit = StoppingCriterion(rtol=1e-10, atol=0.0, max_iters=400)
        m = (COrdered if c_ordered else ILU0Preconditioner)(a)
        kern = _BlockCG(a, m, crit, np.dtype(float))

        def column_major():
            return all(u.flags.f_contiguous for u in (kern.x, kern.r,
                                                      kern.p))

        b = rng.standard_normal((n, 4))
        kern.admit(1, [(b[:, j], None) for j in range(4)])
        assert kern.x.shape == (n, 4) and column_major()
        kern.retire([(t, TerminationReason.MAX_ITERATIONS)
                     for t in (0, 2, 3)], 0)
        assert kern.x.shape == (n, 1) and column_major()
        saved = CheckpointState(
            x=kern.x[:, 0].copy(), r=kern.r[:, 0].copy(),
            p=kern.p[:, 0].copy(), rz=kern.rz[0], iters=0,
            history=tuple(kern.histories[kern.idx[0]]))
        kern.admit(1, [(rng.standard_normal(n), None)])
        assert kern.x.shape == (n, 2) and column_major()
        # The warm start is nearly exact, so that column retires first.
        x_true = rng.standard_normal(n)
        near = x_true + 1e-9 * rng.standard_normal(n)
        kern.admit(1, [(a.matvec(x_true), near), (b[:, 1], saved)])
        assert kern.x.shape == (n, 4) and column_major()
        widths = []

        def boundary(k):
            if kern.idx:
                widths.append(len(kern.idx))
                assert column_major(), k

        kern.run(boundary=boundary)
        assert widths[0] == 4 and len(set(widths)) > 1


class TestBatchedPricing:
    def test_batch_one_reproduces_unbatched(self):
        # At batch=1 the batched rules are the single-vector ones: these
        # literals are what the separate single-vector formulas priced,
        # on a matrix whose kernels sit above the latency floor.
        a = load("structural_2500_s104")
        m = ILU0Preconditioner(a)
        rf, nf = m.solvers()[0].kernel_profile()
        assert time_spmv(EPYC_7413, a.n_rows, a.nnz) == 1.101131707317073e-06
        assert time_trisolve(EPYC_7413, rf, nf) == 0.00016199999999999998
        assert iteration_cost(EPYC_7413, a, m).total == 0.0003293011317073171

    def test_per_rhs_cost_strictly_decreases(self, poisson16):
        # The acceptance bar: B=8 per-RHS modeled cost strictly below
        # B=1 on a wavefront-bound matrix, and monotone in between.
        m = ILU0Preconditioner(poisson16)
        per_rhs = [iteration_cost(A100, poisson16, m, nb).total / nb
                   for nb in (1, 2, 4, 8)]
        assert all(b < a for a, b in zip(per_rhs, per_rhs[1:]))
        assert per_rhs[-1] < per_rhs[0]

    def test_total_cost_grows_sublinearly(self, poisson16):
        m = ILU0Preconditioner(poisson16)
        # Overhead-dominated at this size: total block time may not grow
        # at all with B (bodies sit at the min-kernel-time floor), and
        # must never reach B solo iterations.
        t1 = iteration_cost(A100, poisson16, m, 1).total
        t8 = iteration_cost(A100, poisson16, m, 8).total
        assert t1 <= t8 < 8 * t1

    def test_invalid_batch_rejected(self, poisson16):
        m = JacobiPreconditioner(poisson16)
        with pytest.raises(ValueError):
            iteration_cost(A100, poisson16, m, 0)
        with pytest.raises(ValueError):
            time_dot(A100, 10, -1)


class TestSolverService:
    def test_results_in_submission_order(self, make_rng):
        rng = make_rng(50)
        a1, a2 = stencil_poisson_2d(8), stencil_poisson_2d(10)
        svc = SolverService(preconditioner="jacobi")
        expect = []
        # Interleave two matrices so grouping must reorder internally.
        for i in range(6):
            a = a1 if i % 2 == 0 else a2
            b = rng.standard_normal(a.n_rows)
            svc.submit(a, b, tag=f"req{i}")
            expect.append((a, b))
        assert len(svc) == 6
        report = svc.flush()
        assert len(svc) == 0
        assert report.n_requests == 6
        assert report.tags == [f"req{i}" for i in range(6)]
        assert len(report.groups) == 2
        assert sorted(g.batch for g in report.groups) == [3, 3]
        for (a, b), res in zip(expect, report.results):
            seq = pcg(a, b, JacobiPreconditioner(a))
            assert res.reason == seq.reason
            assert res.n_iters == seq.n_iters
            np.testing.assert_allclose(res.x, seq.x, atol=1e-10)
        assert report.all_converged

    def test_one_factorization_per_fingerprint(self, make_rng,
                                               _fresh_artifact_cache):
        rng = make_rng(51)
        cache = _fresh_artifact_cache
        a1, a2 = stencil_poisson_2d(6), stencil_poisson_2d(7)
        svc = SolverService(preconditioner="ilu0")
        for a in (a1, a2, a1, a2, a1):
            svc.submit(a, rng.standard_normal(a.n_rows))
        svc.flush()
        # Two distinct fingerprints -> exactly two factorizations.
        assert cache.stats.misses_by_kind.get("preconditioner") == 2
        # A later flush with a known matrix is a pure cache hit.
        svc.submit(a1, rng.standard_normal(a1.n_rows))
        svc.flush()
        assert cache.stats.misses_by_kind.get("preconditioner") == 2
        assert cache.stats.hits_by_kind.get("preconditioner") == 1

    def test_batch_trace_events_carry_batch_size(self, poisson16, make_rng):
        rng = make_rng(52)
        svc = SolverService(preconditioner="jacobi")
        for _ in range(4):
            svc.submit(poisson16, rng.standard_normal(poisson16.n_rows))
        rec = TraceRecorder()
        with use_recorder(rec):
            svc.flush()
        starts = rec.events("batch_start")
        ends = rec.events("batch_end")
        assert len(starts) == len(ends) == 1
        assert starts[0].payload["batch"] == 4
        assert ends[0].payload["batch"] == 4
        assert ends[0].payload["modeled_seconds_per_rhs"] > 0
        assert ends[0].payload["converged"] == 4
        assert starts[0].seq < ends[0].seq

    @pytest.mark.parametrize("device", [
        A100, replace(A100, launch_overhead=0.0, sync_overhead=0.0,
                      min_kernel_time=0.0)], ids=["a100", "no_floors"])
    def test_flush_price_is_iteration_cost_times_sweeps(self, poisson16,
                                                         make_rng, device):
        # The price run_batch_scaling, `repro batch` and perfbench's
        # machine.modeled_s read: per group, the full-batch iteration
        # cost times the block's sweeps; per flush, their sum.  These
        # systems are latency-bound on the A100 model, so only a device
        # without latency floors prices the batch width.
        other = stencil_poisson_2d(12)
        svc = SolverService(preconditioner="ilu0", device=device)
        rng = make_rng(53)
        for a, nb in ((poisson16, 3), (other, 2)):
            for _ in range(nb):
                svc.submit(a, rng.standard_normal(a.n_rows))
        report = svc.flush()
        groups = {g.fingerprint: g for g in report.groups}
        want = 0.0
        for a, nb in ((poisson16, 3), (other, 2)):
            g = groups[matrix_fingerprint(a)]
            assert g.batch == nb and g.block_iters > 0
            cost = iteration_cost(device, a, ILU0Preconditioner(a),
                                  batch=nb)
            assert g.modeled_seconds == cost.total * g.block_iters
            assert g.modeled_seconds_per_rhs == g.modeled_seconds / nb
            want += g.modeled_seconds
        assert len(groups) == 2
        assert report.modeled_seconds == want

    def test_group_metrics(self, poisson16, make_rng):
        svc = SolverService(preconditioner="jacobi")
        rng = make_rng(54)
        for _ in range(3):
            svc.submit(poisson16, rng.standard_normal(poisson16.n_rows))
        svc.flush()
        m = get_metrics()
        assert m.counter("pcg.batched_groups") == 1
        assert m.counter("pcg.batched_rhs") == 3

    def test_submit_validation(self, poisson16):
        svc = SolverService()
        with pytest.raises(ShapeError):
            svc.submit(poisson16, np.ones(3))
        with pytest.raises(ShapeError):
            svc.submit(poisson16, np.ones((poisson16.n_rows, 2)))

    def test_solve_convenience(self, poisson16, make_rng):
        rng = make_rng(55)
        reqs = [(poisson16, rng.standard_normal(poisson16.n_rows), f"t{i}")
                for i in range(2)]
        report = SolverService(preconditioner="jacobi").solve(reqs)
        assert isinstance(report, BatchReport)
        assert report.tags == ["t0", "t1"]
        assert report.all_converged

    def test_solve_accepts_request_objects(self, poisson16, make_rng):
        rng = make_rng(56)
        reqs = [SolveRequest(poisson16,
                             rng.standard_normal(poisson16.n_rows),
                             tag=f"r{i}")
                for i in range(3)]
        report = SolverService(preconditioner="jacobi").solve(reqs)
        assert report.tags == ["r0", "r1", "r2"]
        assert report.all_converged

    def test_empty_flush(self):
        report = SolverService().flush()
        assert report.n_requests == 0
        assert report.groups == []
        assert report.all_converged  # vacuous


class TestBatchScalingStudy:
    def test_per_rhs_decreases_and_one_factorization(self, make_rng):
        a = stencil_poisson_2d(12)
        res = run_batch_scaling(a, name="poisson", batch_sizes=(1, 8),
                                preconditioner="ilu0", seed=7)
        assert res.factorizations == 1
        p1, p8 = res.points
        assert p1.batch == 1 and p8.batch == 8
        assert p8.per_rhs_seconds < p1.per_rhs_seconds
        assert p8.per_sweep_per_rhs_seconds < p1.per_sweep_per_rhs_seconds
        assert res.per_rhs_speedup > 1.0
        assert "per-RHS speedup" in res.summary_table()

    def test_all_rungs_converge(self):
        a = stencil_poisson_2d(10)
        res = run_batch_scaling(a, batch_sizes=(1, 2, 4),
                                preconditioner="jacobi", seed=0)
        for p in res.points:
            assert p.n_converged == p.batch

    def test_validation(self, poisson16):
        with pytest.raises(ValueError):
            run_batch_scaling(poisson16, batch_sizes=())
        with pytest.raises(ValueError):
            run_batch_scaling(poisson16, batch_sizes=(0, 2))
