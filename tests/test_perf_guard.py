"""Wall-clock perf guards (acceptance criteria, generous margins).

These pin the PR's performance claims just tightly enough to catch a
regression that deletes the optimization, while staying robust to noisy
CI machines: the vectorized path must beat the scalar oracle with a wide
margin on a matrix large enough for the difference to dominate noise,
and each guard takes the best of several runs.
"""

import time

import numpy as np
import pytest

from repro.graph import level_schedule
from repro.perf import (ArtifactCache, build_factor_plan, get_cache,
                        ilu_numeric_vectorized)
from repro.precond import (ScheduledTriangularSolver, solve_lower_sequential,
                           solve_upper_sequential)
from repro.precond.ilu0 import ilu0, ilu_numeric_inplace
from repro.sparse import stencil_poisson_1d, stencil_poisson_2d
from repro.sparse.ops import extract_lower
from repro.util import segment_sum


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _best_of_alternating(slow, fast, rounds=5, fast_repeats=3):
    """Best-of times of *slow* and *fast*, measured in alternation so
    both minima come from the same spells of host speed."""
    t_slow = t_fast = float("inf")
    for _ in range(rounds):
        t_slow = min(t_slow, _best_of(slow, repeats=1))
        t_fast = min(t_fast, _best_of(fast, repeats=fast_repeats))
    return t_slow, t_fast


@pytest.fixture(scope="module")
def guard_matrix():
    """Mid-size Poisson system (order 2500) — the guard workload."""
    return stencil_poisson_2d(50)


class TestVectorizedFactorizationGuard:
    """The compiled elimination against the scalar IKJ oracle, timed in
    alternation on the guard matrix's ILU(0).  The replay runs a few
    NumPy calls per (wavefront, slot) step of a cached plan; an executor
    that searches the pattern on every step measures about x6 (replay)
    and x5-6 (plan build plus replay), which both thresholds reject."""

    @pytest.fixture(scope="class")
    def oracle(self, guard_matrix):
        fs, flops = ilu_numeric_inplace(guard_matrix)
        return fs, flops

    def test_replay_beats_scalar(self, guard_matrix, oracle):
        a = guard_matrix
        plan = build_factor_plan(a)
        fv, flops = ilu_numeric_vectorized(a, plan=plan)
        np.testing.assert_array_equal(fv, oracle[0])
        assert flops == oracle[1]
        t_scalar, t_replay = _best_of_alternating(
            lambda: ilu_numeric_inplace(a),
            lambda: ilu_numeric_vectorized(a, plan=plan))
        assert t_replay * 12.0 <= t_scalar, (
            f"replay {t_replay * 1e3:.3f} ms is only "
            f"x{t_scalar / t_replay:.1f} faster than the oracle's "
            f"{t_scalar * 1e3:.3f} ms")

    def test_build_and_replay_beat_scalar(self, guard_matrix, oracle):
        a = guard_matrix
        # The lower schedule comes from the default cache, as it does
        # after Algorithm 2; each timed plan build starts from an empty
        # plan cache.
        build_factor_plan(a)

        def build_and_replay():
            plan = build_factor_plan(a, cache=ArtifactCache())
            return ilu_numeric_vectorized(a, plan=plan)

        np.testing.assert_array_equal(build_and_replay()[0], oracle[0])
        t_scalar, t_full = _best_of_alternating(
            lambda: ilu_numeric_inplace(a), build_and_replay)
        assert t_full * 9.0 <= t_scalar, (
            f"plan build plus replay {t_full * 1e3:.3f} ms is only "
            f"x{t_scalar / t_full:.1f} faster than the oracle's "
            f"{t_scalar * 1e3:.3f} ms")


class TestBlockSpMVGuard:
    """One 8-column ``matmat`` on a registry matrix against the
    fancy-indexed gather, out-of-place broadcast multiply and checked
    ``segment_sum`` it replaced, and against eight ``matvec`` calls.  A
    ``take`` gather, an in-place multiply and one ``reduceat`` over the
    row offsets measured x1.4-2.3 faster than the replaced kernel and
    1.1-1.4x the time of eight vectors in this suite's process (x2.0 and
    0.84-0.98x on a later host); the slot sums, which the timed products
    after the second take, measure x3.5 and 0.85-0.91x there.  The
    replaced kernel is x1 of itself, so the first threshold rejects it
    whatever the host's allocator does to the second ratio."""

    def test_block_spmv_lean(self, rng):
        from repro.datasets import load

        a = load("graphics_3025_s105")
        block = rng.standard_normal((a.n_rows, 8))
        cols = [np.ascontiguousarray(block[:, j]) for j in range(8)]

        def replaced():
            return segment_sum(a.data[:, None] * block[a.indices, :],
                               a.indptr[:-1], a.indptr[1:])

        def eight_matvecs():
            for c in cols:
                a.matvec(c)

        y = a.matmat(block)
        np.testing.assert_array_equal(y, replaced())
        for j, c in enumerate(cols):
            np.testing.assert_array_equal(y[:, j], a.matvec(c))
        t_replaced, t_block = _best_of_alternating(
            replaced, lambda: a.matmat(block), rounds=15)
        assert t_block * 1.2 <= t_replaced, (
            f"8-column matmat {t_block * 1e6:.0f} us is only "
            f"x{t_replaced / t_block:.2f} faster than the replaced "
            f"kernel ({t_replaced * 1e6:.0f} us)")
        t_eight, t_block = _best_of_alternating(
            eight_matvecs, lambda: a.matmat(block), rounds=15)
        assert t_block <= 1.8 * t_eight, (
            f"8-column matmat {t_block * 1e6:.0f} us costs "
            f"x{t_block / t_eight:.2f} the time of 8 matvecs "
            f"({t_eight * 1e6:.0f} us)")


class TestSlotSumGuard:
    """An 8-column ``matmat`` on the guard matrix (rows of at most 5
    entries), once its second block product has built the slot plan,
    against one ``matvec``.  With one ``reduceat`` call per row and
    column the block measured x5.9-6.7 a vector (median of 15
    alternating rounds, three runs on 2 vCPUs of an Intel Xeon); the
    slot sums, with the values the plan keeps, measure x3.5-4.0 (twelve
    runs, half of them beside a full test run; x3.9-4.3 gathering the
    values per product), and the threshold rejects the per-row
    reduction."""

    def test_block_costs_few_vectors(self, guard_matrix, rng):
        a = guard_matrix
        block = np.asfortranarray(rng.standard_normal((a.n_rows, 8)))
        v = np.ascontiguousarray(block[:, 0])
        y = a.matmat(block)
        np.testing.assert_array_equal(a.matmat(block), y)
        np.testing.assert_array_equal(y[:, 0], a.matvec(v))
        ratio = _median_round_ratio(lambda: a.matvec(v),
                                    lambda: a.matmat(block))
        assert ratio <= 5.0, (
            f"8-column matmat costs x{ratio:.2f} one matvec")


class TestCacheAmortizationGuard:
    def test_cached_preconditioner_is_effectively_free(self, spd_random):
        from repro.core import make_preconditioner

        t_first = _best_of(
            lambda: make_preconditioner(spd_random, "ilu0"), repeats=1)
        t_hit = _best_of(lambda: make_preconditioner(spd_random, "ilu0"))
        stats = get_cache().stats
        assert stats.misses_by_kind["preconditioner"] == 1
        # A hit is a dict lookup plus a fingerprint hash; 10x margin.
        assert t_hit * 10.0 < t_first or t_hit < 1e-3


class TestWavefrontSweepGuard:
    """The level-contiguous sweep against the row-by-row oracle, both
    timed here, so the ratio does not depend on the host's speed.  On
    the 99 wavefronts of each of the guard matrix's ILU(0) factors, on 2
    vCPUs of a 2.1 GHz Xeon, the three-call wavefront measures x37-41
    (one right-hand side) and x115-135 (eight) on the unit forward
    factor, and x78-92 and x248-270 on the non-unit backward factor
    (twelve runs of the guards' rounds, half of them beside a full test
    run).  With its index arrays flagged read-only, which makes NumPy
    copy them on every call, it measured x30-39, x110-118, x67-72 and
    x228-244 (six runs).  The five-call wavefront it
    replaced, which subtracted and scaled after the row sums, measures
    x24-32, x94-108, x44-51 and x176-186: the backward thresholds reject
    it.  An executor spending about a dozen NumPy calls per wavefront
    measures x6-8 and x33-39 forward, which the forward thresholds
    reject."""

    @pytest.fixture(scope="class")
    def sweep(self, guard_matrix):
        f = ilu0(guard_matrix)
        solver = ScheduledTriangularSolver(f.lower, kind="lower",
                                           unit_diagonal=True,
                                           schedule=f.lower_schedule)
        assert solver.n_levels == 99
        return f.lower, solver

    def test_forward_sweep_beats_sequential(self, sweep, rng):
        lower, solver = sweep
        b = rng.standard_normal(lower.n_rows)
        np.testing.assert_allclose(
            solver.solve(b),
            solve_lower_sequential(lower, b, unit_diagonal=True),
            rtol=1e-12, atol=1e-12)
        t_seq, t_sweep = _best_of_alternating(
            lambda: solve_lower_sequential(lower, b, unit_diagonal=True),
            lambda: solver.solve(b))
        assert t_sweep * 14.0 <= t_seq, (
            f"sweep {t_sweep * 1e3:.3f} ms is only "
            f"x{t_seq / t_sweep:.1f} faster than the oracle's "
            f"{t_seq * 1e3:.3f} ms")

    def test_block_sweep_beats_sequential(self, sweep, rng):
        lower, solver = sweep
        block = rng.standard_normal((lower.n_rows, 8))
        t_seq, t_block = _best_of_alternating(
            lambda: solve_lower_sequential(lower, block[:, 0],
                                           unit_diagonal=True),
            lambda: solver.solve(block))
        assert t_block * 60.0 <= 8 * t_seq, (
            f"8-column sweep {t_block * 1e3:.3f} ms is only "
            f"x{8 * t_seq / t_block:.1f} faster than 8 oracle solves "
            f"({8 * t_seq * 1e3:.3f} ms)")

    @pytest.fixture(scope="class")
    def backward(self, guard_matrix):
        f = ilu0(guard_matrix)
        solver = ScheduledTriangularSolver(f.upper, kind="upper",
                                           schedule=f.upper_schedule)
        assert solver.n_levels == 99
        return f.upper, solver

    def test_backward_sweep_beats_sequential(self, backward, rng):
        upper, solver = backward
        b = rng.standard_normal(upper.n_rows)
        np.testing.assert_allclose(solver.solve(b),
                                   solve_upper_sequential(upper, b),
                                   rtol=1e-12, atol=1e-12)
        t_seq, t_sweep = _best_of_alternating(
            lambda: solve_upper_sequential(upper, b),
            lambda: solver.solve(b), rounds=15)
        assert t_sweep * 55.0 <= t_seq, (
            f"backward sweep {t_sweep * 1e3:.3f} ms is only "
            f"x{t_seq / t_sweep:.1f} faster than the oracle's "
            f"{t_seq * 1e3:.3f} ms")

    def test_backward_block_sweep_beats_sequential(self, backward, rng):
        upper, solver = backward
        block = rng.standard_normal((upper.n_rows, 8))
        t_seq, t_block = _best_of_alternating(
            lambda: solve_upper_sequential(upper, block[:, 0]),
            lambda: solver.solve(block), rounds=15)
        assert t_block * 210.0 <= 8 * t_seq, (
            f"8-column backward sweep {t_block * 1e3:.3f} ms is only "
            f"x{8 * t_seq / t_block:.1f} faster than 8 oracle solves "
            f"({8 * t_seq * 1e3:.3f} ms)")


def _textbook_pcg(a, b, m, crit):
    """Algorithm 1 as the paper writes it, on 1-D vectors, with nothing
    else in the loop: the reference the shared kernel is held to."""
    x = np.zeros_like(b)
    r = b.copy()
    threshold = crit.threshold(float(np.linalg.norm(b)))
    history = [float(np.linalg.norm(r))]
    z = m.apply(r)
    rz = float(np.dot(r, z))
    p = z.copy()
    for k in range(1, crit.max_iters + 1):
        w = a.matvec(p)
        alpha = rz / float(np.dot(p, w))
        x += alpha * p
        r -= alpha * w
        history.append(float(np.linalg.norm(r)))
        if history[-1] <= threshold:
            break
        z = m.apply(r)
        rz_new = float(np.dot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, history, k


def _median_round_ratio(reference, candidate, rounds=15, repeats=3):
    """Median over rounds of the candidate's best time over the
    reference's best time, the two run in alternation within a round:
    each ratio compares runs made in the same spell of host speed."""
    ratios = []
    for _ in range(rounds):
        t_ref = t_cand = float("inf")
        for _ in range(repeats):
            t_ref = min(t_ref, _best_of(reference, repeats=1))
            t_cand = min(t_cand, _best_of(candidate, repeats=1))
        ratios.append(t_cand / t_ref)
    return float(np.median(ratios))


class TestSingleColumnKernelGuard:
    """``pcg`` runs the batched kernel at one column.  Against the
    textbook 1-D loop above, on the guard matrix, its per-column
    bookkeeping (compaction checks, per-column scalar lists, the
    one-column SpMV and sweep routes) must stay within x1.10 with
    ILU(0), where the two triangular sweeps dominate, and x1.15 with
    Jacobi, where an iteration is a few vector kernels.  On 2 vCPUs of
    an Intel Xeon this kernel measures x1.01-1.04 and x1.06-1.09
    (eight runs, two of them beside a full test run), against
    x1.01-1.06 and x1.09-1.15 while a one-column ``matmat`` ran the
    2-D gather and ``reduceat`` and the direction update allocated its
    sum (x1.02-1.04 and x1.11-1.14 before the kernels' index arrays
    were made writeable, which both loops share; the single-vector
    loop it replaced: x1.01-1.02 and x0.97-1.06); with the one-column
    block sent through the 2-D SpMV and sweep it measures x1.08-1.13
    with ILU(0), and the former block loop at one column measures
    x1.13-1.27 and x1.52-1.58."""

    @pytest.mark.parametrize("kind, bound", [("ilu0", 1.10),
                                             ("jacobi", 1.15)])
    def test_pcg_matches_textbook_loop(self, guard_matrix, kind, bound):
        from repro.core import make_preconditioner
        from repro.solvers import StoppingCriterion, pcg

        a = guard_matrix
        m = make_preconditioner(a, kind, cache=ArtifactCache())
        b = a.matvec(np.random.default_rng(3).standard_normal(a.n_rows))
        b /= np.linalg.norm(b)
        crit = StoppingCriterion.paper_default()
        x, history, k = _textbook_pcg(a, b, m, crit)
        res = pcg(a, b, m, criterion=crit)
        assert res.converged and res.n_iters == k
        np.testing.assert_array_equal(res.x, x)
        np.testing.assert_array_equal(res.residual_norms, history)
        ratio = _median_round_ratio(lambda: _textbook_pcg(a, b, m, crit),
                                    lambda: pcg(a, b, m, criterion=crit))
        assert ratio <= bound, (
            f"pcg takes x{ratio:.3f} the textbook loop's time ({kind})")


class TestLevelScheduleScalingGuard:
    """``level_schedule`` costs the same per stored entry whatever the
    number of levels and the order: against the lower triangle of the
    guard matrix (n = 2,500, 99 levels), its cost per entry must stay
    within x2 on a 4,096-level chain and at n = 90,000 (599 levels).
    On 2 vCPUs of an Intel Xeon the row sweep measures x1.4 on the
    chain (0.16 us per entry against 0.11; a chain row stores two
    entries, so the per-row cost weighs more) and x0.9 at n = 90,000.
    The Kahn frontier loop it replaced, O(n) NumPy work per level,
    measures x31-36 on the chain (8-15 us per entry against 0.24-0.48),
    which the first threshold rejects, and x1.2 at n = 90,000."""

    @pytest.fixture(scope="class")
    def base(self, guard_matrix):
        return extract_lower(guard_matrix)

    @pytest.mark.parametrize("build, what", [
        (lambda: stencil_poisson_1d(4096), "a 4,096-level chain"),
        (lambda: stencil_poisson_2d(300), "order 90,000"),
    ], ids=["chain", "large"])
    def test_cost_per_entry_stays_flat(self, base, build, what):
        tri = extract_lower(build())
        ratio = _median_round_ratio(lambda: level_schedule(base),
                                    lambda: level_schedule(tri))
        per_entry = ratio * base.nnz / tri.nnz
        assert per_entry <= 2.0, (
            f"level_schedule costs x{per_entry:.2f} per stored entry at "
            f"{what} of what it costs on the guard matrix")
