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

from repro.perf import build_factor_plan, get_cache, ilu_numeric_vectorized
from repro.precond import ScheduledTriangularSolver, solve_lower_sequential
from repro.precond.ilu0 import ilu0, ilu_numeric_inplace
from repro.sparse import stencil_poisson_2d


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
    def test_vectorized_beats_scalar(self, guard_matrix):
        a = guard_matrix
        # Warm the plan cache first so the guard times the numeric sweep,
        # matching how the harness reuses inspectors.
        plan = build_factor_plan(a)
        fs, _ = ilu_numeric_inplace(a)
        fv, _ = ilu_numeric_vectorized(a, plan=plan)
        np.testing.assert_array_equal(fs, fv)

        t_scalar = _best_of(lambda: ilu_numeric_inplace(a))
        t_vec = _best_of(lambda: ilu_numeric_vectorized(a, plan=plan))
        # Measured locally at ~3-4x; guard at 1.2x leaves headroom for
        # slow CI machines while still failing if the batching is lost.
        assert t_vec * 1.2 < t_scalar, (
            f"vectorized sweep ({t_vec:.4f}s) not measurably faster than "
            f"scalar oracle ({t_scalar:.4f}s)")


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
    the 99 wavefronts of the guard matrix's forward ILU(0) factor the
    five-call wavefront measures x24-25 (one right-hand side) and
    x109-113 (eight) on 2 vCPUs of a 2.0 GHz Xeon; an executor spending
    about a dozen NumPy calls per wavefront measures x6-8 and x33-39,
    which the thresholds reject."""

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
