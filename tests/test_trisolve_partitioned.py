"""Tests for the partitioned (domain-decomposition) SpTRSV price:
the partition inspector, the cost model and the engine plan.  The
engine is priced, not run, so its profiles are pinned to the
level-scheduled executor on each diagonal block, and the sweep count it
is charged is checked against a test-only run of its sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import (level_profile, level_schedule,
                         partition_profiles, partition_rows,
                         split_partition)
from repro.machine import A100, EPYC_7413, time_trisolve, \
    time_trisolve_partitioned
from repro.precond import (ScheduledTriangularSolver, plan_trisolve,
                           solve_lower_sequential, solve_upper_sequential)
from repro.sparse import CSRMatrix, stencil_poisson_1d, stencil_poisson_2d

from conftest import TEST_SEED


def random_factor(seed, n, kind="lower", unit=False, density=0.3,
                  dtype=np.float64):
    """Random well-conditioned triangular factor (diag magnitude >= 0.5)."""
    rng = np.random.default_rng(TEST_SEED + seed)
    dense = rng.standard_normal((n, n))
    dense[rng.random((n, n)) > density] = 0.0
    dense = np.tril(dense, -1)
    if unit:
        np.fill_diagonal(dense, 0.0)
    else:
        np.fill_diagonal(dense, rng.random(n) + 0.5)
    if kind == "upper":
        dense = dense.T.copy()
    return CSRMatrix.from_dense(dense.astype(dtype))


def chain_lower(n):
    """Band-1 chain: the wavefront-deep worst case for level scheduling."""
    from repro.precond.ilu0 import ilu0

    return ilu0(stencil_poisson_1d(n)).lower


def poisson2d_lower(side):
    from repro.precond.ilu0 import ilu0

    return ilu0(stencil_poisson_2d(side)).lower


def depth_gated_solve(tri, part, b):
    """The partitioned SpTRSV of arXiv 2508.04917, run here only as an
    oracle of the depths it is priced with: round 0 solves each diagonal
    block from *b*; sweep *s* forms ``C x`` once and re-solves the
    partitions with ``depth >= s`` from ``b - C x``."""
    subs, coupling = split_partition(tri, part)
    solvers = [ScheduledTriangularSolver(sub, kind=part.kind) for sub in subs]
    f = part.fences
    x = np.concatenate([sv.solve(b[f[p]:f[p + 1]])
                        for p, sv in enumerate(solvers)])
    for s in range(1, part.n_sweeps + 1):
        c = coupling.matvec(x)
        for p in np.flatnonzero(part.depth >= s):
            x[f[p]:f[p + 1]] = solvers[p].solve(b[f[p]:f[p + 1]]
                                                - c[f[p]:f[p + 1]])
    return x


def sequential(tri, b, kind):
    if kind == "lower":
        return solve_lower_sequential(tri, b)
    return solve_upper_sequential(tri, b)


class TestRowPartition:
    def test_fences_cover_and_increase(self, rng):
        tri = random_factor(0, 37)
        for p in (1, 2, 4, 8, 37, 100):
            part = partition_rows(tri, p)
            f = part.fences
            assert f[0] == 0 and f[-1] == 37
            assert (np.diff(f) >= 1).all()
            assert part.n_parts == min(p, 37)

    def test_depth_bounds_and_dag_order(self):
        tri = chain_lower(64)
        part = partition_rows(tri, 8)
        # A chain couples partition p to p-1 only: depth is 0..P-1.
        np.testing.assert_array_equal(part.depth, np.arange(8))
        assert part.n_sweeps == 7
        # Its transpose runs backward: the last partition goes first.
        part = partition_rows(tri.transpose(), 8, kind="upper")
        np.testing.assert_array_equal(part.depth, np.arange(7, -1, -1))
        assert part.n_sweeps == 7

    def test_no_coupling_means_zero_depth(self):
        # Block-diagonal: fences at the block boundary -> no crossing.
        dense = np.zeros((4, 4))
        np.fill_diagonal(dense, 1.0)
        dense[1, 0] = dense[3, 2] = 0.5
        part = partition_rows(CSRMatrix.from_dense(dense), 2)
        assert part.coupling_nnz == 0
        assert part.n_sweeps == 0

    def test_invalid_inputs(self):
        tri = random_factor(2, 10)
        with pytest.raises(ValueError):
            partition_rows(tri, 0)
        with pytest.raises(ValueError):
            partition_rows(tri, 2, kind="diag")


class TestSplitPartition:
    def test_entries_partitioned_exactly(self):
        tri = random_factor(3, 50, density=0.4)
        part = partition_rows(tri, 4)
        subs, coupling = split_partition(tri, part)
        assert sum(s.nnz for s in subs) + coupling.nnz == tri.nnz
        # Reassemble: sub-blocks at their global offsets plus coupling.
        dense = coupling.to_dense()
        for p, sub in enumerate(subs):
            lo, hi = part.rows_of(p)
            dense[lo:hi, lo:hi] += sub.to_dense()
        np.testing.assert_array_equal(dense, tri.to_dense())

    def test_profiles_match_executor(self):
        # The priced profile of each diagonal block is what the
        # level-scheduled executor reports for that block.
        for kind in ("lower", "upper"):
            tri = random_factor(4, 40, kind=kind)
            part = partition_rows(tri, 4, kind=kind)
            profs = partition_profiles(tri, part)
            subs, _ = split_partition(tri, part)
            assert len(profs) == len(subs) == 4
            # The whole triangle too: plan_trisolve's levels price.
            profs.append(level_profile(tri, kind))
            subs.append(tri)
            for (rows, nnz), sub in zip(profs, subs):
                solver = ScheduledTriangularSolver(sub, kind=kind)
                r2, z2 = solver.kernel_profile()
                np.testing.assert_array_equal(rows, r2)
                np.testing.assert_array_equal(nnz, z2)


class TestDepthMakesSweepsExact:
    """``depth[p]`` sweeps make partition *p* exact, so the price's
    ``max(depth)`` correction sweeps are enough."""

    @pytest.mark.parametrize("density", [0.05, 0.3])
    @pytest.mark.parametrize("kind", ["lower", "upper"])
    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_matches_sequential(self, p, kind, density, rng):
        tri = random_factor(5, 60, kind=kind, density=density)
        part = partition_rows(tri, p, kind=kind)
        b = rng.standard_normal(60)
        np.testing.assert_allclose(depth_gated_solve(tri, part, b),
                                   sequential(tri, b, kind),
                                   rtol=1e-12, atol=1e-12)

    @given(seed=st.integers(0, 2 ** 20),
           n=st.integers(1, 48),
           p=st.sampled_from([1, 2, 4, 8]),
           kind=st.sampled_from(["lower", "upper"]),
           density=st.sampled_from([0.02, 0.1, 0.3]))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_sequential(self, seed, n, p, kind, density):
        tri = random_factor(seed, n, kind=kind, density=density)
        part = partition_rows(tri, p, kind=kind)
        b = np.random.default_rng(TEST_SEED + seed + 1).standard_normal(n)
        np.testing.assert_allclose(depth_gated_solve(tri, part, b),
                                   sequential(tri, b, kind),
                                   rtol=1e-12, atol=1e-12)


class TestPartitionedCostModel:
    def _levels_time(self, tri, dev=A100):
        sched = ScheduledTriangularSolver(tri, kind="lower",
                                          unit_diagonal=True)
        rows, nnz = sched.kernel_profile()
        return time_trisolve(dev, rows, nnz)

    def _partitioned_time(self, tri, p, dev=A100):
        part = partition_rows(tri, p)
        profs = partition_profiles(tri, part)
        return time_trisolve_partitioned(dev, profs, part.depth,
                                         part.coupling_rows,
                                         part.coupling_nnz)

    def test_beats_levels_when_wavefront_deep(self):
        # Acceptance: max_level >> n/P (band-1 chain: max_level = n).
        tri = chain_lower(512)
        for p in (8, 16):
            n_over_p = tri.n_rows / p
            assert level_schedule(tri, kind="lower").n_levels \
                > 4 * n_over_p
            assert self._partitioned_time(tri, p) < self._levels_time(tri)

    def test_monotone_in_depth_work(self):
        tri = chain_lower(128)
        t = self._partitioned_time(tri, 4)
        assert t > 0.0
        # More partitions on a chain -> more sweeps -> more sync time
        # once sub-triangle chains stop shrinking meaningfully.
        assert self._partitioned_time(tri, 64) \
            > self._partitioned_time(tri, 2)

    def test_empty_and_validation(self):
        assert time_trisolve_partitioned(A100, [], np.array([]), 0, 0) == 0.0
        with pytest.raises(ValueError):
            time_trisolve_partitioned(
                A100, [(np.ones(1), np.ones(1))], np.array([0, 0]), 0, 0)
        with pytest.raises(ValueError):
            time_trisolve_partitioned(
                A100, [(np.ones(1), np.ones(1))], np.array([0]), 0, 0,
                internal_sync_fraction=1.5)


class TestEnginePlanning:
    def test_auto_never_picks_modeled_slower(self):
        mats = [chain_lower(256),
                random_factor(11, 80, density=0.5),
                poisson2d_lower(12)]
        for dev in (A100, EPYC_7413):
            for tri in mats:
                plan = plan_trisolve(tri, kind="lower", device=dev)
                best = min(plan.levels_seconds, plan.partitioned_seconds)
                chosen = (plan.partitioned_seconds
                          if plan.engine == "partitioned"
                          else plan.levels_seconds)
                assert chosen == best

    def test_plan_records_both_costs(self):
        plan = plan_trisolve(chain_lower(128), kind="lower")
        assert plan.levels_seconds > 0
        assert plan.partitioned_seconds > 0
        assert plan.engine in ("levels", "partitioned")
        assert plan.speedup == plan.levels_seconds / plan.partitioned_seconds
