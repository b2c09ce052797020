"""Tests for the partitioned (domain-decomposition) SpTRSV engine:
inspector, executor, cost model and auto-selection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import (level_schedule, partition_profiles,
                         partition_rows, split_partition)
from repro.machine import A100, EPYC_7413, time_trisolve, \
    time_trisolve_partitioned
from repro.precond import (PartitionedTriangularSolver,
                           ScheduledTriangularSolver, make_triangular_solver,
                           plan_trisolve, solve_lower_sequential,
                           solve_upper_sequential)
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


def oracle(tri, b, kind, unit):
    if kind == "lower":
        return solve_lower_sequential(tri, b, unit_diagonal=unit)
    return solve_upper_sequential(tri, b, unit_diagonal=unit)


def chain_lower(n):
    """Band-1 chain: the wavefront-deep worst case for level scheduling."""
    from repro.precond.ilu0 import ilu0

    return ilu0(stencil_poisson_1d(n)).lower


def poisson2d_lower(side):
    from repro.precond.ilu0 import ilu0

    return ilu0(stencil_poisson_2d(side)).lower


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

    def test_no_coupling_means_zero_depth(self):
        # Block-diagonal: fences at the block boundary -> no crossing.
        dense = np.zeros((4, 4))
        np.fill_diagonal(dense, 1.0)
        dense[1, 0] = dense[3, 2] = 0.5
        part = partition_rows(CSRMatrix.from_dense(dense), 2)
        assert part.coupling_nnz == 0
        assert part.n_sweeps == 0

    def test_part_of(self):
        tri = random_factor(1, 20)
        part = partition_rows(tri, 4)
        rows = np.arange(20)
        owner = part.part_of(rows)
        for p in range(part.n_parts):
            lo, hi = part.rows_of(p)
            assert (owner[lo:hi] == p).all()

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
        tri = random_factor(4, 40)
        part = partition_rows(tri, 4)
        profs = partition_profiles(tri, part)
        solver = PartitionedTriangularSolver(tri, n_parts=4)
        for (rows, nnz), sub in zip(profs, solver._solvers):
            r2, z2 = sub.kernel_profile()
            np.testing.assert_array_equal(rows, r2)
            np.testing.assert_array_equal(nnz, z2)


class TestPartitionedSolver:
    @pytest.mark.parametrize("kind", ["lower", "upper"])
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_matches_oracle(self, kind, p, rng):
        tri = random_factor(5, 60, kind=kind)
        b = rng.standard_normal(60)
        solver = PartitionedTriangularSolver(tri, kind=kind, n_parts=p)
        x = solver.solve(b)
        np.testing.assert_allclose(x, oracle(tri, b, kind, False),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", ["lower", "upper"])
    def test_unit_diagonal(self, kind, rng):
        tri = random_factor(6, 45, kind=kind, unit=True)
        b = rng.standard_normal(45)
        solver = PartitionedTriangularSolver(tri, kind=kind, n_parts=4,
                                             unit_diagonal=True)
        np.testing.assert_allclose(solver.solve(b),
                                   oracle(tri, b, kind, True),
                                   rtol=1e-12, atol=1e-12)

    def test_batched_rhs_matches_columns(self, rng):
        tri = random_factor(7, 50)
        block = rng.standard_normal((50, 5))
        solver = PartitionedTriangularSolver(tri, n_parts=4)
        xb = solver.solve(block)
        assert xb.shape == (50, 5)
        for j in range(5):
            np.testing.assert_array_equal(xb[:, j], solver.solve(block[:, j]))

    def test_p1_bitwise_equals_scheduled(self, rng):
        tri = random_factor(8, 64)
        b = rng.standard_normal(64)
        part = PartitionedTriangularSolver(tri, n_parts=1)
        sched = ScheduledTriangularSolver(tri, kind="lower")
        np.testing.assert_array_equal(part.solve(b), sched.solve(b))

    def test_out_parameter(self, rng):
        tri = random_factor(9, 30)
        b = rng.standard_normal(30)
        out = np.empty(30)
        solver = PartitionedTriangularSolver(tri, n_parts=2)
        assert solver.solve(b, out=out) is out

    def test_exposed_syncs_fewer_than_levels_on_chain(self):
        tri = chain_lower(256)
        sched = ScheduledTriangularSolver(tri, kind="lower",
                                          unit_diagonal=True)
        part = PartitionedTriangularSolver(tri, n_parts=8,
                                           unit_diagonal=True)
        assert sched.n_exposed_syncs == sched.n_levels - 1
        assert part.n_exposed_syncs == 2 * part.n_sweeps
        assert part.n_exposed_syncs < sched.n_exposed_syncs

    def test_kernel_profile_conserves_work(self):
        tri = random_factor(10, 48)
        solver = PartitionedTriangularSolver(tri, n_parts=4)
        rows, _ = solver.kernel_profile()
        assert rows.sum() == 48

    def test_global_pivot_threshold(self):
        # Pivot fine locally but negligible against the global max.
        dense = np.diag([1e8, 1.0, 1.0, 1e-6]).astype(np.float64)
        dense[1, 0] = dense[2, 1] = dense[3, 2] = 0.5
        tri = CSRMatrix.from_dense(dense)
        from repro.errors import SingularFactorError

        with pytest.raises(SingularFactorError):
            PartitionedTriangularSolver(tri, n_parts=2, pivot_rtol=1e-10)

    @given(seed=st.integers(0, 2 ** 20),
           n=st.integers(1, 48),
           p=st.sampled_from([1, 2, 4, 8]),
           kind=st.sampled_from(["lower", "upper"]),
           unit=st.booleans(),
           batched=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_property_matches_oracle(self, seed, n, p, kind, unit, batched):
        tri = random_factor(seed, n, kind=kind, unit=unit)
        rng = np.random.default_rng(TEST_SEED + seed + 1)
        b = rng.standard_normal((n, 3) if batched else n)
        solver = PartitionedTriangularSolver(tri, kind=kind, n_parts=p,
                                             unit_diagonal=unit)
        x = solver.solve(b)
        if batched:
            ref = np.stack([oracle(tri, b[:, j], kind, unit)
                            for j in range(3)], axis=1)
        else:
            ref = oracle(tri, b, kind, unit)
        np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-12)


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

    def test_batched_no_cheaper_than_single(self):
        tri = chain_lower(128)
        part = partition_rows(tri, 4)
        profs = partition_profiles(tri, part)
        t1 = time_trisolve_partitioned(A100, profs, part.depth,
                                       part.coupling_rows,
                                       part.coupling_nnz)
        t8 = time_trisolve_partitioned(A100, profs, part.depth,
                                       part.coupling_rows,
                                       part.coupling_nnz, batch=8)
        assert t8 >= t1


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

    def test_forced_engines(self):
        tri = chain_lower(64)
        lev = make_triangular_solver(tri, engine="levels",
                                     unit_diagonal=True)
        prt = make_triangular_solver(tri, engine="partitioned",
                                     unit_diagonal=True)
        assert lev.engine == "levels"
        assert prt.engine == "partitioned"

    def test_auto_picks_partitioned_on_chain(self, rng):
        tri = chain_lower(256)
        solver = make_triangular_solver(tri, engine="auto",
                                        unit_diagonal=True)
        assert solver.engine == "partitioned"
        b = rng.standard_normal(256)
        np.testing.assert_allclose(
            solver.solve(b),
            solve_lower_sequential(tri, b, unit_diagonal=True),
            rtol=0, atol=1e-12)

    def test_plan_records_both_costs(self):
        plan = plan_trisolve(chain_lower(128), kind="lower")
        assert plan.levels_seconds > 0
        assert plan.partitioned_seconds > 0
        assert plan.engine in ("levels", "partitioned")
        assert plan.speedup == plan.levels_seconds / plan.partitioned_seconds

    @pytest.mark.parametrize("engine", ["auto", "partitioned"])
    def test_winner_partitioned_once(self, monkeypatch, engine):
        """The executor takes the partition the plan priced: ILU(0) of
        ``thermal_900_s100`` partitions each factor once per candidate
        width (4 + 4), and its two winners not again."""
        import repro.precond.engine as engine_mod
        import repro.precond.triangular as triangular_mod
        from repro.datasets import load
        from repro.precond import ILU0Preconditioner

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1:])
            return partition_rows(*args, **kwargs)

        for mod in (engine_mod, triangular_mod):
            monkeypatch.setattr(mod, "partition_rows", counted)
        m = ILU0Preconditioner(load("thermal_900_s100"), engine=engine)
        assert m.engine == ("partitioned", "partitioned")
        assert len(calls) == 8

    def test_invalid_engine(self):
        tri = chain_lower(16)
        with pytest.raises(ValueError):
            plan_trisolve(tri, engine="magic")
        with pytest.raises(ValueError):
            make_triangular_solver(tri, engine="magic")
