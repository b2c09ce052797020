"""Tests for the dependence DAG and level scheduling."""

import numpy as np
import pytest

from conftest import kahn_levels
from repro.errors import NotTriangularError
from repro.graph import (dependence_dag, level_schedule, wavefront_count,
                         wavefront_reduction_percent)
from repro.sparse import CSRMatrix, eye, stencil_poisson_2d

nx = pytest.importorskip("networkx")



def random_lower(rng, n, density=0.2):
    dense = rng.random((n, n))
    dense[dense > density] = 0.0
    dense = np.tril(dense, -1)
    np.fill_diagonal(dense, 1.0)
    return CSRMatrix.from_dense(dense)


class TestDependenceDAG:
    def test_figure1_dag(self, fig1_lower):
        # Figure 1c: edges 0→2, 0→3, 2→3; wavefronts {0,1},{2},{3}.
        dag = dependence_dag(fig1_lower)
        assert dag.n_edges == 3
        np.testing.assert_array_equal(dag.children(0), [2, 3])
        np.testing.assert_array_equal(dag.children(2), [3])
        np.testing.assert_array_equal(dag.roots(), [0, 1])
        assert dag.critical_path_length() == 3

    def test_rejects_upper_entries(self):
        a = CSRMatrix.from_dense(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(NotTriangularError):
            dependence_dag(a, kind="lower")

    def test_upper_kind(self):
        a = CSRMatrix.from_dense(np.array([[1.0, 2.0], [0.0, 1.0]]))
        dag = dependence_dag(a, kind="upper")
        assert dag.n_edges == 1
        np.testing.assert_array_equal(dag.children(1), [0])

    def test_identity_has_no_edges(self):
        dag = dependence_dag(eye(5))
        assert dag.n_edges == 0
        assert dag.critical_path_length() == 1

    def test_matches_networkx_longest_path(self, rng):
        low = random_lower(rng, 40)
        dag = dependence_dag(low)
        g = nx.DiGraph()
        g.add_nodes_from(range(40))
        for j in range(40):
            for i in dag.children(j):
                g.add_edge(j, int(i))
        expect = nx.dag_longest_path_length(g) + 1
        assert dag.critical_path_length() == expect


class TestLevelSchedule:
    def test_figure1_levels(self, fig1_lower):
        sched = level_schedule(fig1_lower)
        assert sched.n_levels == 3
        np.testing.assert_array_equal(sched.level_rows(0), [0, 1])
        np.testing.assert_array_equal(sched.level_rows(1), [2])
        np.testing.assert_array_equal(sched.level_rows(2), [3])

    def test_figure1_sparsified(self, small_dense):
        # Figure 1d: removing entry f = L[3,2] merges wavefronts 2 and 3.
        d = small_dense.copy()
        d[3, 2] = 0.0
        sched = level_schedule(CSRMatrix.from_dense(d))
        assert sched.n_levels == 2
        np.testing.assert_array_equal(sched.level_rows(0), [0, 1])
        np.testing.assert_array_equal(sched.level_rows(1), [2, 3])

    @pytest.mark.parametrize("n", [1, 5, 30, 100])
    def test_frontier_matches_reference(self, rng, n):
        low = random_lower(rng, n)
        np.testing.assert_array_equal(level_schedule(low).level_of,
                                      kahn_levels(low))

    def test_upper_matches_reference(self, rng):
        up = random_lower(rng, 50).transpose()
        np.testing.assert_array_equal(
            level_schedule(up, kind="upper").level_of,
            kahn_levels(up, kind="upper"))

    def test_schedule_respects_dependences(self, rng):
        low = random_lower(rng, 60)
        sched = level_schedule(low)
        sched.validate_against(low)

    def test_upper_transpose_same_depth(self, rng):
        # The backward DAG of L^T is the reverse of L's forward DAG: level
        # assignments differ (height vs depth) but the critical path — and
        # hence the wavefront count — is identical.
        low = random_lower(rng, 40)
        up = low.transpose()
        s_low = level_schedule(low, kind="lower")
        s_up = level_schedule(up, kind="upper")
        assert s_low.n_levels == s_up.n_levels
        s_up.validate_against(up, kind="upper")

    def test_diagonal_matrix_single_level(self):
        sched = level_schedule(eye(10))
        assert sched.n_levels == 1
        assert sched.level_sizes.tolist() == [10]

    def test_dense_lower_fully_sequential(self, rng):
        dense = np.tril(rng.random((12, 12)) + 1.0)
        sched = level_schedule(CSRMatrix.from_dense(dense))
        assert sched.n_levels == 12

    def test_level_ptr_consistency(self, rng):
        low = random_lower(rng, 35)
        sched = level_schedule(low)
        assert sched.level_ptr[0] == 0
        assert sched.level_ptr[-1] == 35
        assert sched.level_sizes.sum() == 35

    def test_grid_levels_known(self):
        # 2-D 5-point grid: levels of tril(A) are the anti-diagonals:
        # nx + ny - 1 of them.
        a = stencil_poisson_2d(6, 4)
        assert wavefront_count(a) == 6 + 4 - 1

    def test_wavefront_count_reads_lower_triangle(self, rng):
        # w_A of a full, unsymmetric matrix is that of tril(A): entries
        # above the diagonal never add a wavefront.
        dense = np.where(rng.random((30, 30)) < 0.15,
                         rng.random((30, 30)), 0.0) + 30.0 * np.eye(30)
        assert wavefront_count(CSRMatrix.from_dense(dense)) == \
            level_schedule(CSRMatrix.from_dense(np.tril(dense))).n_levels
        assert wavefront_count(CSRMatrix.from_dense(np.triu(dense))) == 1

    def test_empty_matrix(self):
        a = CSRMatrix(np.zeros(1, dtype=np.int64),
                      np.array([], dtype=int), np.array([]), (0, 0))
        assert level_schedule(a).n_levels == 0

    @pytest.mark.parametrize("kind, entry", [("lower", (1, 3)),
                                             ("upper", (3, 1))])
    def test_rejects_entry_on_wrong_side(self, kind, entry):
        dense = np.eye(5)
        dense[entry] = 2.0
        with pytest.raises(NotTriangularError):
            level_schedule(CSRMatrix.from_dense(dense), kind=kind)

    @pytest.mark.parametrize("kind", ["lower", "upper"])
    def test_rejects_non_square(self, kind):
        a = CSRMatrix.from_dense(np.eye(4, 3))
        with pytest.raises(NotTriangularError):
            level_schedule(a, kind=kind)


class TestWavefrontReduction:
    def test_reduction_percent(self):
        assert wavefront_reduction_percent(100, 80) == pytest.approx(20.0)
        assert wavefront_reduction_percent(3, 2) == pytest.approx(100 / 3)

    def test_reduction_rejects_zero(self):
        with pytest.raises(ValueError):
            wavefront_reduction_percent(0, 0)
