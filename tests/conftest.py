"""Shared fixtures for the test suite.

SciPy is used strictly as an *oracle* (reference implementation) — the
library under test never imports it.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.sparse import CSRMatrix, random_spd, stencil_poisson_2d


#: The single seed every test RNG derives from.  Tests must not call
#: ``np.random`` module-level functions or hand-roll generators — test
#: order is not fixed (``-k``, ``-x``, single-file runs), so randomness
#: has to be pinned per test, not per module.
TEST_SEED = 12345


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(TEST_SEED)


@pytest.fixture
def make_rng():
    """Factory for independent seeded generators.

    ``make_rng()`` reproduces the shared default; ``make_rng(k)`` gives a
    stream that is stable across runs and independent of test order.
    """
    def _make(offset: int = 0) -> np.random.Generator:
        return np.random.default_rng(TEST_SEED + offset)

    return _make


@pytest.fixture(autouse=True)
def _fresh_artifact_cache():
    """Give every test its own artifact cache.

    Keeps cache hit/miss assertions deterministic and prevents artifacts
    built by one test from masking bugs in another.
    """
    from repro.perf import ArtifactCache, use_cache

    with use_cache(ArtifactCache()) as cache:
        yield cache


@pytest.fixture(autouse=True)
def _fresh_metrics():
    """Give every test its own metrics registry.

    The instrumented solvers feed the process-wide registry; isolating
    it per test keeps counter assertions independent of run order.
    """
    from repro.obs import MetricsRegistry, use_metrics

    with use_metrics(MetricsRegistry()) as metrics:
        yield metrics


@pytest.fixture
def small_dense() -> np.ndarray:
    """The 4×4 lower-triangular example of Figure 1a of the paper."""
    return np.array([
        [2.0, 0.0, 0.0, 0.0],
        [0.0, 3.0, 0.0, 0.0],
        [1.0, 0.0, 4.0, 0.0],
        [5.0, 0.0, 6.0, 7.0],
    ])


@pytest.fixture
def fig1_lower(small_dense) -> CSRMatrix:
    return CSRMatrix.from_dense(small_dense)


@pytest.fixture
def poisson16() -> CSRMatrix:
    """16×16-grid 2-D Laplacian (order 256), the workhorse SPD matrix."""
    return stencil_poisson_2d(16)


@pytest.fixture
def spd_random() -> CSRMatrix:
    """Random diagonally dominant SPD matrix (order 120)."""
    return random_spd(120, density=0.05, seed=3)


def random_csr(rng: np.random.Generator, n: int, m: int,
               density: float = 0.1) -> CSRMatrix:
    """Helper: random CSR with the given density (importable by tests)."""
    dense = rng.random((n, m))
    dense[dense > density] = 0.0
    return CSRMatrix.from_dense(dense)


def run_interleaved(worker, n_threads: int) -> None:
    """Run ``worker(t)`` for every ``t < n_threads`` on its own thread,
    with the interpreter switching threads as often as it can, so an
    unguarded read-modify-write would lose updates (importable by
    tests)."""
    threads = [threading.Thread(target=worker, args=(t,))
               for t in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)


def kahn_levels(tri: CSRMatrix, *, kind: str = "lower") -> np.ndarray:
    """Oracle for :func:`repro.graph.level_schedule`'s ``level_of``.

    Kahn frontier propagation on the dependence DAG, vectorized: each
    round peels every vertex whose in-degree reaches zero, so a row's
    level is its longest dependence chain, found without the row sweep.
    """
    from repro.graph import dependence_dag

    dag = dependence_dag(tri, kind=kind)
    n = dag.n
    level_of = np.zeros(n, dtype=np.int64)
    in_deg = dag.in_degree.copy()
    frontier = np.flatnonzero(in_deg == 0)
    level = 0
    n_done = 0
    out_ptr, out_adj = dag.out_ptr, dag.out_adj
    while frontier.size:
        level_of[frontier] = level
        n_done += frontier.size
        starts = out_ptr[frontier]
        lens = out_ptr[frontier + 1] - starts
        total = int(lens.sum())
        if total == 0:
            break
        take = np.repeat(starts - np.concatenate(([0], np.cumsum(lens)[:-1])),
                         lens) + np.arange(total)
        dec = np.bincount(out_adj[take], minlength=n)
        in_deg -= dec
        frontier = np.flatnonzero((in_deg == 0) & (dec > 0))
        level += 1
    assert n_done == n, "dependence graph contains a cycle"
    return level_of
