"""Level scheduling (wavefront computation) for triangular solves.

Two interchangeable algorithms are provided:

* :func:`level_schedule_reference` — the textbook row sweep,
  ``level[i] = 1 + max(level[j] : L[i,j] != 0, j < i)``, an O(nnz) Python
  loop kept as an executable specification;
* :func:`level_schedule` — vectorized Kahn frontier propagation on the
  dependence DAG: each round peels all in-degree-0 vertices at once with
  ``np.bincount``, so the Python-level work is O(#levels), not O(n).

Both return a :class:`LevelSchedule`, whose flattened layout
(``rows``/``level_ptr``) is consumed directly by the level-scheduled
triangular solver and the machine model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..sparse.csr import CSRMatrix
from ..sparse.ops import extract_lower
from .dag import dependence_dag

__all__ = [
    "LevelSchedule",
    "level_schedule",
    "level_schedule_reference",
    "wavefront_count",
]


@dataclass(frozen=True)
class LevelSchedule:
    """A wavefront schedule for a triangular matrix.

    Attributes
    ----------
    level_of:
        ``level_of[i]`` is the 0-based wavefront of row *i*.
    rows:
        All row indices, grouped by level (ascending level, ascending row
        within a level).
    level_ptr:
        ``rows[level_ptr[k]:level_ptr[k+1]]`` is wavefront *k*; length is
        ``n_levels + 1``.
    """

    level_of: np.ndarray
    rows: np.ndarray
    level_ptr: np.ndarray

    @property
    def n_levels(self) -> int:
        """Number of wavefronts (synchronization steps)."""
        return int(self.level_ptr.shape[0]) - 1

    @property
    def n_rows(self) -> int:
        return int(self.level_of.shape[0])

    @cached_property
    def level_sizes(self) -> np.ndarray:
        """Rows per wavefront."""
        return np.diff(self.level_ptr)

    def level_rows(self, k: int) -> np.ndarray:
        """Row indices of wavefront *k*."""
        return self.rows[self.level_ptr[k]:self.level_ptr[k + 1]]

    @property
    def mean_parallelism(self) -> float:
        """Average rows per wavefront — the schedule's exploitable width."""
        return self.n_rows / self.n_levels if self.n_levels else 0.0

    def validate_against(self, tri: CSRMatrix, *, kind: str = "lower") -> None:
        """Assert the schedule respects every dependence of *tri*.

        Used by tests: every off-diagonal entry ``T[i, j]`` must satisfy
        ``level_of[j] < level_of[i]``.  The level-scheduled solver makes
        the same check, on the levels its ``rows``/``level_ptr`` layout
        assigns, whenever it is built, and raises
        :class:`~repro.errors.ScheduleError` instead.
        """
        n = tri.n_rows
        rows = np.repeat(np.arange(n, dtype=np.int64), tri.row_lengths())
        cols = tri.indices
        off = (cols < rows) if kind == "lower" else (cols > rows)
        if np.any(self.level_of[cols[off]] >= self.level_of[rows[off]]):
            raise AssertionError("schedule violates a dependence")


def _schedule_from_levels(level_of: np.ndarray) -> LevelSchedule:
    n = level_of.shape[0]
    if n == 0:
        return LevelSchedule(level_of=level_of,
                             rows=np.empty(0, dtype=np.int64),
                             level_ptr=np.zeros(1, dtype=np.int64))
    n_levels = int(level_of.max()) + 1
    order = np.argsort(level_of, kind="stable")
    counts = np.bincount(level_of, minlength=n_levels)
    level_ptr = np.zeros(n_levels + 1, dtype=np.int64)
    np.cumsum(counts, out=level_ptr[1:])
    return LevelSchedule(level_of=level_of, rows=order.astype(np.int64),
                         level_ptr=level_ptr)


def level_schedule_reference(tri: CSRMatrix, *, kind: str = "lower"
                             ) -> LevelSchedule:
    """Row-sweep level assignment — the executable specification.

    O(nnz) with a Python-level loop over rows; prefer
    :func:`level_schedule` for large matrices.
    """
    n = tri.n_rows
    level_of = np.zeros(n, dtype=np.int64)
    indptr, indices = tri.indptr, tri.indices
    row_iter = range(n) if kind == "lower" else range(n - 1, -1, -1)
    for i in row_iter:
        cols = indices[indptr[i]:indptr[i + 1]]
        deps = cols[cols < i] if kind == "lower" else cols[cols > i]
        if deps.size:
            level_of[i] = level_of[deps].max() + 1
    return _schedule_from_levels(level_of)


def level_schedule(tri: CSRMatrix, *, kind: str = "lower") -> LevelSchedule:
    """Vectorized Kahn frontier propagation on the dependence DAG.

    Each round gathers the children of the entire current frontier with a
    single concatenated slice-take and decrements their in-degrees with
    ``np.bincount``; vertices reaching zero form the next frontier.  The
    Python loop runs once per *level*, so schedules with few wavefronts —
    the ones sparsification produces — are also the cheapest to compute.
    """
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
        # Gather all children of the frontier in one shot.
        starts = out_ptr[frontier]
        ends = out_ptr[frontier + 1]
        lens = ends - starts
        total = int(lens.sum())
        if total == 0:
            break
        # Build the index vector [s0..e0-1, s1..e1-1, ...] without a Python
        # loop: offset each segment's start by its position in the output.
        take = np.repeat(starts - np.concatenate(([0], np.cumsum(lens)[:-1])),
                         lens) + np.arange(total)
        children = out_adj[take]
        dec = np.bincount(children, minlength=n)
        in_deg -= dec
        newly = np.flatnonzero((in_deg == 0) & (dec > 0))
        frontier = newly
        level += 1
    if n_done != n:
        # Cannot happen for a valid triangular input; guard against cycles
        # introduced by a malformed matrix.
        raise ValueError("dependence graph contains a cycle; "
                         "input is not lower triangular")
    return _schedule_from_levels(level_of)


def wavefront_count(a: CSRMatrix) -> int:
    """Number of wavefronts of the lower triangle of *a*.

    This is the quantity ``w_A`` in Algorithm 2: ILU(0) preserves the
    sparsity pattern, so the wavefronts of the eventual ``L`` factor equal
    those of ``tril(A)``.  For a non-triangular *a*, the lower triangle is
    extracted first.
    """
    lower = extract_lower(a)
    return level_schedule(lower).n_levels
