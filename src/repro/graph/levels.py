"""Level scheduling (wavefront computation) for triangular solves.

:func:`level_schedule` is the textbook row sweep,
``level[i] = 1 + max(level[j] : T[i,j] != 0, j off the diagonal)``, one
pass over the stored entries, so its cost grows with ``nnz`` and not
with ``n × levels``.  The tests hold it to an independent oracle: Kahn
frontier propagation on the dependence DAG.

It returns a :class:`LevelSchedule`, whose flattened layout
(``rows``/``level_ptr``) is consumed directly by the level-scheduled
triangular solver and the machine model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..sparse.csr import CSRMatrix
from ..sparse.ops import extract_lower
from .dag import _entry_rows

__all__ = [
    "LevelSchedule",
    "level_schedule",
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


def level_schedule(tri: CSRMatrix, *, kind: str = "lower") -> LevelSchedule:
    """Row-sweep level assignment: ``level[i] = 1 + max(level[j])``.

    The maximum runs over row *i*'s off-diagonal entries (0 for a row
    without any), sweeping rows ascending for ``kind="lower"`` and
    descending for ``"upper"``, so every dependence is final before it
    is read.  One pass over the stored entries: O(nnz), whatever the
    number of levels.  The loop reads zero-copy ``memoryview`` slices of
    the index array, so it allocates no Python copy of the pattern.

    Raises :class:`~repro.errors.NotTriangularError` for a non-square
    input or an entry on the wrong side of the diagonal: the sweep
    relies on every dependence lying on the swept side.
    """
    _entry_rows(tri, kind)
    n = tri.n_rows
    ptr, cols = memoryview(tri.indptr), memoryview(tri.indices)
    level = [0] * n
    for i in range(n) if kind == "lower" else range(n - 1, -1, -1):
        top = 0
        for j in cols[ptr[i]:ptr[i + 1]]:
            if j != i and level[j] >= top:
                top = level[j] + 1
        level[i] = top
    return _schedule_from_levels(np.array(level, dtype=np.int64))


def wavefront_count(a: CSRMatrix) -> int:
    """Number of wavefronts of the lower triangle of *a*.

    This is the quantity ``w_A`` in Algorithm 2: ILU(0) preserves the
    sparsity pattern, so the wavefronts of the eventual ``L`` factor equal
    those of ``tril(A)``.  For a non-triangular *a*, the lower triangle is
    extracted first.
    """
    lower = extract_lower(a)
    return level_schedule(lower).n_levels
