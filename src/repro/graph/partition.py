"""Fenced row partitioning of a triangular factor — the inspector of
the domain-decomposition SpTRSV that the cost model prices.

Level scheduling is one point in the SpTRSV design space: it exposes
maximal row parallelism at the price of one device-wide barrier per
wavefront.  *Mapping Sparse Triangular Solves to GPUs via Fine-grained
Domain Decomposition* (arXiv 2508.04917) occupies another point: cut the
factor into ``P`` contiguous-row **diagonal sub-triangles**, each solved
independently by one thread block (intra-partition level boundaries are
block-local syncs, not device barriers), plus an off-diagonal
**coupling block** ``C`` holding every entry that crosses a fence.  A
block-Jacobi correction loop then repairs the cross-partition
dependences: sweep *s* refreshes every partition still downstream of an
inexact one with ``x_p = T_p⁻¹ (b_p − (C x)_p)``.

The loop terminates *exactly* (not approximately): partition *p* is
exact after sweep ``depth[p]``, where ``depth`` is the wavefront level
of *p* in the **condensed** P×P dependence DAG (partition *q* → *p*
whenever any entry of *tri* couples them).  That condensed schedule is
computed by running the existing :func:`~repro.graph.levels.level_schedule`
machinery on a P×P matrix with one nonzero per coupled partition pair —
the dependence-DAG inspector reused one level up.

No executor runs the partitioned solve.
:func:`repro.precond.engine.plan_trisolve` prices it on a device model
from :func:`partition_rows` and :func:`partition_profiles`, through
:func:`repro.machine.kernels.time_trisolve_partitioned`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..sparse.csr import CSRMatrix
from .levels import level_schedule

__all__ = [
    "RowPartition",
    "partition_rows",
    "split_partition",
    "partition_profiles",
    "level_profile",
]


@dataclass(frozen=True)
class RowPartition:
    """A fenced contiguous-row partition of a triangular matrix.

    Attributes
    ----------
    kind:
        ``"lower"`` or ``"upper"`` — the triangle the fences were cut
        for (determines the direction of the condensed DAG).
    fences:
        ``(P + 1,)`` row boundaries; partition *p* owns rows
        ``fences[p]:fences[p+1]`` (every partition is non-empty).
    depth:
        ``(P,)`` wavefront level of each partition in the condensed
        partition-dependence DAG.  Partition *p* is exact after
        correction sweep ``depth[p]``; ``n_sweeps = depth.max()``.
    coupling_nnz:
        Entries of the matrix that cross a fence (the nonzeros of the
        coupling block ``C``).
    coupling_rows:
        Rows with at least one coupling entry (the rows the correction
        SpMV actually touches — its utilization input).
    """

    kind: str
    fences: np.ndarray
    depth: np.ndarray
    coupling_nnz: int
    coupling_rows: int

    @property
    def n(self) -> int:
        """Matrix order the fences span."""
        return int(self.fences[-1])

    @property
    def n_parts(self) -> int:
        return int(self.fences.shape[0]) - 1

    @property
    def n_sweeps(self) -> int:
        """Correction sweeps until every partition is exact."""
        return int(self.depth.max(initial=0))

    def rows_of(self, p: int) -> tuple[int, int]:
        """Half-open row range ``[lo, hi)`` of partition *p*."""
        return int(self.fences[p]), int(self.fences[p + 1])


def _balanced_fences(tri: CSRMatrix, n_parts: int) -> np.ndarray:
    """Contiguous fences balancing stored nonzeros across partitions.

    Each fence lands where the cumulative nonzero count crosses the next
    ``total/P`` target, then is repaired to keep every partition
    non-empty (at least one row) and the fences strictly increasing.
    """
    n = tri.n_rows
    p = max(1, min(int(n_parts), n))
    cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(tri.row_lengths(), out=cum[1:])
    targets = cum[-1] * np.arange(1, p, dtype=np.float64) / p
    inner = np.searchsorted(cum, targets, side="left").astype(np.int64)
    fences = np.empty(p + 1, dtype=np.int64)
    fences[0], fences[-1] = 0, n
    fences[1:-1] = inner
    # Repair: strictly increasing with ≥ 1 row per partition.
    for k in range(1, p):
        fences[k] = max(fences[k], fences[k - 1] + 1)
    for k in range(p - 1, 0, -1):
        fences[k] = min(fences[k], fences[k + 1] - 1)
    return fences


def partition_rows(tri: CSRMatrix, n_parts: int, *,
                   kind: str = "lower") -> RowPartition:
    """Inspect *tri* and build a :class:`RowPartition` of ``P`` fences.

    Fences are placed to balance stored nonzeros (the sub-triangle solve
    work); the requested ``n_parts`` is clamped to ``[1, n]``.  The
    condensed partition DAG is then level-scheduled to obtain the
    per-partition correction depths — the exact number of Jacobi sweeps
    each partition needs (see the module docstring).
    """
    if kind not in ("lower", "upper"):
        raise ValueError(f"kind must be 'lower' or 'upper', got {kind!r}")
    if tri.shape[0] != tri.shape[1]:
        raise ShapeError(f"partitioning requires a square matrix, "
                         f"got {tri.shape}")
    if n_parts < 1:
        raise ValueError(f"n_parts must be at least 1, got {n_parts}")
    n = tri.n_rows
    fences = _balanced_fences(tri, n_parts)
    p = fences.shape[0] - 1

    rid = np.repeat(np.arange(n, dtype=np.int64), tri.row_lengths())
    part = np.searchsorted(fences, rid, side="right") - 1
    cpart = np.searchsorted(fences, tri.indices, side="right") - 1
    cross = part != cpart
    coupling_nnz = int(np.count_nonzero(cross))
    coupling_rows = int(np.unique(rid[cross]).shape[0])

    if p == 1 or coupling_nnz == 0:
        depth = np.zeros(p, dtype=np.int64)
        return RowPartition(kind=kind, fences=fences, depth=depth,
                            coupling_nnz=coupling_nnz,
                            coupling_rows=coupling_rows)

    # Condensed P×P dependence matrix: one entry per coupled partition
    # pair, level-scheduled with the same machinery as the row-level DAG.
    pair = np.unique(part[cross] * p + cpart[cross])
    prow, pcol = pair // p, pair % p
    indptr = np.zeros(p + 1, dtype=np.int64)
    np.add.at(indptr, prow + 1, 1)
    np.cumsum(indptr, out=indptr)
    condensed = CSRMatrix(indptr, pcol.astype(np.int64),
                          np.ones(pair.shape[0], dtype=np.float64),
                          (p, p), check=False)
    depth = level_schedule(condensed, kind=kind).level_of.astype(np.int64)
    return RowPartition(kind=kind, fences=fences, depth=depth,
                        coupling_nnz=coupling_nnz,
                        coupling_rows=coupling_rows)


def split_partition(tri: CSRMatrix, part: RowPartition
                    ) -> tuple[list[CSRMatrix], CSRMatrix]:
    """Split *tri* into per-partition diagonal blocks + the coupling block.

    Returns ``(subs, coupling)`` where ``subs[p]`` is the diagonal
    sub-triangle of partition *p* with **local** indices (shape
    ``(rows_p, rows_p)``) and ``coupling`` is the n×n block of every
    fence-crossing entry with **global** indices.  Entry order is
    preserved (row-major, ascending columns), so the blocks are
    canonical whenever *tri* is.
    """
    n = tri.n_rows
    if part.n != n:
        raise ShapeError("partition order does not match the matrix")
    fences = part.fences
    rid = np.repeat(np.arange(n, dtype=np.int64), tri.row_lengths())
    same = (np.searchsorted(fences, rid, side="right")
            == np.searchsorted(fences, tri.indices, side="right"))
    subs: list[CSRMatrix] = []
    for p in range(part.n_parts):
        lo, hi = part.rows_of(p)
        mask = same & (rid >= lo) & (rid < hi)
        counts = np.bincount(rid[mask] - lo, minlength=hi - lo)
        indptr = np.zeros(hi - lo + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        subs.append(CSRMatrix(indptr, tri.indices[mask] - lo,
                              tri.data[mask], (hi - lo, hi - lo),
                              check=False))
    cmask = ~same
    ccounts = np.bincount(rid[cmask], minlength=n)
    cindptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(ccounts, out=cindptr[1:])
    coupling = CSRMatrix(cindptr, tri.indices[cmask], tri.data[cmask],
                         (n, n), check=False)
    return subs, coupling


def level_profile(tri: CSRMatrix, kind: str
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Per-wavefront ``(rows, nnz)`` of the level-scheduled solve of *tri*.

    Pattern-only: level-schedules *tri* and counts its off-diagonal
    entries per wavefront (plus one diagonal op per row), which is what
    :meth:`~repro.precond.triangular.ScheduledTriangularSolver.kernel_profile`
    reports for it without building the executor.
    """
    n = tri.n_rows
    sched = level_schedule(tri, kind=kind)
    rid = np.repeat(np.arange(n, dtype=np.int64), tri.row_lengths())
    off = tri.indices < rid if kind == "lower" else tri.indices > rid
    off_per_row = np.bincount(rid[off], minlength=n)
    cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(off_per_row[sched.rows], out=cum[1:])
    rows_per_level = np.diff(sched.level_ptr)
    nnz_off = np.diff(cum[sched.level_ptr])
    return rows_per_level, nnz_off + rows_per_level


def partition_profiles(tri: CSRMatrix, part: RowPartition
                       ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-partition :func:`level_profile` of each diagonal sub-triangle,
    the kernel profiles the cost-model planner prices."""
    subs, _ = split_partition(tri, part)
    return [level_profile(sub, part.kind) for sub in subs]
