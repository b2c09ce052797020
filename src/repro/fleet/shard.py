"""Row-sharding one matrix across fleet devices, with halo analysis.

A matrix too large for one modeled device is split into contiguous row
blocks, one per device.  Each device owns the rows of its block and the
matching slice of every CG vector.  One CG iteration then needs:

* **SpMV** — each device multiplies its row block against the full
  ``x``.  The entries of ``x`` it does not own — the **halo** — must
  arrive from their owner devices first; :func:`plan_row_shards`
  measures exactly which columns those are, and
  :func:`~repro.machine.link.time_halo_exchange` prices the transfer.
  A partition with no cut edges (block-diagonal matrix split on its
  block boundaries) has an empty halo and pays **exactly zero**.
* **dots** — every inner product becomes a partial sum plus an
  allreduce, priced by :func:`~repro.machine.link.time_allreduce`.

Following the repo's modeled-machine discipline (numerics on the host,
costs modeled), a row-sharded solve is plain :func:`~repro.solvers.cg.pcg`
— its iterates do not depend on the shard count — and
:func:`shard_comm_seconds` prices the communication one of its
iterations would pay.  :func:`shard_matvec` performs the actual
per-shard computation (concatenated row-block SpMVs) for the tests
that validate the decomposition numerically; it is bitwise equal to
the fused kernel, which sums every row on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..machine.link import LinkModel, time_allreduce, time_halo_exchange
from ..sparse.csr import CSRMatrix

__all__ = ["ShardInfo", "RowShardPlan", "plan_row_shards",
           "halo_exchange_seconds", "shard_comm_seconds", "shard_matrices",
           "shard_matvec"]


@dataclass(frozen=True)
class ShardInfo:
    """One device's row block and its communication footprint."""

    device: int
    row_start: int
    row_stop: int
    #: Number of distinct off-shard columns this shard's rows read —
    #: the x-entries that must arrive before its SpMV can run.
    halo_values: int
    #: Number of distinct other shards owning those columns (messages
    #: received per iteration).
    halo_messages: int
    #: Stored entries whose column lies outside the shard (cut edges).
    cut_nnz: int

    @property
    def n_rows(self) -> int:
        return self.row_stop - self.row_start


@dataclass(frozen=True)
class RowShardPlan:
    """Contiguous row partition of an ``n × n`` matrix over devices."""

    n: int
    bounds: tuple[int, ...]
    shards: tuple[ShardInfo, ...]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def cut_nnz(self) -> int:
        """Total stored entries crossing a shard boundary."""
        return sum(s.cut_nnz for s in self.shards)

    @property
    def has_cut_edges(self) -> bool:
        return self.cut_nnz > 0

    @property
    def max_halo_values(self) -> int:
        """Largest per-shard halo (the slowest device sets the price)."""
        return max((s.halo_values for s in self.shards), default=0)

    @property
    def max_halo_messages(self) -> int:
        return max((s.halo_messages for s in self.shards), default=0)

    def owner(self, col: int) -> int:
        """Device owning row/column *col*."""
        return int(np.searchsorted(self.bounds, col, side="right") - 1)


def plan_row_shards(a: CSRMatrix, n_shards: int) -> RowShardPlan:
    """Partition *a*'s rows into ``n_shards`` balanced contiguous
    blocks (sizes differ by at most one, the larger blocks first) and
    measure each block's halo (off-shard columns its rows read)."""
    if a.shape[0] != a.shape[1]:
        raise ShapeError("row sharding requires a square matrix")
    n = a.n_rows
    n_shards = int(n_shards)
    if n_shards < 1:
        raise ValueError(f"n_shards must be at least 1, got {n_shards}")
    if n_shards > n:
        raise ValueError(
            f"cannot split {n} rows into {n_shards} non-empty shards")
    base, extra = divmod(n, n_shards)
    bounds = tuple(d * base + min(d, extra) for d in range(n_shards + 1))
    shard_of_col = np.searchsorted(bounds, np.arange(n), side="right") - 1
    shards = []
    for d in range(n_shards):
        start, stop = bounds[d], bounds[d + 1]
        lo, hi = int(a.indptr[start]), int(a.indptr[stop])
        cols = a.indices[lo:hi]
        external = cols[(cols < start) | (cols >= stop)]
        halo_cols = np.unique(external)
        owners = np.unique(shard_of_col[halo_cols]) if halo_cols.size else \
            np.empty(0, dtype=int)
        shards.append(ShardInfo(
            device=d, row_start=start, row_stop=stop,
            halo_values=int(halo_cols.size),
            halo_messages=int(owners.size),
            cut_nnz=int(external.size)))
    return RowShardPlan(n=n, bounds=bounds, shards=tuple(shards))


def halo_exchange_seconds(plan: RowShardPlan, link: LinkModel, *,
                          value_bytes: int = 8) -> float:
    """Modeled seconds one SpMV's halo exchange costs the fleet.

    Devices exchange in parallel; the slowest shard (most messages,
    largest halo) sets the bill.  Exactly ``0.0`` for a partition with
    no cut edges, and for the single-shard plan.
    """
    return time_halo_exchange(link, plan.max_halo_messages,
                              plan.max_halo_values * value_bytes)


def shard_matrices(a: CSRMatrix, plan: RowShardPlan) -> list[CSRMatrix]:
    """The per-device row-block submatrices of *a* under *plan*."""
    sub = []
    for d in range(plan.n_shards):
        start, stop = plan.bounds[d], plan.bounds[d + 1]
        lo, hi = int(a.indptr[start]), int(a.indptr[stop])
        indptr = a.indptr[start:stop + 1] - a.indptr[start]
        sub.append(CSRMatrix(indptr, a.indices[lo:hi], a.data[lo:hi],
                             (stop - start, a.n_cols)))
    return sub


def shard_matvec(a: CSRMatrix, plan: RowShardPlan,
                 x: np.ndarray) -> np.ndarray:
    """``A @ x`` computed the distributed way: per-shard row-block
    SpMVs, concatenated.  Bitwise equal to :meth:`CSRMatrix.matvec`,
    since every row is summed on its own — the decomposition-validity
    test."""
    return np.concatenate([s.matvec(x) for s in shard_matrices(a, plan)])


def shard_comm_seconds(plan: RowShardPlan, link: LinkModel, *,
                       value_bytes: int = 8) -> float:
    """Modeled link seconds one PCG iteration pays under *plan*.

    One halo exchange per SpMV (:func:`halo_exchange_seconds`) plus
    three scalar allreduces — the two in-loop dots and the norm check.
    Exactly ``0.0`` at one shard; the halo term is exactly zero for a
    cut-free partition.  The preconditioner should be row-local
    (``None``, Jacobi, or a block-Jacobi aligned with the partition): a
    row-coupling one would need communication this bill leaves out.
    """
    return (halo_exchange_seconds(plan, link, value_bytes=value_bytes)
            + 3.0 * time_allreduce(link, plan.n_shards, 8))
