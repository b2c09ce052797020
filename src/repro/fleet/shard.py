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

:func:`sharded_pcg` runs Algorithm 1 in this decomposition.  Following
the repo's modeled-machine discipline (numerics on the host, costs
modeled), the arithmetic uses the single-device kernel — so the
iterates are **bitwise** those of :func:`~repro.solvers.cg.pcg` for
*any* shard count, which the determinism tests pin — while the shard
plan prices the communication the decomposition would pay, returned in
``result.extra["shard"]``.  :func:`shard_matvec` performs the actual
per-shard computation (concatenated row-block SpMVs) for the tests
that validate the decomposition numerically; it is bitwise equal to
the fused kernel, which sums every row on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..machine.link import LinkModel, time_allreduce, time_halo_exchange
from ..obs.trace import get_recorder
from ..precond.base import Preconditioner
from ..solvers.cg import pcg
from ..solvers.stopping import StoppingCriterion
from ..sparse.csr import CSRMatrix

__all__ = ["ShardInfo", "RowShardPlan", "partition_rows",
           "plan_row_shards", "halo_exchange_seconds", "shard_matrices",
           "shard_matvec", "sharded_pcg"]


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


def partition_rows(n: int, n_shards: int) -> tuple[int, ...]:
    """Balanced contiguous row bounds: ``n_shards + 1`` fenceposts."""
    n = int(n)
    n_shards = int(n_shards)
    if n_shards < 1:
        raise ValueError(f"n_shards must be at least 1, got {n_shards}")
    if n_shards > n:
        raise ValueError(
            f"cannot split {n} rows into {n_shards} non-empty shards")
    base, extra = divmod(n, n_shards)
    bounds = [0]
    for d in range(n_shards):
        bounds.append(bounds[-1] + base + (1 if d < extra else 0))
    return tuple(bounds)


def plan_row_shards(a: CSRMatrix, n_shards: int) -> RowShardPlan:
    """Partition *a*'s rows into ``n_shards`` contiguous blocks and
    measure each block's halo (off-shard columns its rows read)."""
    if a.shape[0] != a.shape[1]:
        raise ShapeError("row sharding requires a square matrix")
    n = a.n_rows
    bounds = partition_rows(n, n_shards)
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


def sharded_pcg(a: CSRMatrix, b: np.ndarray,
                preconditioner: Preconditioner | None = None, *,
                n_shards: int, link: LinkModel,
                x0: np.ndarray | None = None,
                criterion: StoppingCriterion | None = None,
                value_bytes: int = 8):
    """Row-sharded PCG spanning ``n_shards`` devices, halo priced.

    Numerically this *is* :func:`~repro.solvers.cg.pcg` — the host
    arithmetic runs the single-device kernel, so iterates, residual
    history, and termination are **bitwise identical** for any shard
    count (the preconditioner should be row-local — ``None``, Jacobi,
    or a block-Jacobi aligned with the partition — for the modeled
    decomposition to be faithful; a row-coupling preconditioner would
    need communication this model does not price).  What changes is
    the communication profile attached to the result:

    ``result.extra["shard"]`` carries the plan's halo measurements and
    the per-iteration modeled link seconds — one halo exchange per SpMV
    plus three scalar allreduces (two in-loop dots and the norm check)
    — which the fleet cost model and benchmarks consume.  Both terms
    are exactly zero at ``n_shards=1`` and the halo term is exactly
    zero for cut-free partitions.
    """
    plan = plan_row_shards(a, n_shards)
    bounds = plan.bounds
    result = pcg(a, b, preconditioner, x0=x0, criterion=criterion)
    halo_s = halo_exchange_seconds(plan, link, value_bytes=value_bytes)
    allreduce_s = 3.0 * time_allreduce(link, plan.n_shards, 8)
    result.extra["shard"] = {
        "n_shards": plan.n_shards,
        "bounds": list(bounds),
        "cut_nnz": plan.cut_nnz,
        "max_halo_values": plan.max_halo_values,
        "max_halo_messages": plan.max_halo_messages,
        "halo_seconds_per_spmv": halo_s,
        "allreduce_seconds_per_iter": allreduce_s,
        "comm_seconds_per_iter": halo_s + allreduce_s,
        "comm_seconds_total": result.n_iters * (halo_s + allreduce_s),
    }
    rec = get_recorder()
    if rec.enabled:
        rec.emit("shard_solve", n_shards=plan.n_shards, n=plan.n,
                 link=link.name, cut_nnz=plan.cut_nnz,
                 halo_values=plan.max_halo_values,
                 n_iters=result.n_iters, reason=result.reason.name,
                 comm_seconds_total=result.extra["shard"][
                     "comm_seconds_total"])
    return result
