"""Batch-scaling study: per-RHS modeled cost versus batch size.

The multi-RHS counterpart of the per-matrix experiment: one matrix, one
preconditioner, a ladder of batch sizes, each dispatched through
:class:`~repro.batch.SolverService`.  The headline number is the modeled
seconds *per right-hand side* — on wavefront-bound matrices it shrinks
with the batch because each sweep's kernel launches and per-wavefront
barriers are paid once for the whole block (the same overheads the
paper's sparsification attacks from the other side).

All batch sizes share one :class:`~repro.perf.cache.ArtifactCache`, so
the whole ladder performs exactly one factorization — the study also
doubles as an end-to-end check of the service's fingerprint grouping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..batch.service import SolverService
from ..machine.device import DeviceModel, get_device
from ..perf.cache import ArtifactCache
from ..solvers.stopping import StoppingCriterion
from ..sparse.csr import CSRMatrix

__all__ = ["BatchPoint", "BatchScalingResult", "run_batch_scaling"]


@dataclass(frozen=True)
class BatchPoint:
    """One rung of the batch ladder.

    ``per_sweep_per_rhs_seconds`` divides out the iteration count, so it
    isolates the pure amortization effect even when larger batches need
    an extra sweep or two (the block runs until its *slowest* column
    converges).
    """

    batch: int
    block_iters: int
    n_converged: int
    modeled_seconds: float
    per_rhs_seconds: float
    per_sweep_per_rhs_seconds: float


@dataclass
class BatchScalingResult:
    """Outcome of :func:`run_batch_scaling`."""

    matrix: str
    n: int
    nnz: int
    preconditioner: str
    device: str
    points: list[BatchPoint]
    factorizations: int

    @property
    def per_rhs_speedup(self) -> float:
        """Per-RHS modeled time at the smallest batch over the largest."""
        first, last = self.points[0], self.points[-1]
        if last.per_rhs_seconds == 0.0:
            return float("inf") if first.per_rhs_seconds > 0 else 1.0
        return first.per_rhs_seconds / last.per_rhs_seconds

    def summary_table(self) -> str:
        """Aligned text table for CLI output / CI step summaries."""
        lines = [f"batch scaling on {self.matrix} "
                 f"(n={self.n}, nnz={self.nnz}, "
                 f"precond={self.preconditioner}, device={self.device})",
                 f"{'B':>4s} {'sweeps':>7s} {'conv':>5s} "
                 f"{'total[s]':>12s} {'per-RHS[s]':>12s} "
                 f"{'per-sweep-RHS[s]':>17s}"]
        for p in self.points:
            lines.append(f"{p.batch:4d} {p.block_iters:7d} "
                         f"{p.n_converged:5d} {p.modeled_seconds:12.3e} "
                         f"{p.per_rhs_seconds:12.3e} "
                         f"{p.per_sweep_per_rhs_seconds:17.3e}")
        lines.append(f"per-RHS speedup B={self.points[0].batch} -> "
                     f"B={self.points[-1].batch}: "
                     f"{self.per_rhs_speedup:.2f}x  "
                     f"(factorizations: {self.factorizations})")
        return "\n".join(lines)


def run_batch_scaling(a: CSRMatrix, *, name: str = "matrix",
                      batch_sizes: tuple[int, ...] = (1, 2, 4, 8),
                      preconditioner: str = "ilu0", k: int = 1,
                      device: DeviceModel | str | None = None,
                      criterion: StoppingCriterion | None = None,
                      seed: int = 0) -> BatchScalingResult:
    """Dispatch ``B`` seeded right-hand sides per rung of *batch_sizes*
    through a fresh :class:`~repro.batch.SolverService` sharing one
    artifact cache.

    The RHS set is drawn once (``max(batch_sizes)`` columns) and each
    rung takes a prefix, so growing the batch only *adds* columns —
    the comparison across rungs is of the same work, more aggregated.
    """
    if not batch_sizes:
        raise ValueError("batch_sizes must be non-empty")
    if any(b < 1 for b in batch_sizes):
        raise ValueError("batch sizes must be positive")
    device = get_device(device)
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal((a.n_rows, max(batch_sizes)))
    cache = ArtifactCache()

    points: list[BatchPoint] = []
    for nb in batch_sizes:
        svc = SolverService(preconditioner=preconditioner, k=k,
                            criterion=criterion, device=device, cache=cache)
        for j in range(nb):
            svc.submit(a, rhs[:, j], tag=f"rhs{j}")
        report = svc.flush()
        g = report.groups[0]
        sweeps = max(g.block_iters, 1)
        points.append(BatchPoint(
            batch=nb, block_iters=g.block_iters,
            n_converged=g.n_converged,
            modeled_seconds=g.modeled_seconds,
            per_rhs_seconds=g.modeled_seconds_per_rhs,
            per_sweep_per_rhs_seconds=g.modeled_seconds / (sweeps * nb)))

    return BatchScalingResult(
        matrix=name, n=a.n_rows, nnz=a.nnz,
        preconditioner=preconditioner, device=device.name, points=points,
        factorizations=cache.stats.misses_by_kind.get("preconditioner", 0))
