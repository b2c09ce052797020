"""Fingerprint-grouped solver service for multi-request throughput.

Production solver workloads rarely arrive one right-hand side at a
time: time-stepping, multiple load cases, and uncertainty sweeps all
produce *many* ``(A, b)`` requests that share a handful of distinct
matrices.  :class:`SolverService` exploits that shape twice:

1. **One factorization per distinct matrix.**  Requests are grouped by
   :func:`~repro.perf.fingerprint.matrix_fingerprint`; each group builds
   its preconditioner through
   :func:`~repro.core.spcg.make_preconditioner`, so repeated matrices —
   within a flush or across flushes — hit the
   :class:`~repro.perf.cache.ArtifactCache` instead of refactorizing.
2. **One wavefront sweep per group, not per request.**  Each group is
   dispatched as a single :func:`~repro.batch.block.pcg_block` call, so
   the per-wavefront launches and barriers of the triangular solves are
   amortized over the whole batch (priced by
   :func:`~repro.machine.kernels.iteration_cost` at ``batch=B``).

Every flush emits ``batch_start``/``batch_end`` trace events carrying
the batch size.

Since the serving layer landed, :meth:`SolverService.flush` is a thin
wrapper over :class:`repro.serve.ServeScheduler` with the *degenerate*
batching window (zero wait, unbounded batch): every fingerprint group
dispatches immediately and whole, which reproduces the original flush
semantics exactly — same grouping, same column order, bitwise-equal
numerics — while the online path (deadlines, admission control,
continuous batching) shares one dispatch implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine.device import DeviceModel, get_device
from ..machine.kernels import iteration_cost
from ..obs.metrics import get_metrics
from ..perf.cache import ArtifactCache
from ..serve.request import validate_rhs, validate_x0
from ..solvers.result import SolveResult
from ..solvers.stopping import StoppingCriterion
from ..sparse.csr import CSRMatrix
from .block import BlockSolveResult

__all__ = ["SolveRequest", "GroupReport", "BatchReport", "SolverService"]


@dataclass(frozen=True)
class SolveRequest:
    """One pending ``A x = b`` request.

    ``tag`` is an opaque caller label (request id, load-case name) that
    rides along into the per-request result mapping.  ``x0`` is an
    optional warm-start guess carried into the block dispatch
    (sessions pass the previous step's solution here).
    """

    a: CSRMatrix
    b: np.ndarray
    tag: str = ""
    x0: np.ndarray | None = None


@dataclass
class GroupReport:
    """What one fingerprint group's batched dispatch did and cost.

    ``modeled_seconds_per_rhs`` is the throughput headline: total
    modeled block time divided by the batch size.  Because launches and
    wavefront barriers are paid once per sweep, it shrinks as the batch
    grows — the CI smoke step plots exactly this number for B=1 vs B=8.
    """

    fingerprint: str
    batch: int
    block_iters: int
    n_converged: int
    modeled_seconds: float
    modeled_seconds_per_rhs: float
    block: BlockSolveResult


@dataclass
class BatchReport:
    """Outcome of one :meth:`SolverService.flush`.

    ``results`` is index-aligned with submission order (the ``i``-th
    submitted request gets ``results[i]``) regardless of how requests
    were grouped internally.
    """

    results: list[SolveResult]
    tags: list[str]
    groups: list[GroupReport]

    @property
    def n_requests(self) -> int:
        return len(self.results)

    @property
    def all_converged(self) -> bool:
        return all(r.converged for r in self.results)

    @property
    def modeled_seconds(self) -> float:
        """Total modeled time across all grouped dispatches."""
        return sum(g.modeled_seconds for g in self.groups)


class SolverService:
    """Accepts ``(matrix, b)`` requests and dispatches them batched.

    Parameters
    ----------
    preconditioner, k:
        Forwarded to :func:`~repro.core.spcg.make_preconditioner`
        (``"ilu0"``, ``"iluk"``, ``"ic0"`` or ``"jacobi"``).
    criterion:
        Stopping rule shared by every request (paper default if
        ``None``).
    device:
        :class:`~repro.machine.device.DeviceModel` (or its name) used to
        price the batched kernels; the A100 model by default.
    cache:
        :class:`~repro.perf.cache.ArtifactCache` for preconditioner
        reuse — ``None`` uses the process-wide cache.  One factorization
        per distinct fingerprint is the service's cost invariant; the
        cache's ``misses_by_kind["preconditioner"]`` counter proves it.

    Examples
    --------
    >>> svc = SolverService(preconditioner="jacobi")
    >>> for b in rhs_list:
    ...     svc.submit(a, b)
    >>> report = svc.flush()
    >>> [r.converged for r in report.results]
    """

    def __init__(self, *, preconditioner: str = "ilu0", k: int = 1,
                 criterion: StoppingCriterion | None = None,
                 device: DeviceModel | str | None = None,
                 cache: ArtifactCache | None = None):
        self.kind = preconditioner
        self.k = int(k)
        self.criterion = criterion
        self.device = get_device(device)
        self.cache = cache
        self._pending: list[SolveRequest] = []

    def __len__(self) -> int:
        """Number of pending (not yet flushed) requests."""
        return len(self._pending)

    # ------------------------------------------------------------------
    def submit(self, a: CSRMatrix, b: np.ndarray, *, tag: str = "",
               x0: np.ndarray | None = None) -> int:
        """Queue one request; returns its submission index.

        Validation happens here (not at flush) so a malformed request
        fails at the call site that produced it:
        :class:`~repro.errors.ShapeError` for a bad shape,
        :class:`~repro.errors.InvalidRequestError` (naming *tag*) for a
        non-numeric dtype or NaN/Inf entries — the same contract for
        the optional warm start ``x0`` (shape ``(n,)``; scattered into
        the group's block dispatch, zero columns for cold requests).
        """
        b = validate_rhs(a, b, tag=tag)
        x0 = validate_x0(a, x0, tag=tag)
        self._pending.append(SolveRequest(a=a, b=b, tag=tag, x0=x0))
        return len(self._pending) - 1

    def solve(self, requests) -> BatchReport:
        """Convenience: submit every request and flush.

        Accepts :class:`SolveRequest` instances as well as plain
        ``(a, b)`` or ``(a, b, tag)`` tuples.
        """
        for req in requests:
            if isinstance(req, SolveRequest):
                self.submit(req.a, req.b, tag=req.tag, x0=req.x0)
            else:
                self.submit(*req[:2], tag=req[2] if len(req) > 2 else "")
        return self.flush()

    # ------------------------------------------------------------------
    def flush(self) -> BatchReport:
        """Dispatch the pending queue through the serving scheduler's
        degenerate batching window (zero wait, unbounded batch) and
        return per-request results in submission order.

        The scheduler groups by fingerprint and dispatches each group
        as one :func:`~repro.batch.block.pcg_block` — identical
        grouping, column order and numerics as the original one-shot
        flush.  The legacy :class:`GroupReport`/:class:`BatchReport`
        pricing (the *static* full-batch iteration cost times the
        block's sweep count) is recomputed here so downstream
        consumers keep their invariants; the scheduler's own trace
        events additionally carry the occupancy-aware pricing.
        """
        # Imported here, not at module top: repro.serve builds on
        # repro.batch (the scheduler drives pcg_block), so the service
        # reaches back up lazily to keep the layering acyclic.
        from ..serve.scheduler import BatchingWindow, ServeScheduler

        pending = self._pending
        self._pending = []

        sched = ServeScheduler(
            preconditioner=self.kind, k=self.k, criterion=self.criterion,
            device=self.device, cache=self.cache,
            window=BatchingWindow.degenerate())
        ids = [sched.submit(req.a, req.b, tag=req.tag, x0=req.x0)
               for req in pending]
        sched.run()

        results: list[SolveResult] = []
        for i in ids:
            out = sched.outcome(i)
            assert out is not None and out.result is not None
            results.append(out.result)

        fp_matrix: dict[str, CSRMatrix] = {}
        for req, i in zip(pending, ids):
            fp_matrix.setdefault(sched.outcome(i).fingerprint, req.a)

        reports: list[GroupReport] = []
        metrics = get_metrics()
        for d in sched.report().dispatches:
            a = fp_matrix[d.fingerprint]
            nb = d.n_served
            cost = iteration_cost(self.device, a, d.preconditioner,
                                  batch=nb)
            block: BlockSolveResult = d.block
            sweeps = block.block_iters
            seconds = cost.total * sweeps
            reports.append(GroupReport(
                fingerprint=d.fingerprint, batch=nb, block_iters=sweeps,
                n_converged=int(block.converged.sum()),
                modeled_seconds=seconds,
                modeled_seconds_per_rhs=seconds / nb, block=block))
            metrics.observe_phase("batched_solve", d.wall_seconds,
                                  seconds)

        return BatchReport(results=results,
                           tags=[req.tag for req in pending],
                           groups=reports)
