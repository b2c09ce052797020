"""Kernel cost functions and the PCG per-iteration cost assembly.

Each function prices one GPU kernel (or CPU parallel region) with a
roofline rule: ``launch + max(flops / (peak · util), bytes / BW, floor)``.
The triangular solve and the level-scheduled factorization iterate that
rule per wavefront, adding the inter-wavefront synchronization — the cost
the paper's sparsification removes.

The kernels of Algorithm 1 take ``batch`` — the number of right-hand-side
columns one launch serves (default 1): launches and synchronizations are
paid once, FLOPs and vector bytes scale with ``batch``.  At ``batch=1``
each rule is the single-vector one exactly (the extra factors are 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..precond.base import Preconditioner
from ..sparse.csr import CSRMatrix
from .device import DeviceModel

__all__ = [
    "time_spmv",
    "time_dot",
    "time_axpy",
    "time_trisolve",
    "time_trisolve_partitioned",
    "time_ilu_factorization",
    "time_ainv_setup",
    "time_precond_setup",
    "time_sparsification",
    "IterationCost",
    "iteration_cost",
    "estimate_request_seconds",
    "ValueTraffic",
    "iteration_value_traffic",
    "time_checkpoint",
    "time_abft_check",
    "time_residual_check",
    "time_staleness_check",
    "time_deflation_setup",
    "time_deflation_apply",
]


def _check_batch(batch: int) -> int:
    batch = int(batch)
    if batch < 1:
        raise ValueError(f"batch must be at least 1, got {batch}")
    return batch


def _roofline(dev: DeviceModel, flops: float, bytes_: float,
              util: float = 1.0) -> float:
    """Execution time of one kernel body under the roofline model."""
    util = min(max(util, 1e-9), 1.0)
    t_compute = flops / (dev.peak_flops * util)
    t_memory = bytes_ / (dev.mem_bandwidth * min(1.0, np.sqrt(util) * 4))
    return max(t_compute, t_memory, dev.min_kernel_time)


def _level_bodies(dev: DeviceModel, rows: np.ndarray, flops: np.ndarray,
                  bytes_: np.ndarray, floor: float) -> np.ndarray:
    """Per-wavefront roofline bodies: each level runs at the row
    utilization ``rows / row_slots`` (``rows`` already counts every
    batched column), and no body is shorter than *floor*."""
    util = np.maximum(np.minimum(1.0, rows / dev.row_slots), 1e-9)
    t_compute = flops / (dev.peak_flops * util)
    t_memory = bytes_ / (dev.mem_bandwidth
                         * np.minimum(1.0, np.sqrt(util) * 4))
    return np.maximum(np.maximum(t_compute, t_memory), floor)


def time_spmv(dev: DeviceModel, n_rows: int, nnz: int, batch: int = 1, *,
              value_bytes: int | None = None) -> float:
    """CSR SpMV against ``batch`` columns: 2 FLOPs/nnz per column; one
    launch streams the values and indices once, and per column the x
    gather and y write.  ``value_bytes`` overrides the device's default
    value width (per-dtype traffic, e.g. float32 factors)."""
    batch = _check_batch(batch)
    vb = dev.value_bytes if value_bytes is None else int(value_bytes)
    flops = 2.0 * nnz * batch
    bytes_ = (nnz * (vb + dev.index_bytes)
              + n_rows * dev.index_bytes
              + batch * n_rows * 2 * vb)
    util = min(1.0, n_rows * batch / dev.row_slots)
    return dev.launch_overhead + _roofline(dev, flops, bytes_, util)


def time_dot(dev: DeviceModel, n: int, batch: int = 1) -> float:
    """``batch`` inner products in one reduction kernel: 2n FLOPs and
    2n values read per column; launch and sync paid once."""
    batch = _check_batch(batch)
    flops = 2.0 * n * batch
    bytes_ = 2.0 * n * batch * dev.value_bytes
    util = min(1.0, n * batch / dev.parallel_lanes)
    return (dev.launch_overhead + dev.sync_overhead
            + _roofline(dev, flops, bytes_, util))


def time_axpy(dev: DeviceModel, n: int, batch: int = 1) -> float:
    """AXPY-style vector update of ``batch`` columns (per-column
    scalars) in one launch: 2n FLOPs, 2 reads + 1 write per element."""
    batch = _check_batch(batch)
    flops = 2.0 * n * batch
    bytes_ = 3.0 * n * batch * dev.value_bytes
    util = min(1.0, n * batch / dev.parallel_lanes)
    return dev.launch_overhead + _roofline(dev, flops, bytes_, util)


def time_trisolve(dev: DeviceModel, rows_per_level: np.ndarray,
                  nnz_per_level: np.ndarray, batch: int = 1, *,
                  value_bytes: int | None = None) -> float:
    """Level-scheduled sparse triangular solve over ``batch`` columns.

    One kernel per wavefront; between consecutive wavefronts a device-wide
    barrier.  Narrow wavefronts (fewer rows than the device's row slots)
    run at proportionally reduced utilization — the structural reason
    wavefront reduction translates into per-iteration speedup
    (Section 5.2 of the paper).

    This is also where multi-RHS batching pays: the per-wavefront
    launches and barriers — the terms sparsification attacks — are paid
    **once per sweep regardless of batch**, while each level's roofline
    body scales its FLOPs and value traffic by ``batch`` (indices are
    read once) at ``batch``-fold improved row utilization.  Per-RHS time
    therefore shrinks monotonically with batch size, most steeply for
    wavefront-bound (many narrow levels) factors.

    Parameters
    ----------
    rows_per_level, nnz_per_level:
        Output of
        :meth:`repro.precond.triangular.ScheduledTriangularSolver.kernel_profile`.
    value_bytes:
        Optional per-dtype value width overriding ``dev.value_bytes``
        (float32 factors halve the dominant kernel's value traffic).
    """
    batch = _check_batch(batch)
    vb = dev.value_bytes if value_bytes is None else int(value_bytes)
    rows_per_level = np.asarray(rows_per_level, dtype=np.float64)
    nnz_per_level = np.asarray(nnz_per_level, dtype=np.float64)
    if rows_per_level.shape != nnz_per_level.shape:
        raise ValueError("per-level arrays must have equal length")
    n_levels = rows_per_level.shape[0]
    if n_levels == 0:
        return 0.0
    body = _level_bodies(
        dev, rows_per_level * batch, 2.0 * nnz_per_level * batch,
        nnz_per_level * (vb * batch + dev.index_bytes)
        + rows_per_level * (2 * vb * batch + dev.index_bytes),
        dev.min_kernel_time)
    return float(n_levels * dev.launch_overhead
                 + (n_levels - 1) * dev.sync_overhead
                 + body.sum())


def time_trisolve_partitioned(dev: DeviceModel,
                              profiles: list,
                              depth: np.ndarray,
                              coupling_rows: int,
                              coupling_nnz: int, *,
                              internal_sync_fraction: float = 0.15
                              ) -> float:
    """Domain-decomposition triangular solve (partitioned SpTRSV,
    arXiv 2508.04917), priced for one right-hand side.

    Nothing runs this engine: :func:`repro.precond.engine.plan_trisolve`
    prices it against :func:`time_trisolve` from the partition
    inspector's output.  The execution shape priced here:

    * **Round 0** — all ``P`` diagonal sub-triangles solve concurrently,
      one per thread block.  A round costs one launch plus the *longest*
      sub-triangle wavefront chain, floored by a work-conservation
      roofline of the round's total FLOPs/bytes at full utilization.
      Intra-partition level boundaries are **block-local** syncs priced
      at ``internal_sync_fraction`` of a device barrier (cooperative
      groups, same convention as :func:`time_trisolve_aggregated`), and
      the per-level latency floor shrinks by the same factor — no kernel
      relaunch at level boundaries.
    * **Each correction sweep** — two device-wide barriers (round done →
      coupling SpMV reads ``x`` → refresh reads the product), one
      coupling SpMV over the fence-crossing entries, and one refresh
      round over the partitions whose condensed-DAG depth has not been
      reached.

    Level scheduling pays ``n_levels − 1`` device barriers and
    ``n_levels`` launches; this engine pays ``2·max(depth)`` barriers
    and ``1 + sweeps·(2)`` launches — strictly fewer exposed
    synchronizations whenever the factor is wavefront-deep relative to
    ``n/P``, which is exactly where sparsification helps least.

    Parameters
    ----------
    profiles:
        Per-partition ``(rows_per_level, nnz_per_level)`` tuples
        (:func:`~repro.graph.partition.partition_profiles`).
    depth:
        Per-partition correction depth from the condensed partition DAG.
    coupling_rows, coupling_nnz:
        Rows / nonzeros of the cross-partition coupling block.
    """
    if not (0.0 <= internal_sync_fraction <= 1.0):
        raise ValueError("internal_sync_fraction must lie in [0, 1]")
    vb = dev.value_bytes
    depth = np.asarray(depth, dtype=np.int64)
    n_parts = len(profiles)
    if n_parts == 0:
        return 0.0
    if depth.shape[0] != n_parts:
        raise ValueError("depth length must match the number of profiles")
    isf = internal_sync_fraction
    chain = np.zeros(n_parts)
    flops_tot = np.zeros(n_parts)
    bytes_tot = np.zeros(n_parts)
    for i, (rows, nnz) in enumerate(profiles):
        rows = np.asarray(rows, dtype=np.float64)
        nnz = np.asarray(nnz, dtype=np.float64)
        n_levels = rows.shape[0]
        if n_levels == 0:
            continue
        flops = 2.0 * nnz
        bytes_ = (nnz * (vb + dev.index_bytes)
                  + rows * (2 * vb + dev.index_bytes))
        body = _level_bodies(dev, rows, flops, bytes_,
                             dev.min_kernel_time * isf)
        chain[i] = (body.sum()
                    + max(0, n_levels - 1) * dev.sync_overhead * isf)
        flops_tot[i] = flops.sum()
        bytes_tot[i] = bytes_.sum()

    def round_time(active: np.ndarray) -> float:
        if not active.any():
            return 0.0
        floor = _roofline(dev, float(flops_tot[active].sum()),
                          float(bytes_tot[active].sum()), 1.0)
        return dev.launch_overhead + max(float(chain[active].max()), floor)

    total = round_time(np.ones(n_parts, dtype=bool))
    n_sweeps = int(depth.max(initial=0))
    if n_sweeps:
        spmv = time_spmv(dev, max(1, coupling_rows), coupling_nnz)
        for s in range(1, n_sweeps + 1):
            total += (2.0 * dev.sync_overhead + spmv
                      + round_time(depth >= s))
    return float(total)


def time_trisolve_aggregated(dev: DeviceModel, rows_per_level: np.ndarray,
                             nnz_per_level: np.ndarray,
                             group_ptr: np.ndarray, *,
                             internal_sync_fraction: float = 0.15
                             ) -> float:
    """Level-scheduled triangular solve with HDagg-style level packing.

    Groups of consecutive wavefronts execute as one kernel: a single
    launch per group, with the intra-group level boundaries paid as
    *internal* synchronizations costing ``internal_sync_fraction`` of a
    device-wide barrier (cooperative-groups grid sync vs kernel
    relaunch).  The per-level roofline bodies are unchanged — packing
    removes overhead, not work.
    """
    rows_per_level = np.asarray(rows_per_level, dtype=np.float64)
    nnz_per_level = np.asarray(nnz_per_level, dtype=np.float64)
    group_ptr = np.asarray(group_ptr, dtype=np.int64)
    if not (0.0 <= internal_sync_fraction <= 1.0):
        raise ValueError("internal_sync_fraction must lie in [0, 1]")
    n_levels = rows_per_level.shape[0]
    if n_levels == 0:
        return 0.0
    n_groups = group_ptr.shape[0] - 1
    body = _level_bodies(
        dev, rows_per_level, 2.0 * nnz_per_level,
        nnz_per_level * (dev.value_bytes + dev.index_bytes)
        + rows_per_level * (2 * dev.value_bytes + dev.index_bytes),
        dev.min_kernel_time)
    internal = (n_levels - n_groups) * dev.sync_overhead \
        * internal_sync_fraction
    external = max(0, n_groups - 1) * dev.sync_overhead
    return float(n_groups * dev.launch_overhead + internal + external
                 + body.sum())


def time_ilu_factorization(dev: DeviceModel, rows_per_level: np.ndarray,
                           nnz_per_level: np.ndarray, total_flops: float,
                           *, sequential: bool = False) -> float:
    """Level-scheduled (or sequential CPU) ILU numeric factorization.

    The factorization DAG equals the lower-triangle solve DAG, so the
    same per-wavefront pricing applies, with the factorization's actual
    FLOP count distributed across levels proportionally to their nonzeros
    (elimination work concentrates where the nonzeros are).

    With ``sequential=True`` the cost is priced on a single lane — the
    paper computes ILU(K) factors with SuperLU on the host CPU.
    """
    nnz_per_level = np.asarray(nnz_per_level, dtype=np.float64)
    rows_per_level = np.asarray(rows_per_level, dtype=np.float64)
    total_nnz = float(nnz_per_level.sum())
    total_bytes = (total_nnz * (dev.value_bytes + dev.index_bytes) * 3.0)
    if sequential:
        # Host factorization à la SuperLU: sparse elimination is
        # indirection-bound, not FLOP-bound — effective scalar update
        # throughput sits orders below peak, and the symbolic pattern
        # traversal costs tens of nanoseconds per stored entry.  These
        # constants put small-matrix ILU(K) factorizations in the
        # millisecond range, matching measured CPU incomplete-LU rates.
        update_rate = 5.0e7   # effective numeric updates (FLOPs) per second
        per_entry = 1.5e-7    # symbolic level-of-fill seconds per entry
        t = (total_flops / update_rate + total_nnz * per_entry
             + total_bytes / dev.mem_bandwidth)
        return float(t)
    if nnz_per_level.shape[0] == 0:
        return 0.0
    weights = (nnz_per_level / total_nnz if total_nnz > 0
               else np.full_like(nnz_per_level, 1.0 / nnz_per_level.size))
    flops_per_level = total_flops * weights
    bytes_per_level = ((dev.value_bytes + dev.index_bytes) * 3.0
                       * nnz_per_level)
    body = _level_bodies(dev, rows_per_level, flops_per_level,
                         bytes_per_level, dev.min_kernel_time)
    n_levels = nnz_per_level.shape[0]
    return float(n_levels * dev.launch_overhead
                 + (n_levels - 1) * dev.sync_overhead
                 + body.sum())


def time_ainv_setup(dev: DeviceModel, n_rows: int, flops: float,
                    bytes_: float) -> float:
    """Approximate-inverse (SPAI/FSAI) setup: ``n_rows`` independent
    small dense solves in one flat-parallel kernel.

    Unlike :func:`time_ilu_factorization` there is no elimination DAG —
    every row's least-squares / principal-submatrix solve is
    independent, so the whole setup is a single launch whose roofline
    body runs at per-row utilization ``n_rows / row_slots`` with **no**
    inter-level synchronization.  This is the family's bargain: it
    spends these FLOPs once so every subsequent application is
    barrier-free.
    """
    util = min(1.0, n_rows / dev.row_slots)
    return dev.launch_overhead + _roofline(dev, float(flops),
                                           float(bytes_), util)


def time_precond_setup(dev: DeviceModel, preconditioner: Preconditioner,
                       *, sequential: bool = False) -> float:
    """Modeled one-time setup seconds of *preconditioner* on *dev*.

    Dispatches on the metadata the preconditioner exposes: a two-sweep
    preconditioner with a ``factor_flops`` count (ILU(0), ILU(K), ILUT,
    and IC(0) at 0 flops) is priced by :func:`time_ilu_factorization`
    over its forward sweep's wavefronts (``sequential=True`` reproduces
    the paper's host-side SuperLU setting); an approximate-inverse
    object exposing ``setup_profile()`` is priced by
    :func:`time_ainv_setup`; anything else (Jacobi, identity) is one
    diagonal-extraction pass.
    """
    profile = getattr(preconditioner, "setup_profile", None)
    if profile is not None:
        p = profile()
        return time_ainv_setup(dev, p["n_rows"], p["flops"], p["bytes"])
    flops = getattr(preconditioner, "factor_flops", None)
    if flops is not None:
        fwd, _ = preconditioner.solvers()
        rows, nnz = fwd.kernel_profile()
        return time_ilu_factorization(dev, rows, nnz, flops,
                                      sequential=sequential)
    n = max(1, preconditioner.n)
    return dev.launch_overhead + _roofline(
        dev, 0.0, 2.0 * n * dev.value_bytes, min(1.0, n / dev.parallel_lanes))


def time_sparsification(dev: DeviceModel, nnz: int, n_candidates: int = 3
                        ) -> float:
    """Cost of Algorithm 2 itself (charged to SPCG end-to-end time).

    Per candidate ratio: a magnitude selection pass, a filter pass, and a
    wavefront count (an O(nnz) inspector sweep); plus one initial
    wavefront count of A.  Each pass streams the nonzeros once.
    """
    pass_bytes = nnz * (dev.value_bytes + dev.index_bytes)
    one_pass = pass_bytes / dev.mem_bandwidth + dev.launch_overhead
    # selection + filter + wavefront inspector ≈ 3 passes per candidate,
    # the selection's sort costing an extra log-factor.
    log_factor = max(1.0, np.log2(max(nnz, 2)) / 8.0)
    per_candidate = one_pass * (2.0 + log_factor)
    return float((1 + n_candidates) * one_pass
                 + n_candidates * per_candidate)


@dataclass(frozen=True)
class IterationCost:
    """Per-iteration modeled time of Algorithm 1, decomposed by kernel.

    Attributes mirror the iteration's kernel mix: one SpMV, one
    preconditioner application (two triangular sweeps for ILU-family
    preconditioners), two inner products, three AXPY updates, and one
    residual-norm reduction.
    """

    spmv: float
    precond_fwd: float
    precond_bwd: float
    dots: float
    axpys: float

    @property
    def total(self) -> float:
        """Seconds per PCG iteration."""
        return (self.spmv + self.precond_fwd + self.precond_bwd
                + self.dots + self.axpys)

    @property
    def precond(self) -> float:
        """Preconditioner application share."""
        return self.precond_fwd + self.precond_bwd


def _precond_spmv_times(dev: DeviceModel, preconditioner: Preconditioner,
                        batch: int = 1) -> tuple[float, float] | None:
    """Price a barrier-free SpMV-apply preconditioner (SPAI/FSAI).

    Preconditioners exposing ``spmv_profile()`` apply as one or two
    independent SpMV launches — no wavefronts, no device barriers —
    so each profile entry ``(n_rows, nnz, value_bytes)`` is priced by
    the plain SpMV rule.  Returns ``None`` for everything else so the
    wavefront/diagonal dispatch below applies.
    """
    profile = getattr(preconditioner, "spmv_profile", None)
    if profile is None:
        return None
    times = [time_spmv(dev, n_rows, nnz, batch, value_bytes=vb)
             for n_rows, nnz, vb in profile()]
    fwd = times[0] if times else 0.0
    bwd = float(sum(times[1:]))
    return fwd, bwd


def iteration_cost(dev: DeviceModel, a: CSRMatrix,
                   preconditioner: Preconditioner,
                   batch: int = 1) -> IterationCost:
    """Assemble the modeled cost of one PCG iteration over ``batch``
    right-hand-side columns (one block sweep of :func:`~repro.batch.
    pcg_block`; ``batch=1`` is one iteration of ``pcg``).

    Uses the preconditioner's wavefront solvers when it exposes them
    (ILU0/ILUK/ILUT/IC0); approximate-inverse preconditioners exposing
    ``spmv_profile()`` (SPAI/FSAI) are priced as barrier-free SpMVs;
    diagonal preconditioners are priced as one vector op.  Every kernel
    pays its launches and synchronizations once per sweep, so
    ``iteration_cost(B).total / B`` against the ``B = 1`` cost isolates
    the batching amortization.
    """
    batch = _check_batch(batch)
    n = a.n_rows
    spmv = time_spmv(dev, n, a.nnz, batch)
    ainv = _precond_spmv_times(dev, preconditioner, batch)
    solvers = getattr(preconditioner, "solvers", None)
    if ainv is not None:
        t_fwd, t_bwd = ainv
    elif solvers is not None:
        fwd, bwd = solvers()
        t_fwd = time_trisolve(dev, *fwd.kernel_profile(), batch)
        t_bwd = time_trisolve(dev, *bwd.kernel_profile(), batch)
    else:
        t_fwd = (time_axpy(dev, n, batch)
                 if preconditioner.apply_nnz() else 0.0)
        t_bwd = 0.0
    # Algorithm 1 per iteration: (r,z), (p,w) dots + ‖r‖ check → 3
    # reductions; x, r, p updates → 3 AXPYs.
    dots = 3.0 * time_dot(dev, n, batch)
    axpys = 3.0 * time_axpy(dev, n, batch)
    return IterationCost(spmv=spmv, precond_fwd=t_fwd, precond_bwd=t_bwd,
                         dots=dots, axpys=axpys)


def estimate_request_seconds(dev: DeviceModel, a: CSRMatrix,
                             preconditioner: Preconditioner, *,
                             iters: float, batch: int = 1) -> float:
    """Modeled per-request solve seconds — the serving backlog price.

    ``iters`` sweeps of the batched iteration cost, amortized over
    ``batch`` columns.  The admission controller of
    :class:`repro.serve.RequestQueue` sums this over queued requests to
    model backlog-seconds: a queue of cheap Jacobi solves and a queue of
    deep-wavefront ILU solves of equal *depth* represent very different
    waits, and shedding decisions must see the difference.  ``batch=1``
    is the conservative default (a queued request may end up dispatched
    alone).
    """
    if iters < 0:
        raise ValueError(f"iters must be non-negative, got {iters}")
    batch = _check_batch(batch)
    cost = iteration_cost(dev, a, preconditioner, batch)
    return cost.total * float(iters) / batch


@dataclass(frozen=True)
class ValueTraffic:
    """Per-iteration *value* bytes of Algorithm 1, decomposed by kernel.

    Counts only matrix/factor values and solution-space vectors — the
    traffic that shrinks when factors are stored in float32 — at the
    **actual dtype** of each operand (:meth:`DeviceModel.bytes_for`).
    Index bytes are excluded: they are dtype-invariant and would dilute
    the mixed-precision ratio this accounting exists to expose.
    """

    spmv: int
    precond: int
    vectors: int

    @property
    def total(self) -> int:
        """Value bytes moved per PCG iteration."""
        return self.spmv + self.precond + self.vectors


def iteration_value_traffic(dev: DeviceModel, a: CSRMatrix,
                            preconditioner: Preconditioner) -> ValueTraffic:
    """Per-iteration value-byte traffic at the operands' true dtypes.

    The SpMV streams A's values once plus the x gather and y write; the
    preconditioner streams its factor values once per application (at
    the factor dtype — the mixed-precision lever) plus its in/out
    vectors; the vector term covers the three reductions and three
    AXPYs of Algorithm 1.  Outer-iteration vectors are priced at the
    solve dtype (float64).
    """
    n = a.n_rows
    f64 = dev.bytes_for(np.float64)
    spmv = a.nnz * dev.bytes_for(a.dtype) + 2 * n * f64
    pre_dtype = getattr(preconditioner, "value_dtype", np.float64)
    precond = (preconditioner.apply_nnz() * dev.bytes_for(pre_dtype)
               + 4 * n * f64)
    vectors = (3 * 2 * n + 3 * 3 * n) * f64
    return ValueTraffic(spmv=int(spmv), precond=int(precond),
                        vectors=int(vectors))


def time_checkpoint(dev: DeviceModel, n: int, batch: int = 1) -> float:
    """Capture per-column (x, r, p) checkpoint state for ``batch``
    columns: three device-to-device vector copies (read + write each)
    in one launch.  This is the price the self-healing scheduler pays
    at every verified boundary, so modeled makespan grows strictly with
    checkpoint frequency — fault-tolerance overhead is never free."""
    batch = _check_batch(batch)
    bytes_ = 3.0 * 2.0 * n * batch * dev.value_bytes
    util = min(1.0, n * batch / dev.parallel_lanes)
    return dev.launch_overhead + _roofline(dev, 0.0, bytes_, util)


def time_abft_check(dev: DeviceModel, n: int, batch: int = 1) -> float:
    """ABFT column-checksum verification of one batched SpMV: a column
    reduction of ``w`` plus a checksum-vector dot per column, fused into
    one reduction kernel (launch + sync paid once for the block)."""
    batch = _check_batch(batch)
    flops = 4.0 * n * batch
    bytes_ = 2.0 * n * batch * dev.value_bytes
    util = min(1.0, n * batch / dev.parallel_lanes)
    return (dev.launch_overhead + dev.sync_overhead
            + _roofline(dev, flops, bytes_, util))


def time_residual_check(dev: DeviceModel, a: CSRMatrix,
                        batch: int = 1) -> float:
    """True-residual verification ``r_true = b − A x`` for ``batch``
    columns: one batched SpMV, one batched AXPY-like subtraction, and
    one batched norm reduction — the periodic residual-replacement
    check of the detection layer."""
    batch = _check_batch(batch)
    return (time_spmv(dev, a.n_rows, a.nnz, batch)
            + time_axpy(dev, a.n_rows, batch)
            + time_dot(dev, a.n_rows, batch))


def time_staleness_check(dev: DeviceModel, nnz: int) -> float:
    """Relative-drift probe of the stream layer's staleness detector:
    ``‖data_new − data_ref‖ / ‖data_ref‖`` over the shared CSR value
    arrays — one fused elementwise-difference + norm reduction pass
    (3 FLOPs/nnz, both arrays streamed once, launch + sync paid once).
    This is the price a :class:`repro.streams.SolveSession` pays at
    *every* drifted step, so "check then reuse" is never modeled as
    free — the decision only wins when the saved setup work exceeds
    the probe."""
    flops = 3.0 * nnz
    bytes_ = 2.0 * nnz * dev.value_bytes
    util = min(1.0, nnz / dev.parallel_lanes)
    return (dev.launch_overhead + dev.sync_overhead
            + _roofline(dev, flops, bytes_, util))


def time_deflation_setup(dev: DeviceModel, a: CSRMatrix,
                         basis_size: int) -> float:
    """Per-solve setup of a Krylov deflation basis ``W`` (n × m):
    ``AW = A·W`` as one batched SpMV over the m columns, the Gram
    matrix ``G = Wᵀ(AW)`` as a tall-skinny GEMM (2·n·m² FLOPs, one
    reduction sync), its tiny m × m Cholesky (negligible, folded into
    the launch), and the initial Galerkin correction
    ``x += W G⁻¹ Wᵀ r`` (one projection apply plus an AXPY).  Paid once
    per deflated solve — ``A`` drifts between steps, so ``AW`` cannot
    be cached across them."""
    m = _check_batch(basis_size)
    n = a.n_rows
    t = time_spmv(dev, n, a.nnz, m)
    flops = 2.0 * n * m * m
    bytes_ = 2.0 * n * m * dev.value_bytes
    util = min(1.0, n * m / dev.parallel_lanes)
    t += (dev.launch_overhead + dev.sync_overhead
          + _roofline(dev, flops, bytes_, util))
    t += time_deflation_apply(dev, n, m) + time_axpy(dev, n)
    return t


def time_deflation_apply(dev: DeviceModel, n: int, basis_size: int,
                         batch: int = 1) -> float:
    """One A-orthogonal projection ``z ↦ z − W G⁻¹ (AW)ᵀ z`` against an
    n × m deflation basis: a tall-skinny reduction GEMV ``(AW)ᵀ z``
    (one sync), the m × m triangular back-substitutions (negligible at
    recycling sizes), and the broadcast GEMV ``W·q`` — two launches,
    4·n·m FLOPs per column, the basis streamed once per block.  This is
    the per-iteration overhead deflated PCG adds on top of
    :func:`iteration_cost`, so recycling is priced as a genuine
    trade-off, not a free win."""
    m = _check_batch(basis_size)
    batch = _check_batch(batch)
    flops = 4.0 * n * m * batch
    bytes_ = (2.0 * n * m + 3.0 * n * batch) * dev.value_bytes
    util = min(1.0, n * batch / dev.parallel_lanes)
    return (2.0 * dev.launch_overhead + dev.sync_overhead
            + _roofline(dev, flops, bytes_, util))
