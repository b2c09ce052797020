"""Triangular-solve engine selection and the two-sweep preconditioner.

The repo carries two SpTRSV executors occupying different points in
the sync/parallelism design space:

* :class:`~repro.precond.triangular.ScheduledTriangularSolver` — maximal
  row parallelism, one device barrier per wavefront;
* :class:`~repro.precond.triangular.PartitionedTriangularSolver` —
  ``P`` fenced sub-triangles with block-local syncs plus a Jacobi
  correction loop, two device barriers per sweep.

Which wins is a property of the *factor*: deep narrow wavefront chains
(band-limited factors, the regime sparsification helps least) favour
partitioning, shallow wide ones favour level scheduling.  The planner
here prices both on the modeled device — the same cost model the rest
of the pipeline reports — and ``engine="auto"`` picks the cheaper one
per factor.  A plan is priced afresh for every solver built; the
preconditioner cache of :func:`repro.core.make_preconditioner` is what
holds the pricing to once per ``(Â, params)``.

:class:`TriangularPreconditioner` is the one application every
triangular preconditioner shares — ILU(0), ILU(K), ILUT, IC(0) and
SSOR differ only in the factors they compute: a forward sweep, an
optional diagonal scale and a backward sweep, both built by
:func:`make_triangular_solver`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sparse.csr import CSRMatrix
from ..graph.levels import LevelSchedule, level_schedule
from ..graph.partition import (RowPartition, partition_profiles,
                               partition_rows)
from .base import Preconditioner
from .triangular import (
    PartitionedTriangularSolver,
    ScheduledTriangularSolver,
    _PIVOT_RTOL,
)

__all__ = ["ENGINES", "PART_CANDIDATES", "TrisolvePlan", "plan_trisolve",
           "make_triangular_solver", "TriangularPreconditioner"]

#: Accepted values of the ``engine`` knob everywhere it appears
#: (preconditioner constructors, ``spcg``, the CLI).
ENGINES = ("auto", "levels", "partitioned")

#: Partition counts the auto planner prices (clamped to the matrix
#: order).  Powers of two spanning one to a few thread blocks per SM's
#: worth of sub-triangles — finer grids only add correction sweeps.
PART_CANDIDATES = (2, 4, 8, 16)


@dataclass(frozen=True)
class TrisolvePlan:
    """Outcome of pricing both engines for one triangular factor.

    Attributes
    ----------
    engine:
        The chosen executor, ``"levels"`` or ``"partitioned"`` (never
        ``"auto"`` — the plan *is* the resolution of auto).
    n_parts:
        Partition count of the winning (or best) partitioned candidate;
        meaningful even when levels wins, so callers forcing
        ``engine="partitioned"`` reuse the tuned ``P``.
    levels_seconds, partitioned_seconds:
        Modeled seconds of one solve under each engine on *device*.
    device:
        Name of the device the plan was priced on.
    partition:
        The best partitioned candidate's inspector result, which
        :func:`make_triangular_solver` hands to the partitioned executor
        so the winner is not partitioned twice (``None`` when no
        candidate priced finite).
    """

    engine: str
    n_parts: int
    levels_seconds: float
    partitioned_seconds: float
    device: str
    partition: RowPartition | None = field(default=None, repr=False,
                                           compare=False)

    @property
    def speedup(self) -> float:
        """Modeled levels/partitioned ratio (> 1 ⇒ partitioning wins)."""
        if self.partitioned_seconds <= 0.0:
            return 1.0
        return self.levels_seconds / self.partitioned_seconds


def _levels_profile(tri: CSRMatrix, sched: LevelSchedule, kind: str
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Per-wavefront ``(rows, nnz)`` of the level-scheduled executor,
    computed from the schedule alone (pattern-only — no executor)."""
    n = tri.n_rows
    rid = np.repeat(np.arange(n, dtype=np.int64), tri.row_lengths())
    off = tri.indices < rid if kind == "lower" else tri.indices > rid
    off_per_row = np.bincount(rid[off], minlength=n)
    cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(off_per_row[sched.rows], out=cum[1:])
    rows_per_level = np.diff(sched.level_ptr)
    nnz_off = np.diff(cum[sched.level_ptr])
    return rows_per_level, nnz_off + rows_per_level


def plan_trisolve(tri: CSRMatrix, *, kind: str = "lower",
                  engine: str = "auto", n_parts: int | None = None,
                  device=None,
                  schedule: LevelSchedule | None = None) -> TrisolvePlan:
    """Price both SpTRSV engines for *tri* and resolve the choice.

    ``engine="levels"``/``"partitioned"`` force the outcome but still
    record both modeled costs (the CI smoke job asserts on the gap);
    ``"auto"`` picks the cheaper.  ``n_parts=None`` sweeps
    :data:`PART_CANDIDATES` and keeps the best partitioned candidate.
    The plan depends only on the sparsity pattern and the device.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    # Machine imports are lazy: machine.kernels imports precond.base at
    # module scope, so a top-level import here would be cyclic.
    from ..machine.device import A100
    from ..machine.kernels import time_trisolve, time_trisolve_partitioned

    dev = A100 if device is None else device
    sched = schedule if schedule is not None else level_schedule(tri,
                                                                 kind=kind)
    rows_pl, nnz_pl = _levels_profile(tri, sched, kind)
    t_levels = time_trisolve(dev, rows_pl, nnz_pl)

    n = tri.n_rows
    candidates = ([int(n_parts)] if n_parts is not None
                  else [p for p in PART_CANDIDATES if p <= n] or [1])
    best_p, best_part, best_t = candidates[0], None, np.inf
    for p in candidates:
        part = partition_rows(tri, p, kind=kind)
        profs = partition_profiles(tri, part)
        t = time_trisolve_partitioned(dev, profs, part.depth,
                                      part.coupling_rows,
                                      part.coupling_nnz)
        if t < best_t:
            best_p, best_part, best_t = part.n_parts, part, t
    chosen = engine
    if engine == "auto":
        chosen = "partitioned" if best_t < t_levels else "levels"
    return TrisolvePlan(engine=chosen, n_parts=best_p,
                        levels_seconds=float(t_levels),
                        partitioned_seconds=float(best_t),
                        device=dev.name, partition=best_part)


def make_triangular_solver(tri: CSRMatrix, *, kind: str = "lower",
                           unit_diagonal: bool = False,
                           engine: str = "auto",
                           n_parts: int | None = None,
                           device=None,
                           schedule: LevelSchedule | None = None,
                           pivot_rtol: float | None = _PIVOT_RTOL):
    """Build the SpTRSV executor *plan_trisolve* selects for *tri*.

    The one constructor the preconditioners call: resolves ``engine``
    (pricing both candidates unless it is ``"levels"``), then builds a
    :class:`ScheduledTriangularSolver` or
    :class:`PartitionedTriangularSolver` accordingly, the latter on the
    partition the plan priced.  *schedule* short-circuits the
    level-scheduling inspector.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    plan = None
    if engine != "levels":
        plan = plan_trisolve(tri, kind=kind, engine=engine,
                             n_parts=n_parts, device=device,
                             schedule=schedule)
    if plan is None or plan.engine == "levels":
        return ScheduledTriangularSolver(tri, kind=kind,
                                         unit_diagonal=unit_diagonal,
                                         schedule=schedule,
                                         pivot_rtol=pivot_rtol)
    return PartitionedTriangularSolver(tri, kind=kind,
                                       unit_diagonal=unit_diagonal,
                                       n_parts=plan.n_parts,
                                       partition=plan.partition,
                                       pivot_rtol=pivot_rtol)


class TriangularPreconditioner(Preconditioner):
    """``z = U⁻¹ (s ⊙ L⁻¹ r)``: a forward sweep, an optional diagonal
    scale and a backward sweep.

    The subclasses compute the factors; this class alone builds the two
    executors and reports what the cost model reads.

    Parameters
    ----------
    lower, upper:
        Factors of the forward and the backward sweep.
    unit_lower:
        *lower* is the strictly-lower part of a unit-lower factor
        (LU's convention); its diagonal is implicitly 1.
    scale:
        Per-row scale applied between the sweeps (SSOR's folded
        ``(2−ω)/ω²·D``), or ``None``.
    lower_schedule, upper_schedule:
        Optional precomputed wavefront schedules of the two factors.
    factor_flops:
        FLOPs of the numeric factorization, which
        :func:`repro.machine.kernels.time_precond_setup` prices as one;
        ``None`` when nothing is factored.
    engine, n_parts, device:
        SpTRSV executor selection, per factor, as for
        :func:`make_triangular_solver`.
    """

    def __init__(self, lower: CSRMatrix, upper: CSRMatrix, *,
                 unit_lower: bool = False,
                 scale: np.ndarray | None = None,
                 lower_schedule: LevelSchedule | None = None,
                 upper_schedule: LevelSchedule | None = None,
                 factor_flops: float | None = None,
                 engine: str = "levels", n_parts: int | None = None,
                 device=None):
        self.lower, self.upper = lower, upper
        self.unit_lower = bool(unit_lower)
        self.scale = scale
        self.factor_flops = factor_flops
        self._fwd = make_triangular_solver(
            lower, kind="lower", unit_diagonal=self.unit_lower,
            engine=engine, n_parts=n_parts, device=device,
            schedule=lower_schedule)
        self._bwd = make_triangular_solver(
            upper, kind="upper", engine=engine, n_parts=n_parts,
            device=device, schedule=upper_schedule)
        #: Engines the (forward, backward) sweeps resolved to.
        self.engine = (self._fwd.engine, self._bwd.engine)

    @property
    def n(self) -> int:
        return self.lower.n_rows

    @property
    def value_dtype(self) -> np.dtype:
        return np.dtype(self.lower.dtype)

    def apply(self, r: np.ndarray, out: np.ndarray | None = None
              ) -> np.ndarray:
        """``z = U⁻¹ (s ⊙ L⁻¹ r)`` via the two sweeps."""
        y = self._fwd.solve(r)
        if self.scale is not None:
            y = y * (self.scale if y.ndim == 1 else self.scale[:, None])
        return self._bwd.solve(y, out=out)

    def apply_nnz(self) -> int:
        """Stored factor entries, plus one op per row for an implicit
        unit diagonal or for the scale."""
        extra = self.n if self.unit_lower or self.scale is not None else 0
        return self.lower.nnz + self.upper.nnz + extra

    def apply_levels(self) -> tuple[int, int]:
        return (self._fwd.n_levels, self._bwd.n_levels)

    def solvers(self) -> tuple:
        """The (forward, backward) triangular solvers, for the cost model."""
        return self._fwd, self._bwd
