"""SpTRSV engine pricing and the two-sweep preconditioner.

Two SpTRSV strategies occupy different points in the
sync/parallelism design space:

* level scheduling — maximal row parallelism, one device barrier per
  wavefront; :class:`~repro.precond.triangular.ScheduledTriangularSolver`
  runs it, and it is the one executor every solve uses;
* fine-grained domain decomposition (arXiv 2508.04917) — ``P`` fenced
  sub-triangles with block-local syncs plus a Jacobi correction loop,
  two device barriers per sweep.

Which wins on a device is a property of the *factor*: deep narrow
wavefront chains (band-limited factors, the regime sparsification
helps least) favour partitioning, shallow wide ones favour level
scheduling.  :func:`plan_trisolve` prices both on the modeled device —
the same cost model the rest of the pipeline reports — and records the
pick.  The partitioned engine is priced, not run: on a host its
partitions run one after another, and every dependence path crosses
the fences in row order, so its first round alone runs at least as many
level steps as the level sweep.

:class:`TriangularPreconditioner` is the one application every
triangular preconditioner shares — ILU(0), ILU(K), ILUT and IC(0)
differ only in the factors they compute: a forward sweep and a
backward sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.csr import CSRMatrix
from ..graph.levels import LevelSchedule
from ..graph.partition import (level_profile, partition_profiles,
                               partition_rows)
from .base import Preconditioner
from .triangular import ScheduledTriangularSolver

__all__ = ["PART_CANDIDATES", "TrisolvePlan", "plan_trisolve",
           "TriangularPreconditioner"]

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
        The engine the device model picks, ``"levels"`` or
        ``"partitioned"``: the cheaper of the two modeled costs.
    n_parts:
        Partition count of the best partitioned candidate; meaningful
        even when levels wins.
    levels_seconds, partitioned_seconds:
        Modeled seconds of one solve under each engine on *device*.
    device:
        Name of the device the plan was priced on.
    """

    engine: str
    n_parts: int
    levels_seconds: float
    partitioned_seconds: float
    device: str

    @property
    def speedup(self) -> float:
        """Modeled levels/partitioned ratio (> 1 ⇒ partitioning wins)."""
        if self.partitioned_seconds <= 0.0:
            return 1.0
        return self.levels_seconds / self.partitioned_seconds


def plan_trisolve(tri: CSRMatrix, *, kind: str = "lower",
                  n_parts: int | None = None, device=None) -> TrisolvePlan:
    """Price both SpTRSV engines for *tri* and pick the cheaper.

    Both modeled costs are recorded (the CI smoke job asserts on the
    gap).  ``n_parts=None`` sweeps :data:`PART_CANDIDATES` and keeps
    the best partitioned candidate; an integer prices that width alone.
    *device* is a :class:`~repro.machine.device.DeviceModel`, a preset
    name or ``None`` (the A100 model).  The plan depends only on the
    sparsity pattern and the device.
    """
    # Machine imports are lazy: machine.kernels imports precond.base at
    # module scope, so a top-level import here would be cyclic.
    from ..machine.device import get_device
    from ..machine.kernels import time_trisolve, time_trisolve_partitioned

    dev = get_device(device)
    t_levels = time_trisolve(dev, *level_profile(tri, kind))

    n = tri.n_rows
    candidates = ([int(n_parts)] if n_parts is not None
                  else [p for p in PART_CANDIDATES if p <= n] or [1])
    best_p, best_t = candidates[0], np.inf
    for p in candidates:
        part = partition_rows(tri, p, kind=kind)
        profs = partition_profiles(tri, part)
        t = time_trisolve_partitioned(dev, profs, part.depth,
                                      part.coupling_rows,
                                      part.coupling_nnz)
        if t < best_t:
            best_p, best_t = part.n_parts, t
    return TrisolvePlan(
        engine="partitioned" if best_t < t_levels else "levels",
        n_parts=best_p, levels_seconds=float(t_levels),
        partitioned_seconds=float(best_t), device=dev.name)


class TriangularPreconditioner(Preconditioner):
    """``z = U⁻¹ L⁻¹ r``: a forward sweep and a backward sweep.

    The subclasses compute the factors; this class alone builds the two
    executors and reports what the cost model reads.

    Parameters
    ----------
    lower, upper:
        Factors of the forward and the backward sweep.
    factor_flops:
        FLOPs of the numeric factorization, which
        :func:`repro.machine.kernels.time_precond_setup` prices as one.
    unit_lower:
        *lower* is the strictly-lower part of a unit-lower factor
        (LU's convention); its diagonal is implicitly 1.
    lower_schedule, upper_schedule:
        Optional precomputed wavefront schedules of the two factors.
    """

    def __init__(self, lower: CSRMatrix, upper: CSRMatrix, *,
                 factor_flops: float, unit_lower: bool = False,
                 lower_schedule: LevelSchedule | None = None,
                 upper_schedule: LevelSchedule | None = None):
        self.lower, self.upper = lower, upper
        self.unit_lower = bool(unit_lower)
        self.factor_flops = factor_flops
        self._fwd = ScheduledTriangularSolver(
            lower, kind="lower", unit_diagonal=self.unit_lower,
            schedule=lower_schedule)
        self._bwd = ScheduledTriangularSolver(upper, kind="upper",
                                              schedule=upper_schedule)

    @property
    def n(self) -> int:
        return self.lower.n_rows

    @property
    def value_dtype(self) -> np.dtype:
        return np.dtype(self.lower.dtype)

    def apply(self, r: np.ndarray, out: np.ndarray | None = None
              ) -> np.ndarray:
        """``z = U⁻¹ L⁻¹ r`` via the two sweeps."""
        return self._bwd.solve(self._fwd.solve(r), out=out)

    def apply_nnz(self) -> int:
        """Stored factor entries, plus one op per row for an implicit
        unit diagonal."""
        extra = self.n if self.unit_lower else 0
        return self.lower.nnz + self.upper.nnz + extra

    def apply_levels(self) -> tuple[int, int]:
        return (self._fwd.n_levels, self._bwd.n_levels)

    def solvers(self) -> tuple:
        """The (forward, backward) triangular solvers, for the cost model."""
        return self._fwd, self._bwd
