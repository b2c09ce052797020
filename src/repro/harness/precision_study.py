"""Mixed-precision study: float32 factors versus float64, one matrix.

Runs the same SPCG solve twice — ``precision="float64"`` and
``precision="mixed"`` — and reports the two quantities the mode trades
against each other: the iteration count (mixed may need a few more
outer iterations to reach the float64 stopping criterion) and the
modeled per-iteration value traffic (float32 factors halve the bytes of
the dominant triangular-solve kernels).  The study is the harness-level
counterpart of the ``--precision`` CLI flag and feeds the tiny-bench CI
job's iteration-delta line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.spcg import spcg
from ..machine.device import DeviceModel, get_device
from ..machine.kernels import iteration_value_traffic
from ..solvers.stopping import StoppingCriterion
from ..sparse.csr import CSRMatrix

__all__ = ["PrecisionPoint", "PrecisionStudyResult", "run_precision_study"]


@dataclass(frozen=True)
class PrecisionPoint:
    """One precision mode's outcome."""

    precision: str
    converged: bool
    iterations: int
    final_residual: float
    value_traffic_bytes: int
    mixed_fallback: bool = False


@dataclass
class PrecisionStudyResult:
    """Outcome of :func:`run_precision_study`."""

    matrix: str
    n: int
    nnz: int
    preconditioner: str
    device: str
    full: PrecisionPoint
    mixed: PrecisionPoint

    @property
    def iteration_ratio(self) -> float:
        """Mixed iterations over float64 iterations (≤ 1.3 expected)."""
        return self.mixed.iterations / max(self.full.iterations, 1)

    @property
    def traffic_ratio(self) -> float:
        """Mixed per-iteration value bytes over float64's (< 1)."""
        return (self.mixed.value_traffic_bytes
                / max(self.full.value_traffic_bytes, 1))

    def summary(self) -> str:
        """One block of text for CLI output / CI step summaries."""
        lines = [f"precision study on {self.matrix} "
                 f"(n={self.n}, nnz={self.nnz}, "
                 f"precond={self.preconditioner}, device={self.device})"]
        for p in (self.full, self.mixed):
            fb = " (fell back to float64)" if p.mixed_fallback else ""
            lines.append(f"  {p.precision:>8s}: iters={p.iterations} "
                         f"converged={p.converged} "
                         f"residual={p.final_residual:.3e} "
                         f"value-bytes/iter={p.value_traffic_bytes}{fb}")
        lines.append(f"  iteration ratio {self.iteration_ratio:.3f}, "
                     f"value-traffic ratio {self.traffic_ratio:.3f}")
        return "\n".join(lines)


def run_precision_study(a: CSRMatrix, *, name: str = "matrix",
                        preconditioner: str = "ilu0", k: int = 1,
                        device: DeviceModel | str | None = None,
                        criterion: StoppingCriterion | None = None,
                        seed: int = 0) -> PrecisionStudyResult:
    """Solve the seeded system under both precision modes and compare.

    Both runs share the right-hand side and stopping criterion, so the
    iteration delta is attributable to the factor precision alone.
    """
    device = get_device(device)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(a.n_rows)

    points = {}
    for precision in ("float64", "mixed"):
        res = spcg(a, b, preconditioner=preconditioner, k=k,
                   criterion=criterion, precision=precision)
        traffic = iteration_value_traffic(device, a, res.preconditioner)
        points[precision] = PrecisionPoint(
            precision=precision,
            converged=res.converged,
            iterations=res.solve.n_iters,
            final_residual=res.solve.final_residual,
            value_traffic_bytes=traffic.total,
            mixed_fallback=bool(res.solve.extra.get("mixed_fallback",
                                                    False)))

    return PrecisionStudyResult(
        matrix=name, n=a.n_rows, nnz=a.nnz,
        preconditioner=preconditioner, device=device.name,
        full=points["float64"], mixed=points["mixed"])
