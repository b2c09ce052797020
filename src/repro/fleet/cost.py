"""Per-iteration pricing of CG variants on a fleet of modeled devices.

Distributed CG pays a bill the single-device roofline never sees: the
**allreduce** behind every inner product.  :func:`comm_iteration_cost`
extends :func:`~repro.machine.kernels.iteration_cost` with that link
term for standard PCG and for the pipelined (Ghysels–Vanroose) and
s-step variants of *Communication-reduced Conjugate Gradient Variants
for GPU-accelerated Clusters* (arXiv 2501.03743).  The variants are
priced, not run: the formulas charge each its synchronization
structure:

=============  ==============================  =========================
variant        allreduces / iteration          overlap
=============  ==============================  =========================
``pcg``        3 (``(r,z)``, ``(p,w)``, norm)  none — each is exposed
``pipelined``  1 fused (3 scalars)             hidden behind M⁻¹w + A·
``s_step``     2 / s (Gram + residual check)   amortized over s iters
=============  ==============================  =========================

``exposed`` is the allreduce time actually added to the modeled
critical path per iteration; the benchmark asserts it is **strictly
smaller** for the communication-reduced variants whenever the link
latency is nonzero and more than one device participates — and exactly
zero for every variant at ``n_devices=1``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.device import DeviceModel
from ..machine.kernels import iteration_cost, time_axpy
from ..machine.link import LinkModel, time_allreduce
from ..precond.base import Preconditioner
from ..sparse.csr import CSRMatrix

__all__ = ["VARIANTS", "CommIterationCost", "comm_iteration_cost"]

#: Solver variants :func:`comm_iteration_cost` prices.
VARIANTS = ("pcg", "pipelined", "s_step")

#: Reduction scalars travel as float64 partial sums.
_SCALAR_BYTES = 8


@dataclass(frozen=True)
class CommIterationCost:
    """One CG iteration's modeled price on an N-device fleet."""

    variant: str
    n_devices: int
    #: Kernel seconds per iteration on one device (roofline terms plus
    #: the variant's extra recurrences / basis work).
    compute: float
    #: Raw allreduce wire seconds per iteration (amortized for s-step).
    allreduce: float
    #: Allreduce seconds on the critical path per iteration — what the
    #: variant's restructuring actually removes.
    exposed: float

    @property
    def total(self) -> float:
        return self.compute + self.exposed

    @property
    def hidden(self) -> float:
        """Allreduce seconds overlapped away (pipelined only)."""
        return self.allreduce - self.exposed


def comm_iteration_cost(dev: DeviceModel, link: LinkModel,
                        n_devices: int, a: CSRMatrix,
                        preconditioner: Preconditioner, *,
                        batch: int = 1, variant: str = "pcg",
                        s: int = 2) -> CommIterationCost:
    """Price one iteration of *variant* across ``n_devices``.

    Each device holds a ``1/N`` row slice, so the roofline terms are
    priced on a proportionally thinner matrix-share (modeled by scaling
    the per-iteration kernel cost; launch overheads stay per-device).
    The link terms follow the table in the module docstring.  At
    ``n_devices=1`` every link term is exactly zero and ``total``
    equals the single-device iteration cost.
    """
    if variant not in VARIANTS:
        raise ValueError(
            f"unknown variant {variant!r}; expected one of {VARIANTS}")
    s = int(s)
    if s < 1:
        raise ValueError(f"s must be at least 1, got {s}")
    n_devices = int(n_devices)
    if n_devices < 1:
        raise ValueError(f"n_devices must be at least 1, got {n_devices}")
    base = iteration_cost(dev, a, preconditioner, batch)
    # Work-share: FLOP/byte terms split N ways; per-kernel launch and
    # sync floors do not (they are per-device constants already folded
    # into the kernel prices, so this is an optimistic upper bound on
    # scaling — fine, the *relative* variant comparison is what is
    # load-bearing).
    share = 1.0 / n_devices
    compute = base.total * share
    scalars = batch  # one partial per RHS column per reduction
    if variant == "pcg":
        ar = 3.0 * time_allreduce(link, n_devices,
                                  scalars * _SCALAR_BYTES)
        exposed = ar
    elif variant == "pipelined":
        ar = time_allreduce(link, n_devices, 3 * scalars * _SCALAR_BYTES)
        # The fused allreduce overlaps the next preconditioner apply
        # and SpMV; only the remainder reaches the critical path.
        overlap = (base.spmv + base.precond) * share
        exposed = max(0.0, ar - overlap)
        # Three extra vector recurrences (z, q, s) buy the overlap.
        compute += 3.0 * time_axpy(dev, a.n_rows, batch) * share
    else:  # s_step
        k_basis = 2 * s + 1
        gram_bytes = 2 * k_basis * k_basis * scalars * _SCALAR_BYTES
        ar = (time_allreduce(link, n_devices, gram_bytes)
              + time_allreduce(link, n_devices, scalars * _SCALAR_BYTES)
              ) / s
        exposed = ar
        # Basis construction runs 2s−1 operator applications per s
        # iterations against PCG's s, plus the reconstruction gemvs
        # (≈ 3·(2s+1)/s axpy-equivalents per iteration).
        extra_ops = max(0.0, (s - 1.0) / s)
        compute += extra_ops * (base.spmv + base.precond) * share
        compute += (3.0 * k_basis / s) \
            * time_axpy(dev, a.n_rows, batch) * share
    return CommIterationCost(variant=variant, n_devices=n_devices,
                             compute=compute, allreduce=ar,
                             exposed=exposed)
