"""Identity (no-op) preconditioner: PCG degenerates to plain CG."""

from __future__ import annotations

import numpy as np

from .base import Preconditioner

__all__ = ["IdentityPreconditioner"]


class IdentityPreconditioner(Preconditioner):
    """``M = I``; :meth:`apply` returns a copy of the residual, in its
    layout.

    Used as the unpreconditioned baseline and in tests that need PCG to
    reduce exactly to CG.
    """

    name = "identity"

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("n must be non-negative")
        self._n = int(n)

    @property
    def n(self) -> int:
        return self._n

    def apply(self, r: np.ndarray, out: np.ndarray | None = None
              ) -> np.ndarray:
        if out is not None:
            out[...] = r
            return out
        return r.copy(order="K")

    def apply_nnz(self) -> int:
        return 0
