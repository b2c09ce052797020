"""Symmetric successive over-relaxation (SSOR) preconditioner.

``M = (D/ω + L) · (D/ω)⁻¹ · (D/ω + U) · ω/(2-ω)`` for ``A = L + D + U``.
Like ILU, its application is a forward and a backward triangular sweep on
the pattern of ``A`` itself — no factorization cost at all — which makes
it a natural ablation point between Jacobi and ILU(0): identical
wavefront structure to ILU(0) but a weaker approximation.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CSRMatrix
from ..sparse.ops import extract_lower, extract_upper
from .engine import TriangularPreconditioner
from .triangular import _PIVOT_RTOL, _pivot_error, _pivot_threshold

__all__ = ["SSORPreconditioner"]


class SSORPreconditioner(TriangularPreconditioner):
    """SSOR preconditioner with relaxation parameter ``omega ∈ (0, 2)``.

    The two sweeps reuse the wavefront executor, so its
    :meth:`apply_levels` is comparable with the ILU preconditioners'.
    Nothing is factored, so its setup is priced as one diagonal pass.
    """

    name = "ssor"

    def __init__(self, a: CSRMatrix, *, omega: float = 1.0,
                 pivot_rtol: float | None = _PIVOT_RTOL):
        if not (0.0 < omega < 2.0):
            raise ValueError(f"omega must lie in (0, 2), got {omega}")
        self.omega = float(omega)
        d = a.diagonal().astype(np.float64)
        # Same relative, dtype-aware pivot test as the triangular path:
        # denormal diagonals would otherwise survive to 1/d → inf.
        thr = _pivot_threshold(a.dtype, float(np.abs(d).max(initial=0.0)),
                               pivot_rtol)
        bad = np.abs(d) <= thr
        if np.any(bad):
            row = int(np.flatnonzero(bad)[0])
            raise _pivot_error(row, float(d[row]), thr)
        n = a.n_rows

        # Build (D/ω + L) and (D/ω + U) by rescaling the diagonals of the
        # extracted triangles in place.
        def with_scaled_diag(tri: CSRMatrix) -> CSRMatrix:
            t = tri.copy()
            rid = np.repeat(np.arange(n, dtype=np.int64), t.row_lengths())
            dmask = rid == t.indices
            t.data[dmask] = (d[rid[dmask]] / self.omega).astype(t.dtype)
            return t

        # M = ω/(2-ω) · (D/ω+L)(D/ω)⁻¹(D/ω+U)  ⇒
        # M⁻¹ = (2-ω)/ω · (D/ω+U)⁻¹ · (D/ω) · (D/ω+L)⁻¹; fold the scalar
        # and the middle D/ω into one scaling vector.
        super().__init__(with_scaled_diag(extract_lower(a)),
                         with_scaled_diag(extract_upper(a)),
                         scale=(d * (2.0 - self.omega)
                                / self.omega ** 2).astype(a.dtype))
