"""Krylov recycling: deflated PCG with Ritz-vector harvesting.

Streams of related solves (time stepping, Newton steps) repeatedly
fight the same few ill-conditioned eigendirections.  Recycling removes
them once: after a solve, the CG coefficients ``alpha_k`` / ``beta_k``
define the Lanczos tridiagonal of the preconditioned operator
``M⁻¹A`` *for free* —

.. code-block:: text

    T[k, k]   = 1/alpha_k + beta_{k-1}/alpha_{k-1}      (beta_{-1} = 0)
    T[k, k+1] = T[k+1, k] = sqrt(beta_k)/alpha_k

with Lanczos vectors ``v_k = z_k / sqrt(r_kᵀ z_k)`` (the normalized
preconditioned residuals).  The eigenpairs of ``T`` with the smallest
Ritz values approximate the eigenvectors that dominate CG's iteration
count; :func:`recycling_pcg` harvests the ``m`` smallest into a
:class:`RecycleBasis` and, on the next solve, **deflates** them:

* **Galerkin warm-up** — with ``W`` the basis, ``AW = A·W`` and
  ``G = Wᵀ A W`` (SPD, Cholesky-factored), the initial guess absorbs
  the exact solution component in ``span(W)``:
  ``x += W G⁻¹ Wᵀ r``, making the initial residual W-orthogonal.
* **A-orthogonal directions** — every search direction is projected,
  ``p = P z + beta p`` with ``P = I − W G⁻¹ (AW)ᵀ``, so the Krylov
  space explored stays A-orthogonal to ``span(W)`` and the effective
  spectrum is the undeflated remainder (init-CG / deflated-CG in the
  sense of Saad, Yeung, Erhel & Guyomarc'h).

Both run inside the CG kernel :func:`repro.solvers.cg.pcg` runs (the
one-column call of :mod:`repro.solvers.cg`'s batched Algorithm 1), as
its deflation hook and Lanczos recorder, so with an empty basis
:func:`recycling_pcg` *is* ``pcg`` operation for operation and results
agree bitwise (property-tested); the recorder only keeps scalars and
vectors the iteration already produced, and only when a harvest is
asked for.
The machine model prices the projection at
:func:`repro.machine.kernels.time_deflation_apply` per iteration and
:func:`~repro.machine.kernels.time_deflation_setup` per solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ShapeError
from ..precond.base import Preconditioner
from ..solvers.cg import _prepare, _solve
from ..solvers.result import SolveResult
from ..solvers.stopping import StoppingCriterion
from ..sparse.csr import CSRMatrix

__all__ = ["RecycleBasis", "harvest_ritz", "recycling_pcg"]

#: Keep at most this many Lanczos vectors for harvesting — the memory
#: cap that keeps recycling O(n·max_store), not O(n·iters).
DEFAULT_MAX_STORE = 40


@dataclass(frozen=True)
class RecycleBasis:
    """A deflation basis harvested from one solve's Lanczos process.

    Attributes
    ----------
    w:
        Orthonormalized Ritz vectors, shape ``(n, m)`` (columns).
    ritz_values:
        The ``m`` smallest Ritz values of ``M⁻¹A`` the vectors
        approximate (ascending) — diagnostic only.
    source_iters:
        Iteration count of the solve that produced the basis.
    """

    w: np.ndarray
    ritz_values: np.ndarray
    source_iters: int

    @property
    def size(self) -> int:
        return int(self.w.shape[1])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RecycleBasis(size={self.size}, "
                f"source_iters={self.source_iters})")


def harvest_ritz(alphas: list[float], betas: list[float],
                 lanczos: list[np.ndarray], k: int,
                 n_iters: int) -> RecycleBasis | None:
    """Build a :class:`RecycleBasis` from one solve's CG coefficients.

    ``alphas``/``betas`` are the per-iteration CG scalars (``betas`` one
    shorter), ``lanczos`` the stored normalized preconditioned
    residuals ``z_j / sqrt(r_jᵀ z_j)`` (may be capped shorter than
    ``alphas``; the tridiagonal is truncated to match).  Returns the
    ``k`` smallest Ritz pairs, or ``None`` when fewer than two
    iterations of data exist (no spectral information to harvest).
    """
    m = min(len(alphas), len(lanczos))
    if m < 2 or k < 1:
        return None
    d = np.empty(m)
    e = np.empty(m - 1)
    for j in range(m):
        d[j] = 1.0 / alphas[j]
        if j > 0:
            d[j] += betas[j - 1] / alphas[j - 1]
        if j < m - 1:
            e[j] = np.sqrt(betas[j]) / alphas[j]
    t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    if not np.isfinite(t).all():
        return None
    evals, evecs = np.linalg.eigh(t)
    take = min(k, m)
    v = np.stack(lanczos[:m], axis=1)
    y = v @ evecs[:, :take]
    # Re-orthonormalize: finite-precision Lanczos vectors lose mutual
    # orthogonality, and a rank-deficient basis would break the Gram
    # Cholesky downstream.
    q, rr = np.linalg.qr(y)
    keep = np.abs(np.diag(rr)) > 1e-12 * max(1.0, np.abs(rr).max())
    q = q[:, keep]
    if q.shape[1] == 0:
        return None
    return RecycleBasis(w=q, ritz_values=evals[:take][keep[:take]],
                        source_iters=n_iters)


def _merge_bases(old: RecycleBasis, new: RecycleBasis,
                 cap: int) -> RecycleBasis:
    """Accumulate a recycling basis across solves.

    Vectors harvested from a *deflated* solve approximate the smallest
    modes of the remaining (undeflated) spectrum, so the union of the
    old basis and the fresh harvest deflates strictly more of the
    operator (GCRO-DR-style accumulation).  The union is ordered by
    Ritz value, truncated to ``cap`` columns, and QR-re-orthonormalized
    with rank-deficient columns dropped.
    """
    vals = np.concatenate([old.ritz_values, new.ritz_values])
    cols = np.concatenate([old.w, new.w], axis=1)
    order = np.argsort(vals)[:max(cap, 1)]
    q, rr = np.linalg.qr(cols[:, order])
    keep = np.abs(np.diag(rr)) > 1e-12 * max(1.0, np.abs(rr).max())
    q = q[:, keep]
    if q.shape[1] == 0:
        return new
    return RecycleBasis(w=q, ritz_values=vals[order][keep],
                        source_iters=new.source_iters)


class _Deflator:
    """Galerkin projector state for one solve: ``AW``, the Cholesky
    factor of ``G = WᵀAW``, and the two projections deflated PCG
    needs — the CG kernel's deflation hook."""

    def __init__(self, a: CSRMatrix, w: np.ndarray):
        self.w = w
        # Kept C-ordered: the layout of a BLAS operand picks the kernel
        # of each product with AW below, and so its rounding.
        self.aw = np.ascontiguousarray(a.matmat(w))
        g = w.T @ self.aw
        # Symmetrize against rounding before factoring.
        self.chol = np.linalg.cholesky(0.5 * (g + g.T))

    def gsolve(self, y: np.ndarray) -> np.ndarray:
        c = self.chol
        return np.linalg.solve(c.T, np.linalg.solve(c, y))

    def galerkin(self, x: np.ndarray, r: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Absorb the ``span(W)`` solution component into ``x``:
        ``x += W G⁻¹ Wᵀ r``, ``r −= AW G⁻¹ Wᵀ r``."""
        mu = self.gsolve(self.w.T @ r)
        return x + self.w @ mu, r - self.aw @ mu

    def project(self, z: np.ndarray) -> np.ndarray:
        """A-orthogonalize against the basis:
        ``z − W G⁻¹ (AW)ᵀ z``."""
        return z - self.w @ self.gsolve(self.aw.T @ z)


class _Lanczos:
    """The CG kernel's Lanczos recorder: every ``alpha_k`` and ``beta_k``, and
    the first ``max_store`` normalized preconditioned residuals
    ``z_k / sqrt(r_kᵀ z_k)``."""

    def __init__(self, max_store: int):
        self.alphas: list[float] = []
        self.betas: list[float] = []
        self.vectors: list[np.ndarray] = []
        self.max_store = max_store

    def vector(self, z: np.ndarray, rz: float) -> None:
        if len(self.vectors) < self.max_store:
            self.vectors.append(
                np.asarray(z / np.sqrt(rz), dtype=np.float64))


def recycling_pcg(a: CSRMatrix, b: np.ndarray,
                  preconditioner: Preconditioner | None = None, *,
                  x0: np.ndarray | None = None,
                  basis: RecycleBasis | None = None,
                  harvest: int = 0,
                  max_basis: int | None = None,
                  max_store: int = DEFAULT_MAX_STORE,
                  criterion: StoppingCriterion | None = None,
                  callback: Callable[[int, float], None] | None = None
                  ) -> tuple[SolveResult, RecycleBasis | None]:
    """Deflated PCG with optional Ritz harvesting.

    Runs Algorithm 1 deflated against *basis* (plain PCG when ``None``
    or empty — then **bitwise identical** to
    :func:`repro.solvers.cg.pcg`) and, when ``harvest > 0``, returns a
    fresh :class:`RecycleBasis` of up to ``harvest`` Ritz vectors built
    from this solve's Lanczos coefficients (``None`` when the solve was
    too short to harvest — callers typically keep their previous
    basis).  When a basis was deflated *and* a new harvest succeeded,
    the returned basis is their union (old ∪ new, smallest Ritz values
    first) capped at ``max_basis`` columns (default ``4·harvest``) —
    across a stream the basis accumulates until it covers the slow
    modes instead of being rebuilt from scratch each solve.

    A basis whose Gram matrix fails its Cholesky (numerically not SPD —
    e.g. after violent matrix drift) is dropped for this solve and
    reported under ``result.extra["recycle"]["basis_dropped"]``.

    Returns ``(result, new_basis_or_None)``.
    """
    b, m, crit, x = _prepare(a, b, preconditioner, criterion, x0)
    n = a.n_rows
    harvest = int(harvest)
    deflator: _Deflator | None = None
    basis_dropped = False
    if basis is not None and basis.size > 0:
        if basis.w.shape[0] != n:
            raise ShapeError(
                f"basis vectors must have length {n}, "
                f"got {basis.w.shape[0]}")
        try:
            deflator = _Deflator(a, np.asarray(basis.w, dtype=x.dtype))
        except np.linalg.LinAlgError:
            basis_dropped = True
    lanczos = _Lanczos(max(int(max_store), 0)) if harvest > 0 else None

    res = _solve(a, b, m, crit, x, callback, deflator, lanczos)

    new = None
    if lanczos is not None:
        new = harvest_ritz(lanczos.alphas, lanczos.betas, lanczos.vectors,
                           harvest, res.n_iters)
        if new is not None and deflator is not None:
            cap = max_basis if max_basis is not None else 4 * harvest
            new = _merge_bases(basis, new, cap)
    res.extra["recycle"] = {
        "deflated": 0 if deflator is None else deflator.w.shape[1],
        "harvested": 0 if new is None else new.size,
        "basis_dropped": basis_dropped,
    }
    return res, new
