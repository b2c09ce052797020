"""Constructors for common sparse matrices.

Provides the structured stencils (1/2/3-D Poisson) that anchor the synthetic
dataset generators, plus generic helpers (``eye``, ``diags``, ``kron``) and a
random-SPD builder used throughout the tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ShapeError
from .coo import COOMatrix
from .csr import CSRMatrix

__all__ = [
    "eye",
    "diags",
    "kron",
    "stencil_poisson_1d",
    "stencil_poisson_2d",
    "stencil_poisson_3d",
    "random_spd",
]


def eye(n: int, *, dtype=np.float64) -> CSRMatrix:
    """Identity matrix of order *n* in CSR form."""
    if n < 0:
        raise ShapeError("n must be non-negative")
    idx = np.arange(n, dtype=np.int64)
    return CSRMatrix(np.arange(n + 1, dtype=np.int64), idx,
                     np.ones(n, dtype=dtype), (n, n), check=False)


def diags(offsets_to_values: dict[int, np.ndarray] | Sequence[tuple[int, np.ndarray]],
          n: int, *, dtype=np.float64) -> CSRMatrix:
    """Build an ``n × n`` matrix from diagonals.

    Parameters
    ----------
    offsets_to_values:
        Mapping (or pair sequence) from diagonal offset *k* to either a
        scalar (broadcast along the diagonal) or an array of length
        ``n - |k|``.
    n:
        Matrix order.
    """
    items = (offsets_to_values.items()
             if isinstance(offsets_to_values, dict) else offsets_to_values)
    rows_all, cols_all, vals_all = [], [], []
    for k, v in items:
        k = int(k)
        length = n - abs(k)
        if length <= 0:
            raise ShapeError(f"offset {k} out of range for order {n}")
        v = np.broadcast_to(np.asarray(v, dtype=dtype), (length,))
        if k >= 0:
            r = np.arange(length, dtype=np.int64)
            c = r + k
        else:
            c = np.arange(length, dtype=np.int64)
            r = c - k
        rows_all.append(r)
        cols_all.append(c)
        vals_all.append(v)
    coo = COOMatrix(np.concatenate(rows_all), np.concatenate(cols_all),
                    np.concatenate(vals_all).astype(dtype), (n, n),
                    check=False)
    return coo.tocsr()


def kron(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Kronecker product ``A ⊗ B`` (used to assemble 2-D/3-D stencils)."""
    an, am = a.shape
    bn, bm = b.shape
    a_coo = a.tocoo()
    b_coo = b.tocoo()
    # Outer products of index/value triplets.
    rows = (a_coo.row[:, None] * bn + b_coo.row[None, :]).ravel()
    cols = (a_coo.col[:, None] * bm + b_coo.col[None, :]).ravel()
    vals = (a_coo.data[:, None] * b_coo.data[None, :]).ravel()
    return COOMatrix(rows, cols, vals, (an * bn, am * bm),
                     check=False).tocsr()


def stencil_poisson_1d(n: int, *, dtype=np.float64) -> CSRMatrix:
    """1-D Laplacian ``tridiag(-1, 2, -1)`` of order *n* (SPD)."""
    return diags({-1: -1.0, 0: 2.0, 1: -1.0}, n, dtype=dtype)


def stencil_poisson_2d(nx: int, ny: int | None = None, *,
                       dtype=np.float64) -> CSRMatrix:
    """5-point 2-D Laplacian on an ``nx × ny`` grid (SPD, order nx*ny)."""
    ny = nx if ny is None else ny
    tx = stencil_poisson_1d(nx, dtype=dtype)
    ty = stencil_poisson_1d(ny, dtype=dtype)
    return _kron_sum(tx, ty)


def stencil_poisson_3d(nx: int, ny: int | None = None, nz: int | None = None,
                       *, dtype=np.float64) -> CSRMatrix:
    """7-point 3-D Laplacian on an ``nx × ny × nz`` grid (SPD)."""
    ny = nx if ny is None else ny
    nz = nx if nz is None else nz
    a2d = stencil_poisson_2d(nx, ny, dtype=dtype)
    tz = stencil_poisson_1d(nz, dtype=dtype)
    return _kron_sum(a2d, tz)


def _kron_sum(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Kronecker sum ``A ⊗ I + I ⊗ B`` for square A, B."""
    from .ops import add

    ia = eye(a.shape[0], dtype=a.dtype)
    ib = eye(b.shape[0], dtype=b.dtype)
    return add(kron(a, ib), kron(ia, b))


def random_spd(n: int, *, density: float = 0.01, seed: int = 0,
               diag_boost: float = 1.0, value_scale: float = 1.0,
               dtype=np.float64) -> CSRMatrix:
    """Random sparse SPD matrix with controllable diagonal dominance.

    Draws a random strictly-lower pattern, mirrors it for symmetry, and
    sets each diagonal entry to slightly above its row's absolute sum
    plus a uniform shift of ``diag_boost`` times the mean row mass, so
    the result is strictly diagonally dominant with positive diagonal,
    hence SPD.  ``diag_boost`` near 0 gives harder (worse conditioned)
    systems; large values give well-conditioned ones.

    Deterministic for a fixed *seed*.
    """
    if n <= 0:
        raise ShapeError("n must be positive")
    if not (0.0 < density <= 1.0):
        raise ValueError("density must lie in (0, 1]")
    if diag_boost < 0.0:
        raise ValueError("diag_boost must be non-negative")
    rng = np.random.default_rng(seed)
    # Target number of strictly-lower entries.
    total_off = n * (n - 1) // 2
    m = int(min(total_off, max(n, round(density * n * n / 2))))
    if total_off == 0:
        m = 0
    rows = rng.integers(1, n, size=m) if m else np.empty(0, dtype=np.int64)
    cols = (rng.integers(0, np.maximum(rows, 1))
            if m else np.empty(0, dtype=np.int64))
    vals = (rng.standard_normal(m) * value_scale
            if m else np.empty(0, dtype=np.float64))
    all_rows = np.concatenate([rows, cols, np.arange(n)])
    all_cols = np.concatenate([cols, rows, np.arange(n)])
    all_vals = np.concatenate([vals, vals, np.zeros(n)])
    a = COOMatrix(all_rows, all_cols, all_vals.astype(dtype), (n, n),
                  check=False).tocsr()
    # Strict diagonal dominance: diag slightly above the row mass, plus a
    # uniform shift that directly controls the smallest eigenvalue (and
    # hence the conditioning).
    row_abs = np.zeros(n, dtype=np.float64)
    rid = np.repeat(np.arange(n, dtype=np.int64), a.row_lengths())
    off = rid != a.indices
    np.add.at(row_abs, rid[off], np.abs(a.data[off]).astype(np.float64))
    scale = float(row_abs.mean()) if n else 1.0
    scale = scale if scale > 0 else value_scale
    diag_vals = (row_abs * 1.001 + diag_boost * scale
                 + value_scale * 1e-2 + 1e-12)
    diag_mask = rid == a.indices
    data = a.data.copy()
    data[diag_mask] = diag_vals[rid[diag_mask]].astype(dtype)
    return CSRMatrix(a.indptr, a.indices, data, a.shape, check=False)
