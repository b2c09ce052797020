"""Magnitude-based, symmetry-preserving sparsification (Section 3.2).

Given a ratio ``t`` (percent), the sparsifier removes the ``t``% of
nonzero entries with the smallest absolute magnitude, subject to two
structural rules from the paper:

* **diagonal entries are always preserved** (numerical stability), and
* **entries are dropped in symmetric pairs** so that ``Â`` (and hence the
  theory's ``S = A − Â``) stays symmetric — all three matrices in
  Section 3.2.1 are required to be symmetric.

The result is the exact decomposition ``A = Â + S``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NotSymmetricError, ShapeError
from ..sparse.csr import CSRMatrix

__all__ = ["SparsifyResult", "sparsify_magnitude"]


@dataclass(frozen=True)
class SparsifyResult:
    """Decomposition ``A = Â + S`` produced by one sparsification.

    Attributes
    ----------
    a_hat:
        The sparsified matrix ``Â`` (kept entries).
    s:
        The residual matrix ``S`` (dropped entries), same shape.
    ratio_percent:
        The requested drop ratio ``t``.
    dropped_nnz:
        Entries actually removed (≤ the requested budget: pair dropping
        rounds down, and at most all off-diagonal entries can go).
    original_nnz:
        ``nnz(A)``.
    """

    a_hat: CSRMatrix
    s: CSRMatrix
    ratio_percent: float
    dropped_nnz: int
    original_nnz: int

    @property
    def achieved_percent(self) -> float:
        """Percentage of nonzeros actually dropped."""
        return (100.0 * self.dropped_nnz / self.original_nnz
                if self.original_nnz else 0.0)


def sparsify_magnitude(a: CSRMatrix, ratio_percent: float, *,
                       require_symmetric: bool = False) -> SparsifyResult:
    """Drop the smallest-magnitude off-diagonal entries of *a*.

    Parameters
    ----------
    a:
        Square CSR matrix in canonical form (sorted, unique columns in
        each row); assumed symmetric (the SPD setting of the paper).
        Pair dropping uses the strictly-lower entries as pair
        representatives, mirroring each drop to the transposed position.
    ratio_percent:
        Percentage ``t`` of ``nnz(A)`` to remove (0–100).  ``t = 0``
        returns ``Â = A`` and an empty ``S``.
    require_symmetric:
        When ``True``, verify structural symmetry first and raise
        :class:`NotSymmetricError` if violated.  Off by default because
        the check is O(nnz log nnz) and the pipeline validates inputs
        once upstream.

    Notes
    -----
    Selection is *global* over pair magnitudes (ascending ``|value|``,
    NaN last), ties broken by position for determinism; it partitions
    the magnitudes rather than sorting them, so the whole drop is a few
    linear passes over the entries.  The number of dropped
    entries is ``2 · ⌊budget / 2⌋`` capped at the available off-diagonal
    pairs; diagonal entries are never candidates.
    """
    if a.shape[0] != a.shape[1]:
        raise ShapeError("sparsification requires a square matrix")
    if not (0.0 <= ratio_percent <= 100.0):
        raise ValueError(f"ratio_percent must be in [0, 100], "
                         f"got {ratio_percent}")
    n = a.n_rows
    nnz = a.nnz
    rid = np.repeat(np.arange(n, dtype=np.int64), a.row_lengths())
    cols = a.indices

    if require_symmetric:
        from ..sparse.ops import is_structurally_symmetric

        if not is_structurally_symmetric(a):
            raise NotSymmetricError(
                "sparsify_magnitude requires a structurally symmetric "
                "matrix")

    budget = int(np.floor(ratio_percent / 100.0 * nnz))
    lower_idx = np.flatnonzero(cols < rid)
    n_pairs = min(budget // 2, lower_idx.size)

    if n_pairs == 0:
        empty = CSRMatrix(np.zeros(n + 1, dtype=np.int64),
                          np.empty(0, dtype=np.int64),
                          np.empty(0, dtype=a.dtype), a.shape, check=False)
        return SparsifyResult(a_hat=a.copy(), s=empty,
                              ratio_percent=float(ratio_percent),
                              dropped_nnz=0, original_nnz=nnz)

    chosen = lower_idx[_smallest(np.abs(a.data[lower_idx]), n_pairs)]
    # Each chosen (i, j) drops with its mirror (j, i), found by its
    # row-major code ``j·n + i`` in the codes of all entries, which a
    # canonical CSR stores in ascending order.  A structurally missing
    # mirror drops its representative alone.
    codes = rid * n + cols
    mirror = cols[chosen] * n + rid[chosen]
    at = np.minimum(np.searchsorted(codes, mirror), nnz - 1)
    found = codes[at] == mirror
    drop_mask = np.zeros(nnz, dtype=bool)
    drop_mask[chosen] = True
    drop_mask[at[found]] = True
    s_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rid[drop_mask], minlength=n), out=s_ptr[1:])
    keep_mask = ~drop_mask
    a_hat = CSRMatrix(a.indptr - s_ptr, cols[keep_mask], a.data[keep_mask],
                      a.shape, check=False)
    s = CSRMatrix(s_ptr, cols[drop_mask], a.data[drop_mask], a.shape,
                  check=False)
    return SparsifyResult(a_hat=a_hat, s=s,
                          ratio_percent=float(ratio_percent),
                          dropped_nnz=int(s_ptr[-1]),
                          original_nnz=nnz)


def _smallest(mags: np.ndarray, k: int) -> np.ndarray:
    """Positions of the *k* smallest entries of *mags* (``1 ≤ k ≤ size``).

    The set ``np.argsort(mags, kind="stable")[:k]`` picks — ties broken
    by position, NaN after every number — selected in linear time: every
    entry below the *k*-th smallest value, then the first tied entries.
    """
    kth = np.partition(mags, k - 1)[k - 1]
    if np.isnan(kth):
        below = ~np.isnan(mags)
        tied = ~below
    else:
        below, tied = mags < kth, mags == kth
    picked = np.flatnonzero(below)
    return np.concatenate([picked, np.flatnonzero(tied)[:k - picked.size]])
