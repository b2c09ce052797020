"""Small numeric utilities shared across the package.

These are the vectorized building blocks the rest of the library leans on:
segmented reductions (the row sums of the SpMV kernel), geometric means
and rank statistics.  Everything here is pure NumPy and
allocation-conscious: the hot paths accept preallocated outputs.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import ShapeError

__all__ = [
    "segment_sum",
    "segment_starts_to_lengths",
    "gmean",
    "rankdata",
    "spearman",
    "pearson",
    "histogram_fixed",
]


def segment_sum(values: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Sum contiguous segments ``values[starts[i]:ends[i]]`` for each *i*.

    Each segment is summed on its own by ``np.add.reduceat`` (pairwise
    summation within the segment), so a sum depends only on that
    segment's entries and its rounding error is bounded by them, not by
    the segments before it.  ``reduceat`` takes offsets, not
    ``(start, end)`` pairs, and returns the element *at* the offset for
    an empty segment, so empty segments are left out of the reduction
    and yield exactly 0.0; segments need not be adjacent or ordered.
    This is the row-sum kernel of the sparse norms and, for a matrix
    with an empty row, of :meth:`repro.sparse.CSRMatrix.matvec` and of
    ``matmat``'s ``reduceat`` route.

    Parameters
    ----------
    values:
        1-D array of addends, or a 2-D ``(len, B)`` block whose segments
        are summed along axis 0 — one batched kernel serving all ``B``
        columns (the multi-RHS SpMV).
    starts, ends:
        Integer arrays of equal length giving segment boundaries,
        ``0 <= starts[i] <= ends[i] <= len(values)``.
    out:
        Optional preallocated output of segment dtype.

    Notes
    -----
    Sums are accumulated in float64 regardless of input dtype, then cast
    back, so float32 input loses nothing to the accumulation.  For 2-D
    input each column's sums are bitwise identical to the 1-D call on
    that column alone (``reduceat`` runs the same pairwise additions
    down every column), which is what lets the batched SpMV decompose
    exactly into single-vector ones.
    """
    values = np.asarray(values)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    if starts.shape != ends.shape:
        raise ShapeError("starts and ends must have identical shapes")
    if values.ndim not in (1, 2):
        raise ShapeError("values must be 1-D or 2-D (segments along axis 0)")
    acc = values.astype(np.float64, copy=False)
    keep = ends > starts
    if keep.all():
        res = _nonempty_segment_sums(acc, starts, ends)
    else:
        res = np.zeros(starts.shape + values.shape[1:], dtype=np.float64)
        res[keep] = _nonempty_segment_sums(acc, starts[keep], ends[keep])
    if out is None:
        return res.astype(values.dtype, copy=False)
    out[...] = res
    return out


def _nonempty_segment_sums(acc: np.ndarray, starts: np.ndarray,
                           ends: np.ndarray) -> np.ndarray:
    """Sums of the non-empty segments ``acc[starts[i]:ends[i]]``, one
    ``np.add.reduceat`` call."""
    if not starts.size:
        return np.zeros((0,) + acc.shape[1:], dtype=acc.dtype)
    if np.array_equal(starts[1:], ends[:-1]):
        # The segments tile acc[starts[0]:ends[-1]]: one offset each,
        # plus ends[-1] when the tiling stops short of the end.
        bounds = (starts if ends[-1] == acc.shape[0]
                  else np.append(starts, ends[-1]))
        return np.add.reduceat(acc, bounds, axis=0)[:starts.size]
    # Offsets s0, e0, s1, e1, ...: the even results are the segments,
    # the odd ones the gaps between them.  A zero row makes an end at
    # len(acc) a valid offset.
    pad = np.concatenate((acc, np.zeros((1,) + acc.shape[1:], acc.dtype)))
    return np.add.reduceat(pad, np.column_stack((starts, ends)).ravel(),
                           axis=0)[::2]


def segment_starts_to_lengths(starts: np.ndarray, total: int) -> np.ndarray:
    """Convert CSR-style ``indptr`` (length m+1) to per-segment lengths."""
    starts = np.asarray(starts, dtype=np.int64)
    if starts.ndim != 1 or starts.size == 0:
        raise ShapeError("starts must be a non-empty 1-D indptr array")
    if starts[-1] != total:
        raise ShapeError(f"indptr must end at {total}, got {starts[-1]}")
    return np.diff(starts)


def gmean(x: Iterable[float]) -> float:
    """Geometric mean of strictly-positive values.

    The paper reports every aggregate speedup as a geometric mean; this is
    the single implementation used throughout the harness.
    """
    arr = np.asarray(list(x) if not isinstance(x, np.ndarray) else x,
                     dtype=np.float64)
    if arr.size == 0:
        raise ValueError("gmean of an empty sequence is undefined")
    if np.any(arr <= 0.0):
        raise ValueError("gmean requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))


def rankdata(x: np.ndarray) -> np.ndarray:
    """Average ranks of *x* (1-based), ties sharing the mean rank.

    Equivalent to ``scipy.stats.rankdata(x, method='average')`` but kept
    in-tree so the harness has no SciPy dependency.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError("rankdata expects a 1-D array")
    n = x.size
    order = np.argsort(x, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    sx = x[order]
    # Boundaries of tie-groups in the sorted order.
    boundary = np.empty(n, dtype=bool)
    if n:
        boundary[0] = True
        boundary[1:] = sx[1:] != sx[:-1]
    group_ids = np.cumsum(boundary) - 1
    counts = np.bincount(group_ids)
    firsts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    # Average 1-based rank for each group: first + (count-1)/2 + 1.
    avg = firsts + (counts - 1) / 2.0 + 1.0
    ranks[order] = avg[group_ids]
    return ranks


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation coefficient (Figures 10a/10b in the paper)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeError("spearman expects two 1-D arrays of equal length")
    if x.size < 2:
        raise ValueError("spearman requires at least two observations")
    return pearson(rankdata(x), rankdata(y))


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0.0:
        return 0.0
    return float((xc * yc).sum() / denom)


def histogram_fixed(values: np.ndarray, lo: float, hi: float,
                    width: float) -> tuple[np.ndarray, np.ndarray]:
    """Histogram with fixed-width bins over ``[lo, hi]``; clamps outliers.

    Mirrors the paper's speedup-distribution figures, which clamp the x-axis
    to [0, 5] with 0.25-wide bins.  Returns ``(edges, percent)`` where
    *percent* sums to 100 when *values* is non-empty.
    """
    values = np.asarray(values, dtype=np.float64)
    if width <= 0 or hi <= lo:
        raise ValueError("require width > 0 and hi > lo")
    edges = np.arange(lo, hi + width * 0.5, width)
    # When (hi-lo)/width is non-integral the last arange edge lands below
    # hi, so values clamped to nextafter(hi, lo) would fall outside every
    # bin and percent would sum to < 100.  Extend the final edge to hi.
    if edges.size < 2 or edges[-1] < hi:
        edges = np.append(edges, hi)
    clipped = np.clip(values, lo, np.nextafter(hi, lo))
    counts, _ = np.histogram(clipped, bins=edges)
    if values.size:
        percent = counts * (100.0 / values.size)
    else:
        percent = counts.astype(np.float64)
    return edges, percent
