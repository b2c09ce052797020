"""Compressed sparse row matrix — the workhorse container.

Everything in the SPCG pipeline (sparsification, ILU factorization,
wavefront scheduling, triangular solves, SpMV) operates on this class.
The canonical form required by the numeric kernels is: sorted column
indices within each row and no duplicate entries; :meth:`check_format`
verifies it and conversions from COO establish it.

A matrix is read-only once its constructor returns, so what depends on
its content alone is computed once per object and kept on it: the
fingerprints of :mod:`repro.perf.fingerprint` and the slot plan of the
block SpMV, values included.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError, SparseFormatError
from ..util import segment_sum

__all__ = ["CSRMatrix"]

#: Narrowest block summed slot by slot: at 4 and 6 columns the slot sums
#: lost to ``reduceat`` on 31 and 5 of the registry patterns that keep a
#: plan (up to x1.12 per product), at 8 columns on 2, by at most x1.04.
_SLOT_MIN_WIDTH = 8
#: Fewest rows per NumPy call of the slot sums at which a pattern keeps
#: its plan.  A call on strided ``(B, rows)`` views costs about 4 us of
#: setup whatever its size, what ``reduceat`` spends on some 50 rows of
#: eight columns, and the adds move each addend more often than
#: ``reduceat`` does: on the registry's patterns the slot sums broke even
#: near 100 rows per call at eight columns.  Patterns with many row
#: lengths for their order (few rows per group and slot) keep
#: ``reduceat``.
_MIN_ROWS_PER_CALL = 128
#: Rows of at least this many entries: NumPy's pairwise summation splits
#: their 129 or more addends in halves, so ``reduceat`` itself sums them.
_SPLIT_ROW = 130
#: Memory order of the eight slots of a block of partial sums (slot
#: ``k + 1`` holds ``r_k``): NumPy's ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``
#: is then three adds of a block's second half into its first.
_BLOCK = (1, 5, 3, 7, 2, 6, 4, 8)


class _SlotPlan:
    """Where each product of a block SpMV goes for the slot sums, and
    the matrix's values in that order.

    ``np.add.reduceat`` sums a row of ``L`` entries as its first entry
    plus NumPy's pairwise sum of the other ``n = L − 1``: left to right
    from −0.0 when ``n < 8``; else eight strided partial sums over the
    first ``8q`` addends (``q = n // 8`` blocks of eight), combined,
    then the ``n % 8`` left over, left to right; ``n > 128`` splits the
    row in halves.  Rows that make the same additions in the same order
    form a group: rows of at most 8 entries (``q = 0``), one group per
    ``q`` from 1 to 16, and the split rows.  A group's rows are ordered
    longest first, and its products are laid out slot by slot: slot
    ``k`` holds the ``k``-th product of every row longer than ``k``, a
    prefix of the group, so one whole-array add on ``(B, rows)`` views
    makes one of the additions for all of them (:func:`_sum_group`);
    the ``8q`` slots of the partial sums, which every row of a ``q ≥ 1``
    group has, lie in blocks of eight in ``_BLOCK`` order.  The split
    rows keep their products contiguous and their ``reduceat`` offsets.

    ``order`` is the products' positions in ``data``, ``cols`` their
    columns (``indices[order]``), ``values`` their values
    (``data[order]``), ``inverse`` each row's position in the grouped
    order.  ``groups`` holds each slot group's ``q``, rows,
    first product and the ``(start, stop)`` of each prefix slot (every
    slot for ``q = 0``, the left-over addends otherwise); ``split`` the
    split rows' first row, first product and offsets, or ``None``;
    ``calls`` counts the NumPy calls of :meth:`row_sums`.
    """

    __slots__ = ("order", "cols", "values", "inverse", "groups", "split",
                 "calls")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray, n_cols: int):
        lengths = np.diff(indptr)
        n = lengths.size
        itype = (np.int32 if max(indices.size, n, n_cols) < 2 ** 31
                 else np.int64)
        group = np.where(lengths <= 8, 0, (lengths - 1) // 8)
        group[lengths >= _SPLIT_ROW] = _SPLIT_ROW
        rows = np.lexsort((-lengths, group))
        cuts = (np.flatnonzero(np.diff(group[rows])) + 1).tolist()
        edges = [0, *cuts, n] if n else []
        parts, self.groups, self.split = [], [], None
        e0, self.calls = 0, 1
        for r0, r1 in zip(edges, edges[1:]):
            block = rows[r0:r1]
            starts, lens = indptr[block], lengths[block]
            q = int(group[block[0]])
            if q == _SPLIT_ROW:
                offsets = np.cumsum(lens) - lens
                parts.append(np.arange(int(lens.sum()))
                             + np.repeat(starts - offsets, lens))
                self.split = (r0, e0, offsets)
                e0 += parts[-1].size
                self.calls += 1
                continue
            g0 = e0
            if q:
                # Slot 0 and the 8q slots of partial sums: every row has them.
                for k in [0] + [8 * m + k for m in range(q) for k in _BLOCK]:
                    parts.append(starts + k)
                e0 += (8 * q + 1) * starts.size
            first = 8 * q + 1 if q else 0
            widths = np.searchsorted(-lens, -np.arange(first, lens[0]))
            prefix = []
            for k, w in enumerate(widths.tolist(), first):
                parts.append(starts[:w] + k)
                prefix.append((e0, e0 + w))
                e0 += w
            self.groups.append((q, r0, r1, g0, prefix))
            # q - 1 block adds, 3 halvings, the prefix adds and the last
            # add; for q = 0 at most the last add, a copy and a fill
            # beside the adds of the prefix slots after the first two.
            self.calls += len(prefix) + (q + 3 if q else 1)
        self.order = np.concatenate(parts or [np.zeros(0, np.int64)]
                                    ).astype(itype)
        self.cols = indices[self.order].astype(itype)
        self.values = data[self.order]
        self.inverse = np.empty(n, dtype=itype)
        self.inverse[rows] = np.arange(n, dtype=itype)

    def row_sums(self, acc: np.ndarray) -> np.ndarray:
        """Row sums of the float64 ``(B, nnz)`` products *acc*, laid out
        in ``order``, as a ``(B, n_rows)`` array in row order.  *acc* is
        scratch: the sums accumulate in its slots."""
        y = np.empty((acc.shape[0], self.inverse.size))
        for q, r0, r1, e0, prefix in self.groups:
            _sum_group(acc, q, e0, prefix, y[:, r0:r1])
        if self.split is not None:
            r0, e0, offsets = self.split
            y[:, r0:] = np.add.reduceat(acc[:, e0:], offsets, axis=-1)
        return y.take(self.inverse, -1)


def _sum_group(acc: np.ndarray, q: int, e0: int, prefix: list,
               out: np.ndarray) -> None:
    """Sum the rows of one slot group of :class:`_SlotPlan` into *out*,
    ``(B, rows)``, with ``reduceat``'s additions in its order, each one
    whole-array add on 2-D views of *acc* (NumPy buffers 3-D strided
    operands, at several times the cost); the slots are overwritten.

    ``p`` accumulates each row's pairwise sum of its addends: for
    ``q = 0`` it is slot 1 (−0.0 + a is a, so it starts as the first
    addend); for ``q ≥ 1`` the first block of partial sums, into which
    the other blocks are added and whose halves are then combined.  The
    prefix slots are added into ``p`` as far as each reaches, and slot 0
    last: rows with one entry copy it and empty rows read 0.0."""
    c = out.shape[1]
    if q:
        head, r = acc[:, e0:e0 + c], acc[:, e0 + c:e0 + 9 * c]
        for lo in range(e0 + 9 * c, e0 + (8 * q + 1) * c, 8 * c):
            np.add(r, acc[:, lo:lo + 8 * c], out=r)
        for h in (4, 2, 1):
            np.add(r[:, :h * c], r[:, h * c:2 * h * c], out=r[:, :h * c])
        p, tail = r[:, :c], prefix
    else:
        # Slots 0 and 1; an empty view where every row is shorter.
        head, p = (acc[:, lo:hi] for lo, hi in (prefix + [(0, 0)] * 2)[:2])
        tail = prefix[2:]
    for lo, hi in tail:
        w = hi - lo
        np.add(p[:, :w], acc[:, lo:hi], p[:, :w])
    w0, w1 = head.shape[1], p.shape[1]
    np.add(head[:, :w1], p, out[:, :w1])
    if w0 > w1:
        out[:, w1:w0] = head[:, w1:]
    if c > w0:
        out[:, w0:] = 0.0


def _private(arr: np.ndarray) -> np.ndarray:
    """A writeable handle on *arr*'s memory, for the kernels to read.

    NumPy's ``take``, ``repeat`` and ``ufunc.reduceat`` copy a read-only
    index array on every call (a 200,000-entry ``take`` allocates 1.6 MB
    for it), so the kernels never gather through the public read-only
    views.  A read-only *arr* whose memory some writeable array owns,
    such as another matrix's public view, gets a writeable view of it;
    memory that nothing may write is copied once.
    """
    if arr.flags.writeable:
        return arr
    handle = arr.view()
    try:
        handle.flags.writeable = True
    except ValueError:
        handle = arr.copy()
    return handle


def _read_only(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


class CSRMatrix:
    """Sparse matrix in compressed sparse row format (Figure 1b of the paper).

    Parameters
    ----------
    indptr:
        Row pointer array of length ``n_rows + 1``.
    indices:
        Column indices, length ``nnz``.
    data:
        Values, length ``nnz``.
    shape:
        ``(n_rows, n_cols)``.
    check:
        When ``True`` (default) validate the format invariants.

    A matrix is read-only: :attr:`indptr`, :attr:`indices` and
    :attr:`data` are read-only views, so writing into them raises
    ``ValueError``, and none of them can be reassigned.  A matrix with
    other values is a new matrix (build its arrays first, then the
    matrix).  That is what lets it keep what depends on its content
    alone: its fingerprints and its slot plan's values are computed
    once.  Contiguous inputs of the right dtype are not copied, and the
    arrays a caller passes in stay writeable: a caller who keeps such an
    array and writes into it changes the matrix behind its kept
    fingerprints and slot plan, which then go stale.
    """

    __slots__ = ("_indptr", "_indices", "_data", "_views", "shape",
                 "_rows_nonempty", "_block_products", "_block_plan",
                 "_pattern_hash", "_structure_fp", "_matrix_fp")

    def __init__(self, indptr, indices, data, shape: tuple[int, int], *,
                 check: bool = True):
        # The kernels read the writeable handles (see _private); the
        # public attributes are read-only views of the same memory.
        self._indptr, self._indices, self._data = handles = (
            _private(np.ascontiguousarray(indptr, dtype=np.int64)),
            _private(np.ascontiguousarray(indices, dtype=np.int64)),
            _private(np.ascontiguousarray(data)))
        self._views = tuple(map(_read_only, handles))
        if len(shape) != 2 or shape[0] < 0 or shape[1] < 0:
            raise ShapeError(f"invalid shape {shape!r}")
        self.shape = (int(shape[0]), int(shape[1]))
        self._rows_nonempty: bool | None = None
        # Block products of the slot route's width, counted up to the
        # second, which builds the slot plan if the pattern pays for it.
        self._block_products = 0
        self._block_plan: _SlotPlan | None = None
        # Fingerprint memos, kept by repro.perf.fingerprint.
        self._pattern_hash = self._structure_fp = self._matrix_fp = None
        if check:
            self.check_format()

    # -- basic properties ------------------------------------------------
    @property
    def indptr(self) -> np.ndarray:
        """Row pointers, length ``n_rows + 1`` (read-only)."""
        return self._views[0]

    @property
    def indices(self) -> np.ndarray:
        """Column indices, length ``nnz`` (read-only)."""
        return self._views[1]

    @property
    def data(self) -> np.ndarray:
        """Stored values, length ``nnz`` (read-only)."""
        return self._views[2]

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self._indptr[-1])

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def density(self) -> float:
        """Fraction of stored entries relative to a dense matrix."""
        n, m = self.shape
        return self.nnz / (n * m) if n and m else 0.0

    def row_lengths(self) -> np.ndarray:
        """Stored entries per row, length ``n_rows``."""
        return np.diff(self._indptr)

    def row_slice(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of row *i*'s ``(columns, values)``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    # -- validation ------------------------------------------------------
    def check_format(self) -> None:
        """Validate CSR invariants, raising :class:`SparseFormatError`.

        Checks: indptr length/monotonicity, index bounds, array lengths,
        sorted-and-unique columns within each row (the canonical form the
        numeric kernels assume).
        """
        n, m = self.shape
        if self.indptr.ndim != 1 or self.indptr.shape[0] != n + 1:
            raise SparseFormatError(
                f"indptr must have length n_rows+1={n + 1}, "
                f"got {self.indptr.shape}")
        if self.indptr[0] != 0:
            raise SparseFormatError("indptr[0] must be 0")
        if np.any(np.diff(self.indptr) < 0):
            raise SparseFormatError("indptr must be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.indices.shape != (nnz,) or self.data.shape != (nnz,):
            raise SparseFormatError(
                "indices/data length must equal indptr[-1]")
        if nnz:
            if self.indices.min() < 0 or self.indices.max() >= m:
                raise SparseFormatError("column index out of bounds")
            # Sorted & unique within rows: differences inside a row must be
            # strictly positive.  Row boundaries are exempt.
            d = np.diff(self.indices)
            row_start = np.zeros(nnz, dtype=bool)
            # Interior row starts; boundaries equal to nnz come from
            # trailing empty rows and mark no entry.
            starts = self.indptr[1:-1]
            row_start[starts[starts < nnz]] = True
            interior = ~row_start[1:]
            if np.any(d[interior] <= 0):
                raise SparseFormatError(
                    "column indices must be sorted and unique within rows")

    # -- constructors / conversions --------------------------------------
    @classmethod
    def from_dense(cls, dense, *, dtype=None) -> "CSRMatrix":
        """Build from a dense 2-D array, storing its nonzero entries."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ShapeError("from_dense expects a 2-D array")
        if dtype is not None:
            dense = dense.astype(dtype, copy=False)
        rows, cols = np.nonzero(dense)
        indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr, cols.astype(np.int64), dense[rows, cols].copy(),
                   dense.shape, check=False)

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense 2-D array.

        Duplicate coordinates (possible with ``check=False``) are
        summed, matching :meth:`matvec` and the COO convention.
        """
        out = np.zeros(self.shape, dtype=self.data.dtype)
        rows = np.repeat(np.arange(self.n_rows), self.row_lengths())
        np.add.at(out, (rows, self.indices), self.data)
        return out

    def tocoo(self):
        """Convert to :class:`~repro.sparse.coo.COOMatrix` (copies indices)."""
        from .coo import COOMatrix

        rows = np.repeat(np.arange(self.n_rows, dtype=np.int64),
                         self.row_lengths())
        return COOMatrix(rows, self.indices.copy(), self.data.copy(),
                         self.shape, check=False)

    def tocsc(self):
        """Convert to :class:`~repro.sparse.csc.CSCMatrix`."""
        from .csc import CSCMatrix

        t = self.transpose()
        return CSCMatrix(t._indptr, t._indices, t._data, self.shape,
                         check=False)

    def transpose(self) -> "CSRMatrix":
        """Return the transpose as a new canonical CSR matrix."""
        n, m = self.shape
        rows = np.repeat(np.arange(n, dtype=np.int64), self.row_lengths())
        # Stable counting sort by column gives the transpose's row order;
        # within a column the original row order is already ascending, so
        # the result is canonical.
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.add.at(indptr, self.indices + 1, 1)
        np.cumsum(indptr, out=indptr)
        order = np.argsort(self.indices, kind="stable")
        return CSRMatrix(indptr, rows[order], self.data[order], (m, n),
                         check=False)

    def copy(self) -> "CSRMatrix":
        """Deep copy: shares no memory with this matrix."""
        return CSRMatrix(self._indptr.copy(), self._indices.copy(),
                         self._data.copy(), self.shape, check=False)

    def astype(self, dtype) -> "CSRMatrix":
        """Return a copy with values cast to *dtype* (indices shared)."""
        return CSRMatrix(self._indptr, self._indices,
                         self._data.astype(dtype), self.shape, check=False)

    # -- numeric kernels ---------------------------------------------------
    def _spmv(self, x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """Row sums of ``data * x[indices]`` for a 1-D or ``(n, B)`` *x*.

        A block is worked on as its transpose ``xᵀ``, ``(B, n)``, so
        each right-hand side is one contiguous row (``.T`` leaves a
        vector as it is).  One ``take`` gathers along those rows, one
        in-place multiply by ``data`` runs along them, and the ``(B, n)``
        sums come back as the column-major ``(n, B)`` block ``.T``.
        Two routes sum the rows, with the same additions in the same
        order, so every column of every product is bitwise the 1-D call
        on that column; the route depends only on the block width and
        on what earlier block products left on the matrix:

        * ``reduceat``, for vectors, blocks narrower than
          ``_SLOT_MIN_WIDTH`` and every block until the matrix holds a
          slot plan: one ``np.add.reduceat`` over the row offsets
          ``indptr[:-1]``, one inner-loop call per row and right-hand
          side.  The offsets are valid ``reduceat`` offsets only when
          every row stores an entry; the check runs on the first
          product and is kept, as the matrix is read-only.  A matrix
          with an empty row goes through
          :func:`~repro.util.segment_sum`, whose masking keeps
          ``reduceat`` off empty segments.
        * the slot sums, for blocks of ``_SLOT_MIN_WIDTH`` columns or
          more once the matrix holds a :class:`_SlotPlan`: the gather
          follows the plan's order, the rows of each group are summed
          by whole-array adds over their slots (:func:`_sum_group`),
          and one ``take`` restores row order.  The plan is built from
          the pattern, with the values in its order, at the second such
          product and kept if it makes at least ``_MIN_ROWS_PER_CALL``
          rows per NumPy call; a matrix that makes one block product
          keeps none.

        Every gather reads the matrix's writeable private handles (see
        :func:`_private`), so no NumPy call copies an index array.
        Scratch is allocated per call: cached matrices are shared
        across threads.
        """
        indptr, indices, data = self._indptr, self._indices, self._data
        if self._rows_nonempty is None:
            self._rows_nonempty = bool(self.n_rows) and bool(
                (indptr[1:] > indptr[:-1]).all())
        dtype = np.result_type(data.dtype, x.dtype)
        plan = None
        if x.ndim == 2 and x.shape[1] >= _SLOT_MIN_WIDTH:
            # Unlocked: threads racing here at worst build the same plan
            # twice, and each product reads the plan once.
            plan = self._block_plan
            if plan is None and self._block_products < 2:
                self._block_products += 1
                if self._block_products == 2:
                    plan = _SlotPlan(indptr, indices, data, self.n_cols)
                    if plan.calls * _MIN_ROWS_PER_CALL > self.n_rows:
                        plan = None
                    self._block_plan = plan
        if plan is not None:
            prod = x.T.take(plan.cols, -1)
            values = plan.values
        else:
            prod = x.T.take(indices, -1)
            values = data
        prod = np.multiply(prod, values,
                           out=prod if prod.dtype == dtype else None)
        # float32 products are summed in float64, as segment_sum does.
        acc = prod.astype(np.float64, copy=False)
        if plan is not None:
            y = plan.row_sums(acc)
        elif self._rows_nonempty:
            y = np.add.reduceat(acc, indptr[:-1], axis=-1)
        else:
            y = np.empty(acc.shape[:-1] + (self.n_rows,))
            segment_sum(acc.T, indptr[:-1], indptr[1:], out=y.T)
        y = y.astype(dtype, copy=False).T
        if out is None:
            return y
        out[...] = y
        return out

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Sparse matrix–vector product ``y = A @ x``.

        The SpMV kernel on line 9 of Algorithm 1: a ``take`` gather of
        ``x``, an in-place multiply by the values and one
        ``np.add.reduceat`` over the row offsets, summing each row on its
        own.  float32 products are accumulated in float64 and the sums
        cast to ``result_type(A, x)``; a given ``out`` receives them with
        NumPy's assignment cast.
        """
        x = np.asarray(x)
        if x.shape != (self.n_cols,):
            raise ShapeError(
                f"x must have shape ({self.n_cols},), got {x.shape}")
        return self._spmv(x, out)

    def matmat(self, x: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
        """Sparse matrix–dense block product ``Y = A @ X``, ``X`` (n, B).

        The batched SpMV of the multi-RHS solver: one gather and one
        multiply serve all ``B`` columns.  The kernel works on ``Xᵀ``
        with each right-hand side a contiguous row — free for a
        column-major ``X``, one transposing copy for any other layout —
        and returns the column-major ``(n, B)`` result.  The rows are
        summed by ``reduceat`` or, from a matrix's second block of
        ``_SLOT_MIN_WIDTH`` columns or more, by the slot sums (see
        :meth:`_spmv`); both make the 1-D call's additions in its
        order, so each column of the result is bitwise identical to
        :meth:`matvec` on that column alone and block solves decompose
        exactly into single-RHS ones.
        """
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[0] != self.n_cols:
            raise ShapeError(
                f"x must have shape ({self.n_cols}, B), got {x.shape}")
        if x.shape[1] == 1:
            # One column runs the vector kernel on its column view: the
            # same numbers, without the 2-D take and reduceat, whose
            # iterator setup costs a one-column CG iteration about 3 µs.
            y = self._spmv(x[:, 0], None if out is None else out[:, 0])
            return y[:, None] if out is None else out
        return self._spmv(x, out)

    def __matmul__(self, x):
        if isinstance(x, np.ndarray) and x.ndim == 1:
            return self.matvec(x)
        if isinstance(x, np.ndarray) and x.ndim == 2:
            return self.matmat(x)
        return NotImplemented

    def diagonal(self) -> np.ndarray:
        """Main diagonal as a dense vector (zeros where unstored).

        Duplicate stored coordinates (representable when built with
        ``check=False``) are **summed** — the same assembly semantics
        :meth:`matvec` and the COO conversion apply — so every consumer
        of the diagonal sees the matrix the numeric kernels act on.
        """
        n = min(self.shape)
        out = np.zeros(n, dtype=self.data.dtype)
        for_rows = np.arange(self.n_rows, dtype=np.int64)
        rows = np.repeat(for_rows, self.row_lengths())
        mask = (rows == self.indices) & (rows < n)
        np.add.at(out, rows[mask], self.data[mask])
        return out

    def eliminate_zeros(self, tol: float = 0.0) -> "CSRMatrix":
        """Return a copy with entries of magnitude ``<= tol`` removed."""
        keep = np.abs(self.data) > tol
        rows = np.repeat(np.arange(self.n_rows, dtype=np.int64),
                         self.row_lengths())[keep]
        indptr = np.zeros(self.n_rows + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return CSRMatrix(indptr, self.indices[keep], self.data[keep],
                         self.shape, check=False)

    def get(self, i: int, j: int) -> float:
        """Value at ``(i, j)`` (0.0 when unstored). O(log row length)."""
        cols, vals = self.row_slice(i)
        k = np.searchsorted(cols, j)
        if k < cols.shape[0] and cols[k] == j:
            return float(vals[k])
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
                f"dtype={self.data.dtype})")
