"""Wavefront-batched (vectorized) numeric kernels.

The pure-Python row sweep of :func:`repro.precond.ilu0.ilu_numeric_inplace`
is the repo's hottest preprocessing path — every matrix of the suite is
factored five times (baseline, Algorithm-2 choice, three fixed ratios).
This module re-derives the factorization the way a GPU executes it
(cuSPARSE ``csrilu02``), split into the inspector and executor halves
the triangular solves already use.  Rows are grouped into the
wavefronts of the lower-triangular dependence DAG, and within a
wavefront every row's *t*-th elimination is one batched *step*.

The inspector, :func:`build_factor_plan`, depends on the pattern only
and is cached under its structure fingerprint.  It compiles the whole
elimination once: for every (wavefront, slot) step, the entries being
eliminated, their pivot rows' diagonals, each pivot's update count, and
the (target, source) entry pair of every update ``A[i,j] -= a_ik·U[k,j]``,
found with one ``searchsorted`` of the wanted ``row·n + col`` codes per
chunk of candidates rather than one per step.  The executor,
:func:`ilu_numeric_vectorized`, replays the steps with a handful of NumPy
calls each (gather and divide, store, ``repeat``, gather and multiply,
subtract-scatter) and never searches the pattern.

Correctness relies on three scheduling facts:

1. Row *i* eliminates only through pivot rows ``k`` with ``A[i,k] ≠ 0``
   below the diagonal, i.e. its predecessors in the DAG — all finished
   in earlier wavefronts.
2. Rows inside one wavefront touch disjoint row slices of the value
   array, so a batched fancy-index scatter has no write conflicts.
3. Within a row, pivots are processed in ascending column order — the
   slot order of the steps preserves it.

Each entry receives the same multiply–subtract updates in the same
order as the scalar sweep, so the factors are **bitwise identical** to
the oracle's, and so is the flop count, a function of the pattern that
the plan counts once.

:func:`repro.precond.ilu0.ilu0` and :func:`repro.precond.iluk.iluk`
run this sweep.  The scalar implementation,
:func:`repro.precond.ilu0.ilu_numeric_inplace`, stays as the executable
specification the tests compare it against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError, SingularFactorError, SparseFormatError
from ..graph.levels import LevelSchedule
from ..sparse.csr import CSRMatrix
from .cache import ArtifactCache, cached_lower_schedule, get_cache
from .fingerprint import structure_fingerprint

__all__ = ["FactorPlan", "build_factor_plan", "ilu_numeric_vectorized"]

#: Update candidates expanded at once while compiling a plan; bounds the
#: inspector's transient memory at about 40 bytes per candidate.
_CANDIDATE_CHUNK = 1 << 13


@dataclass(frozen=True)
class FactorPlan:
    """Inspector result for one sparsity pattern (values not read).

    Attributes
    ----------
    schedule:
        Wavefronts of the lower-triangular dependence DAG — rows within
        a level factor independently.  It is also the forward sweep's
        schedule of the factor ``L``, whose dependence graph is the
        same.
    levels:
        Per wavefront, ``(diagonals, steps)``: the diagonal positions of
        the level's rows (checked for zero pivots once the level is
        done) and its elimination steps in slot order.  A step is
        ``(pivots, pivot_diag, counts, targets, sources)``: the
        positions of the entries ``A[i,k]`` it eliminates, of their
        pivot rows' diagonals ``A[k,k]``, and the number of updates of
        each; then the entries ``A[i,j]`` updated and the ``U[k,j]``
        read, pivot by pivot.  The last three are ``None`` when no
        pivot of the step updates anything.  The arrays are private to
        the plan and never written, but not flagged read-only: NumPy's
        ``take`` and ``repeat`` copy a read-only index array on every
        call.
    flops:
        Flops of the numeric factorization: one division per pivot and
        a multiply–subtract per update.
    """

    schedule: LevelSchedule
    levels: tuple
    flops: float


def build_factor_plan(a: CSRMatrix, *,
                      cache: ArtifactCache | None = None) -> FactorPlan:
    """Build (or fetch) the :class:`FactorPlan` of *a*'s pattern.

    Cached under the structure fingerprint: re-factorizations of an
    unchanged pattern — time stepping, pivot-boost retries, ILU(K) grids
    sharing a symbolic pattern — skip the inspector entirely.
    """
    c = cache if cache is not None else get_cache()
    key = (structure_fingerprint(a),)
    return c.get_or_compute("ilu_plan", key, lambda: _build_plan(a))


def _expand_segments(starts: np.ndarray, lens: np.ndarray,
                     total: int) -> np.ndarray:
    """``[s0..s0+l0-1, s1..s1+l1-1, ...]`` without a Python loop."""
    out = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    out += np.arange(total, dtype=np.int64)
    return out


def _take_parts(parts: list, order: np.ndarray) -> np.ndarray:
    """``np.concatenate(parts)[order]``, emptying *parts* first so the
    pieces and their gathered copy are never all alive at once."""
    whole = np.concatenate(parts)
    parts.clear()
    return whole[order]


def _build_plan(a: CSRMatrix) -> FactorPlan:
    n = a.n_rows
    if a.shape[0] != a.shape[1]:
        raise ShapeError("ilu requires a square matrix")
    indptr, indices = a.indptr, a.indices
    nnz = indices.shape[0]
    rid = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    # ``row * n + col`` of every entry, ascending, and a sentinel above
    # every code: a search for an absent code then lands on an entry
    # whose code differs from it, never past the end.
    codes = np.empty(nnz + 1, dtype=np.int64)
    np.multiply(rid, np.int64(n), out=codes[:nnz])
    codes[:nnz] += indices
    codes[nnz] = np.int64(n) * np.int64(n)

    # Diagonal positions, batched: the diagonal's code is i*(n+1).
    diag_codes = np.arange(n, dtype=np.int64) * np.int64(n + 1)
    diag_pos = np.searchsorted(codes, diag_codes)
    ok = codes[diag_pos] == diag_codes
    if not ok.all():
        row = int(np.flatnonzero(~ok)[0])
        raise SparseFormatError(
            f"ILU(0) requires a stored diagonal entry in row {row}")

    schedule = cached_lower_schedule(a)
    n_levels = schedule.n_levels

    # Pivots (strictly-lower entries) in row-major order.  Level l owns
    # as many consecutive steps as its longest lower row, and the t-th
    # lower entry of a level-l row is eliminated in its level's t-th.
    piv = np.flatnonzero(indices < rid)
    piv_row = rid[piv]
    del rid
    steps_per_level = np.zeros(n_levels, dtype=np.int64)
    np.maximum.at(steps_per_level, schedule.level_of,
                  diag_pos - indptr[:-1])
    level_step_ptr = np.zeros(n_levels + 1, dtype=np.int64)
    np.cumsum(steps_per_level, out=level_step_ptr[1:])

    # Update candidates: each pivot row's upper part, j > k.  A
    # candidate is an update when (i, j) is in the pattern.  Row-major
    # pivots make the wanted codes nearly ascending, which keeps the
    # searchsorted cheap; chunks bound the transient arrays.
    n_piv = piv.shape[0]
    piv_diag = diag_pos[indices[piv]]
    up_len = indptr[indices[piv] + 1] - piv_diag - 1
    cand_end = np.cumsum(up_len)
    counts = np.zeros(n_piv, dtype=np.int64)
    tgt_parts = [np.empty(0, dtype=np.int64)]
    src_parts = [np.empty(0, dtype=np.int64)]
    lo = 0
    while lo < n_piv:
        base = int(cand_end[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(cand_end, base + _CANDIDATE_CHUNK,
                                     side="right")), lo + 1)
        total = int(cand_end[hi - 1]) - base
        if total:
            lens = up_len[lo:hi]
            src = _expand_segments(piv_diag[lo:hi] + 1, lens, total)
            want = (np.repeat(piv_row[lo:hi] * np.int64(n), lens)
                    + indices[src])
            tgt = np.searchsorted(codes, want)
            hit = codes[tgt] == want
            seen = np.zeros(total + 1, dtype=np.int64)
            np.cumsum(hit, out=seen[1:])
            counts[lo:hi] = np.diff(seen[cand_end[lo:hi] - base],
                                    prepend=0)
            tgt_parts.append(tgt[hit])
            src_parts.append(src[hit])
        lo = hi
    step = (level_step_ptr[schedule.level_of[piv_row]]
            + (piv - indptr[piv_row]))
    del codes, piv_row, up_len, cand_end
    n_upd = int(counts.sum())

    # Regroup by step (stable: rows stay ascending inside a step), each
    # pivot carrying its run of updates along.
    order = np.argsort(step, kind="stable")
    n_steps = int(level_step_ptr[-1])
    step_ptr = np.zeros(n_steps + 1, dtype=np.int64)
    np.cumsum(np.bincount(step, minlength=n_steps), out=step_ptr[1:])
    del step
    first = np.cumsum(counts) - counts
    counts = counts[order]
    regroup = _expand_segments(first[order], counts, n_upd)
    del first
    targets = _take_parts(tgt_parts, regroup)
    sources = _take_parts(src_parts, regroup)
    del regroup
    piv, piv_diag = piv[order], piv_diag[order]
    update_ptr = np.zeros(n_piv + 1, dtype=np.int64)
    np.cumsum(counts, out=update_ptr[1:])

    sp, up = step_ptr.tolist(), update_ptr[step_ptr].tolist()
    steps = []
    for s in range(n_steps):
        p0, p1, u0, u1 = sp[s], sp[s + 1], up[s], up[s + 1]
        upd = ((counts[p0:p1], targets[u0:u1], sources[u0:u1])
               if u1 > u0 else (None, None, None))
        steps.append((piv[p0:p1], piv_diag[p0:p1]) + upd)
    level_diag = diag_pos[schedule.rows]
    lp, lsp = schedule.level_ptr.tolist(), level_step_ptr.tolist()
    levels = tuple((level_diag[lp[lvl]:lp[lvl + 1]],
                    tuple(steps[lsp[lvl]:lsp[lvl + 1]]))
                   for lvl in range(n_levels))
    return FactorPlan(schedule=schedule, levels=levels,
                      flops=float(n_piv + 2 * n_upd))


def ilu_numeric_vectorized(a: CSRMatrix, *, raise_on_zero_pivot: bool = True,
                           pivot_boost: float = 1e-8,
                           plan: FactorPlan | None = None
                           ) -> tuple[np.ndarray, float]:
    """Wavefront-batched numeric ILU sweep on a fixed pattern.

    Drop-in replacement for
    :func:`repro.precond.ilu0.ilu_numeric_inplace` — same signature
    semantics, same ``(factored values, flop count)`` result, same
    zero-pivot policy (raise, or boost by ``pivot_boost · max|A|``).
    The executor half: it replays the steps compiled into *plan* (the
    cached plan of *a*'s pattern by default).  Zero pivots are detected
    at the end of a row's wavefront, before any later row divides by
    them, mirroring the scalar sweep's guarantees; the reported row is
    the smallest offender within the earliest offending wavefront.
    """
    plan = plan if plan is not None else build_factor_plan(a)
    fdata = a.data.astype(np.float64, copy=True)
    boost = float(pivot_boost) * (np.abs(fdata).max() if fdata.size else 1.0)
    take = fdata.take
    for lvl, (diagonals, steps) in enumerate(plan.levels):
        for pivots, pivot_diag, counts, targets, sources in steps:
            a_ik = take(pivots)
            a_ik /= take(pivot_diag)
            fdata[pivots] = a_ik
            if counts is not None:
                upd = a_ik.repeat(counts)
                upd *= take(sources)
                fdata[targets] -= upd

        # End-of-wavefront pivot policy: later wavefronts are the only
        # readers of these diagonals, so this is the last safe moment.
        if not take(diagonals).all():
            rows_lvl = plan.schedule.level_rows(lvl)
            zero = take(diagonals) == 0.0
            if raise_on_zero_pivot:
                raise SingularFactorError(int(rows_lvl[zero].min()), 0.0)
            fdata[diagonals[zero]] = boost if boost > 0 \
                else max(float(pivot_boost), 1e-8)
    return fdata, plan.flops
