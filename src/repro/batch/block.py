"""Batched multi-RHS preconditioned conjugate gradient.

:func:`pcg_block` runs Algorithm 1 over an ``(n, B)`` block of
right-hand sides simultaneously.  The paper's speedup story is
amortizing per-wavefront synchronization; the same amortization applies
across right-hand sides: one level-scheduled triangular sweep over the
block pays the wavefront barriers once for all ``B`` solves (the
``B``-fold launch/sync saving :func:`repro.machine.kernels.
iteration_cost` prices at ``batch=B``), which is the batching lever multi-
request throughput lives on — the same grouping-to-cut-synchronizations
idea as communication-reduced CG variants on GPU clusters.

Semantics
---------
Every column evolves with its *own* alpha/beta (scalars per column, not
a block Krylov method), its own convergence check against the stopping
criterion, and its own breakdown classification.  A column that
terminates — converged, indefinite curvature, numerical breakdown — is
**frozen**: it leaves the working set and is never recomputed, exactly
as if its sequential :func:`repro.solvers.cg.pcg` loop had stopped.
The result therefore decomposes into per-column
:class:`~repro.solvers.result.SolveResult` records matching a
sequential ``pcg`` loop (bitwise, up to the reduction kernels; within
1e-10 in the property tests).

Continuous batching
-------------------
A *slot hook* (:data:`SlotHook`) turns the static block into a rolling
one: at every iteration boundary the hook may **admit** new right-hand
sides into slots freed by retired columns and **cancel** running
columns (deadline expiry, caller cancellation).  An admitted column
starts its own iteration 0 at that boundary — zero initial guess (or a
caller-supplied warm start), its own residual history, its own stopping
threshold — so its trajectory is
the one a fresh sequential solve would take; resident columns are never
recomputed or perturbed (their per-column scalars and reductions do not
see the newcomer).  :mod:`repro.serve` builds its online scheduler on
this hook.

Verification and checkpoint/restart
-----------------------------------
A :class:`VerifyConfig` arms two silent-corruption detectors (the ABFT
machinery communication-reduced CG variants lean on for numerical
trust):

* **ABFT column checksums** — every batched SpMV ``w = A·p`` is
  verified against the precomputed column-sum vector ``s = 1ᵀA``:
  ``1ᵀw_j`` must match ``s·p_j`` to a rounding-scaled tolerance.  A
  mismatch freezes the column at its *pre-sweep* state (which the
  checksum just proved clean) with ``CORRUPTED``.
* **Periodic true-residual checks** — every ``residual_check_every``
  local sweeps a column's recurrence residual is compared against the
  recomputed ``b − A·x``; drift beyond tolerance is classified
  ``CORRUPTED``, agreement marks the column *verified* at this
  boundary (optionally replacing the recurrence residual with the true
  one — classic residual replacement, off by default because it
  perturbs the trajectory the restart-exactness tests pin down).

The slot hook's third argument is a :class:`BoundaryView` whose
:meth:`~BoundaryView.capture` snapshots a live column's full CG state
as a :class:`CheckpointState`; admitting ``(key, b, checkpoint)`` later
resumes that column *bitwise* where the snapshot left off (per-column
kernels are batch-composition independent), which is the serving
layer's crash/corruption recovery path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from ..errors import AbortSolve, InvalidRequestError, ShapeError
from ..obs.metrics import get_metrics
from ..obs.trace import get_recorder
from ..precond.base import Preconditioner
from ..solvers.cg import _prepare
from ..solvers.result import SolveResult, TerminationReason
from ..solvers.stopping import StoppingCriterion
from ..sparse.csr import CSRMatrix

__all__ = ["BlockSolveResult", "SlotDecision", "SlotHook", "VerifyConfig",
           "CheckpointState", "BoundaryView", "pcg_block"]


@dataclass
class SlotDecision:
    """What a slot hook wants done at one iteration boundary.

    Attributes
    ----------
    admit:
        ``(key, b)`` pairs — or ``(key, b, state)`` triples — to
        admit as new columns.  *key* is the caller's opaque handle (a
        request id); it comes back in ``extra["serve"]["keys"]``.  A
        two-tuple (or ``state=None``) starts at the column's own
        iteration 0 with a zero initial guess; a
        :class:`CheckpointState` resumes the column bitwise from that
        snapshot (the crash/corruption restart path); a plain
        ``(n,)`` ndarray is a **warm start** — the column begins its
        own iteration 0 from that guess (residual ``b − A·x0``), the
        amortized-stream join path.
    cancel:
        ``(key, reason)`` pairs; each matching **active** column is
        frozen at the boundary with that termination reason and the
        iterate it has already earned.  Keys that are unknown or already
        retired are ignored — cancelling a completed column is a no-op
        by construction.
    """

    admit: Sequence[tuple] = ()
    cancel: Sequence[tuple[object, TerminationReason]] = ()

    def __bool__(self) -> bool:
        return bool(self.admit) or bool(self.cancel)


#: Called as ``hook(sweep, active_keys, view)``, with a
#: :class:`BoundaryView`, at the boundary *before* sweep ``sweep``
#: runs (1-based).  ``active_keys`` is the tuple of keys of live
#: columns before the decision is applied, so the caller always knows
#: exactly which of its requests still occupy slots; the hook owns any
#: notion of time (the serving scheduler advances its modeled clock
#: here).  Returning ``None`` means "no changes".  When the working set
#: is empty and the hook admits nothing, the block ends.
SlotHook = Callable[[int, tuple, "BoundaryView"], "SlotDecision | None"]


@dataclass(frozen=True)
class VerifyConfig:
    """Silent-corruption detection knobs for :func:`pcg_block`.

    Attributes
    ----------
    abft:
        Verify every batched SpMV against the column-sum checksum
        vector ``s = 1ᵀA`` (``1ᵀ(A·p)_j`` vs ``s·p_j`` per column).
    abft_rtol:
        Relative checksum tolerance, scaled by ``|s|ᵀ|p_j|`` so it
        tracks the rounding error of the sums being compared; well
        above float64 accumulation noise at the suite's orders, well
        below any injected exponent/mantissa bit flip.
    residual_check_every:
        Recompute the true residual ``b − A·x`` every this many *local*
        sweeps per column and compare against the recurrence residual
        (``None`` disables).  Columns that pass are reported *verified*
        at that boundary — the states the serving layer checkpoints.
    residual_rtol:
        Drift tolerance relative to the column's ``‖b‖``.
    replace:
        On a passing check, replace the recurrence residual with the
        true residual and restart the search direction (van der Vorst
        style residual replacement).  Off by default: replacement
        perturbs the trajectory, and the recovery invariants pin the
        restarted trajectory bitwise to the fault-free one.
    """

    abft: bool = True
    abft_rtol: float = 1e-8
    residual_check_every: int | None = None
    residual_rtol: float = 1e-6
    replace: bool = False

    def __post_init__(self):
        if self.abft_rtol <= 0 or self.residual_rtol <= 0:
            raise ValueError("verification tolerances must be positive")
        if (self.residual_check_every is not None
                and self.residual_check_every < 1):
            raise ValueError("residual_check_every must be positive "
                             "or None")


@dataclass(frozen=True)
class CheckpointState:
    """Complete CG state of one column at an iteration boundary.

    Captured by :meth:`BoundaryView.capture` (deep copies — the block
    keeps mutating its working set) and consumed by a later
    ``SlotDecision.admit`` triple.  Because every per-column kernel is
    bitwise independent of batch composition, resuming from a
    checkpoint continues the *exact* trajectory the column would have
    taken uncorrupted — the foundation of the exact-recovery invariant.
    """

    x: np.ndarray
    r: np.ndarray
    p: np.ndarray
    rz: float
    iters: int
    history: tuple[float, ...]

    def __post_init__(self):
        if self.iters < 0:
            raise ValueError("iters must be non-negative")
        if len(self.history) != self.iters + 1:
            raise ValueError(
                f"history length {len(self.history)} does not match "
                f"iters {self.iters} (+1 for the initial residual)")


class BoundaryView:
    """Read-only window into the block state at one iteration boundary,
    handed to the slot hook as its third argument.

    Attributes
    ----------
    sweep:
        The 1-based boundary (same value as the hook's first argument).
    verified:
        Keys whose true-residual check *passed at this boundary* —
        their live state is proven consistent, safe to checkpoint.
    detected:
        Corruption detections since the previous boundary: dicts with
        ``key``, ``method`` (``"abft"`` / ``"residual"``), ``sweep``,
        ``error`` and ``tolerance``.  The named columns are already
        frozen with ``CORRUPTED``.
    """

    __slots__ = ("sweep", "verified", "detected", "_capture")

    def __init__(self, sweep: int, verified: tuple, detected: tuple,
                 capture: Callable[[object], CheckpointState]):
        self.sweep = sweep
        self.verified = verified
        self.detected = detected
        self._capture = capture

    def capture(self, key: object) -> CheckpointState:
        """Snapshot the live column *key* (deep copy).  Raises
        ``KeyError`` for unknown or already-retired keys."""
        return self._capture(key)


@dataclass
class BlockSolveResult:
    """Outcome of one block PCG solve over ``B`` right-hand sides.

    Attributes
    ----------
    x:
        Final iterates, shape ``(n, B)`` (best effort per column).
    converged:
        Boolean array ``(B,)``.
    n_iters:
        Completed iterations per column, ``(B,)``.
    residual_norms:
        Per column, the residual 2-norm history (length
        ``n_iters[j] + 1``) — frozen columns stop accumulating.
    reasons:
        Per-column :class:`~repro.solvers.result.TerminationReason`.
    tolerances:
        Per-column absolute residual thresholds actually used.
    """

    x: np.ndarray
    converged: np.ndarray
    n_iters: np.ndarray
    residual_norms: list[np.ndarray]
    reasons: list[TerminationReason]
    tolerances: np.ndarray
    extra: dict = field(default_factory=dict)

    @property
    def batch(self) -> int:
        """Number of right-hand sides ``B``."""
        return int(self.x.shape[1])

    @property
    def block_iters(self) -> int:
        """Wavefront sweeps the block actually performed — the maximum
        per-column iteration count (frozen columns ride along for free)."""
        return int(self.n_iters.max()) if self.n_iters.size else 0

    @property
    def all_converged(self) -> bool:
        return bool(self.converged.all())

    def column(self, j: int) -> SolveResult:
        """Decompose into the per-column :class:`SolveResult`."""
        extra = dict(self.extra) \
            if self.reasons[j] is TerminationReason.GUARD_TRIPPED else {}
        return SolveResult(
            x=self.x[:, j].copy(),
            converged=bool(self.converged[j]),
            n_iters=int(self.n_iters[j]),
            residual_norms=np.asarray(self.residual_norms[j]),
            reason=self.reasons[j],
            tolerance=float(self.tolerances[j]),
            extra=extra,
        )

    def __len__(self) -> int:
        return self.batch

    def __iter__(self) -> Iterator[SolveResult]:
        return (self.column(j) for j in range(self.batch))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BlockSolveResult(batch={self.batch}, "
                f"converged={int(self.converged.sum())}/{self.batch}, "
                f"block_iters={self.block_iters})")


def _col_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-column inner products ``u[:, j] · v[:, j]``.

    A short Python loop over columns keeps each reduction the *same*
    BLAS call the sequential solver makes — on a **contiguous** copy,
    because BLAS picks a different accumulation path for strided views
    and the last-ulp divergence amplifies into off-by-one iteration
    counts near the convergence threshold.  The O(B) loop and copies
    are negligible next to the O(n·B) vector work.
    """
    return np.array([float(np.dot(np.ascontiguousarray(u[:, j]),
                                  np.ascontiguousarray(v[:, j])))
                     for j in range(u.shape[1])])


def _col_norms(u: np.ndarray) -> np.ndarray:
    """Per-column 2-norms (same contiguous kernel as the sequential
    solver; see :func:`_col_dots`)."""
    return np.array([float(np.linalg.norm(np.ascontiguousarray(u[:, j])))
                     for j in range(u.shape[1])])


def pcg_block(a: CSRMatrix, b_block: np.ndarray,
              preconditioner: Preconditioner | None = None, *,
              x0: np.ndarray | None = None,
              criterion: StoppingCriterion | None = None,
              callback: Callable[[int, np.ndarray], None] | None = None,
              slot_hook: SlotHook | None = None,
              keys: Sequence[object] | None = None,
              verify: VerifyConfig | None = None
              ) -> BlockSolveResult:
    """Left-preconditioned CG over an ``(n, B)`` block of right-hand sides.

    Parameters
    ----------
    a:
        SPD system matrix in CSR form, shared by every column.
    b_block:
        Right-hand sides, shape ``(n, B)`` (a 1-D vector is treated as
        ``B = 1``).
    preconditioner:
        Any :class:`~repro.precond.base.Preconditioner`; identity when
        ``None``.  Applied to the whole *active* block at once — one
        wavefront sweep serves every live column.
    x0:
        Initial guesses, shape ``(n, B)`` (zero block when ``None``).
    criterion:
        Stopping rule, evaluated per column against that column's
        ``‖b‖``; the paper default when ``None``.
    callback:
        Invoked as ``callback(k, r_norms)`` after each convergence
        check, where *r_norms* is the ``(B,)`` array of latest residual
        norms (frozen columns keep their final value; under a slot hook
        the array grows as columns are admitted).  May raise
        :class:`repro.errors.AbortSolve` to stop the whole block; still-
        active columns then terminate with ``GUARD_TRIPPED``.
    slot_hook:
        Continuous-batching hook (see :data:`SlotHook`), consulted at
        every iteration boundary.  Admitted columns start at their own
        iteration 0 with a zero initial guess; each column's iteration
        budget (``criterion.max_iters``) is counted from its own
        admission, so the block may run more global sweeps than any
        single column's budget.
    keys:
        Caller handles for the initial columns (defaults to
        ``0..B-1``).  Only meaningful together with *slot_hook*; the
        final per-column keys, admission sweeps and retirement sweeps
        are returned in ``extra["serve"]``.
    verify:
        Silent-corruption detection (see :class:`VerifyConfig`).  A
        detected column freezes with ``CORRUPTED`` at its last provably
        clean state; detection counters and records are returned in
        ``extra["verify"]``.

    Returns
    -------
    BlockSolveResult
        Never raises on non-convergence; decomposes via
        :meth:`BlockSolveResult.column` into per-column results matching
        a sequential :func:`~repro.solvers.cg.pcg` loop.
    """
    n = a.n_rows
    b_block, m, crit, x = _prepare(a, b_block, preconditioner, criterion,
                                   x0, block=True)
    nb = b_block.shape[1]
    if nb == 0 and slot_hook is None:
        # A zero-column block is only meaningful with a slot hook: the
        # hook may admit columns (e.g. checkpoint resumes) at the first
        # boundary — the serving layer's all-retries dispatch.
        raise ShapeError("b_block must have at least one column")
    dtype = x.dtype

    b_norms = _col_norms(b_block)
    thresholds = np.array([crit.threshold(bn) for bn in b_norms])

    # Per-column right-hand sides (admissions append) — the true-
    # residual detector and checkpoint restarts need b per column.
    b_cols: list[np.ndarray] = [
        np.ascontiguousarray(b_block[:, j]).astype(dtype, copy=False)
        for j in range(nb)]
    ver_stats: dict = {"n_abft_checks": 0, "n_residual_checks": 0,
                       "n_replacements": 0, "detections": []}
    abft_s = abft_abs = None
    if verify is not None and verify.abft:
        # Column sums of A straight off the CSR arrays (s = 1ᵀA) — no
        # kernel call, so an operator wrapper that corrupts SpMV
        # outputs cannot poison the checksum reference itself.
        abft_s = np.zeros(n, dtype=np.float64)
        np.add.at(abft_s, a.indices, a.data.astype(np.float64,
                                                   copy=False))
        abft_abs = np.zeros(n, dtype=np.float64)
        np.add.at(abft_abs, a.indices, np.abs(a.data).astype(
            np.float64, copy=False))

    # Per-column terminal state, filled in as columns retire.  Under a
    # slot hook these arrays *grow* as columns are admitted; ``born``
    # and ``died`` hold each column's admission and retirement sweep
    # (global, 1-based; 0 = before the first sweep) for the serving
    # scheduler's modeled-latency accounting.
    reasons: list[TerminationReason] = \
        [TerminationReason.MAX_ITERATIONS] * nb
    conv = np.zeros(nb, dtype=bool)
    iters = np.zeros(nb, dtype=np.int64)
    histories: list[list[float]] = [[] for _ in range(nb)]
    last_norms = np.full(nb, np.nan)
    born = np.zeros(nb, dtype=np.int64)
    died = np.zeros(nb, dtype=np.int64)
    col_keys: list[object] = (list(keys) if keys is not None
                              else list(range(nb)))
    if len(col_keys) != nb:
        raise ShapeError(f"keys must have length {nb}, "
                         f"got {len(col_keys)}")
    key_to_col = {key: j for j, key in enumerate(col_keys)}
    widths: list[int] = []
    extra: dict = {}

    def assemble() -> BlockSolveResult:
        if slot_hook is not None or keys is not None:
            extra["serve"] = {"keys": list(col_keys), "born": born.copy(),
                              "died": died.copy(),
                              "widths": list(widths)}
        if verify is not None:
            extra["verify"] = ver_stats
        res = BlockSolveResult(
            x=x, converged=conv, n_iters=iters,
            residual_norms=[np.asarray(h) for h in histories],
            reasons=reasons, tolerances=thresholds, extra=extra)
        metrics = get_metrics()
        metrics.inc("pcg.batched_solves")
        metrics.inc("pcg.batched_rhs", len(reasons))
        metrics.inc("pcg.batched_sweeps", res.block_iters)
        for j in range(len(reasons)):
            if not conv[j]:
                metrics.inc(f"pcg.batched_terminations.{reasons[j].value}")
        return res

    # r0 = b - A x0 (skip the block SpMV for the common zero guess).
    r = (b_block.astype(dtype, copy=True) if not x.any()
         else b_block - a.matmat(x))
    r0 = _col_norms(r)
    last_norms[:] = r0
    for j in range(nb):
        histories[j].append(float(r0[j]))
    if callback is not None:
        try:
            callback(0, last_norms.copy())
        except AbortSolve as exc:
            extra["abort"] = exc
            for j in range(nb):
                reasons[j] = TerminationReason.GUARD_TRIPPED
            return assemble()

    # idx maps working-set slots to original columns; xa/ra/pa/rz are the
    # compacted per-column iteration state.  ``retire`` scatters a
    # finishing column's iterate back into x and records its outcome.
    idx = np.arange(nb)

    def retire(mask: np.ndarray, xa: np.ndarray, reason: TerminationReason,
               k_done: int, converged: bool = False,
               died_at: int | None = None) -> np.ndarray:
        """Freeze columns where *mask*; returns the keep-mask.

        ``k_done`` is the *global* sweep whose state the column keeps —
        its recorded iteration count is ``k_done - born`` so columns
        admitted mid-block report their own local count.  ``died_at``
        (default ``k_done``) is the global sweep the column last
        occupied a slot in, for the scheduler's width accounting.
        """
        d = k_done if died_at is None else died_at
        for t in np.flatnonzero(mask):
            j = int(idx[t])
            x[:, j] = xa[:, t]
            reasons[j] = reason
            iters[j] = k_done - born[j]
            conv[j] = converged
            died[j] = d
        return ~mask

    def cancel_columns(cancels, k, xa, ra, pa, rz, idx):
        """Freeze the *active* columns named in ``cancels`` at boundary
        ``k`` (before sweep ``k`` runs); unknown or already-retired keys
        are ignored — cancelling a completed column is a no-op."""
        drop = np.zeros(idx.size, dtype=bool)
        for key, reason in cancels:
            j = key_to_col.get(key)
            if j is None:
                continue
            pos = np.flatnonzero(idx == j)
            if pos.size == 0:
                continue
            t = int(pos[0])
            drop[t] = True
            x[:, j] = xa[:, t]
            reasons[j] = reason
            iters[j] = (k - 1) - born[j]
            conv[j] = False
            died[j] = k - 1
        if drop.any():
            keep = ~drop
            xa, ra, pa, rz, idx = (xa[:, keep], ra[:, keep], pa[:, keep],
                                   rz[keep], idx[keep])
        return xa, ra, pa, rz, idx

    def admit_columns(admits, k, xa, ra, pa, rz, idx):
        """Start new columns at boundary ``k`` — the continuous-
        batching join point.  A ``(key, b)`` pair starts at its own
        iteration 0, mirroring the pre-loop setup exactly: residual =
        b, immediate convergence check, preconditioner application,
        breakdown check, first search direction.  A ``(key, b, x0)``
        triple with an ndarray warm start begins iteration 0 from that
        guess (residual ``b − A·x0``).  A ``(key, b, checkpoint)``
        triple resumes the column bitwise from its
        :class:`CheckpointState` — ``born`` shifts back by the
        checkpoint's earned iterations so budgets, counts and history
        lengths span both attempts."""
        nonlocal x, conv, iters, born, died, last_norms, b_norms, thresholds
        cols: list[int] = []
        vecs: list[np.ndarray] = []
        starts: list[np.ndarray | None] = []
        res_cols: list[int] = []
        res_states: list[CheckpointState] = []
        for item in admits:
            key, b_new = item[0], item[1]
            restore = item[2] if len(item) > 2 else None
            b_new = np.asarray(b_new, dtype=dtype)
            if b_new.shape != (n,):
                raise ShapeError(f"admitted b must have shape ({n},), "
                                 f"got {b_new.shape}")
            j = len(reasons)
            reasons.append(TerminationReason.MAX_ITERATIONS)
            col_keys.append(key)
            key_to_col[key] = j
            bn = float(np.linalg.norm(b_new))
            b_norms = np.append(b_norms, bn)
            thresholds = np.append(thresholds, crit.threshold(bn))
            conv = np.append(conv, False)
            iters = np.append(iters, 0)
            b_cols.append(b_new)
            x = np.concatenate([x, np.zeros((n, 1), dtype=dtype)], axis=1)
            if restore is None or isinstance(restore, np.ndarray):
                x0v = None
                r_new, rn0 = b_new, bn
                if restore is not None:
                    x0v = np.asarray(restore, dtype=dtype)
                    if x0v.shape != (n,):
                        raise ShapeError(
                            f"admitted x0 must have shape ({n},), "
                            f"got {x0v.shape}")
                    if not np.isfinite(x0v).all():
                        raise InvalidRequestError(
                            "admitted x0 contains non-finite entries")
                    if x0v.any():
                        r_new = b_new - a.matvec(x0v)
                        rn0 = float(np.linalg.norm(r_new))
                    else:
                        x0v = None
                born = np.append(born, k - 1)
                died = np.append(died, k - 1)
                histories.append([rn0])
                last_norms = np.append(last_norms, rn0)
                if crit.is_met(rn0, bn):
                    if x0v is not None:
                        x[:, j] = x0v
                    reasons[j] = TerminationReason.CONVERGED
                    conv[j] = True
                    continue
                cols.append(j)
                vecs.append(r_new)
                starts.append(x0v)
                continue
            rn0 = float(restore.history[-1])
            born = np.append(born, (k - 1) - restore.iters)
            died = np.append(died, k - 1)
            histories.append([float(v) for v in restore.history])
            last_norms = np.append(last_norms, rn0)
            iters[j] = restore.iters
            if crit.is_met(rn0, bn):
                x[:, j] = np.asarray(restore.x, dtype=dtype)
                reasons[j] = TerminationReason.CONVERGED
                conv[j] = True
                continue
            if restore.rz == 0.0 or not np.isfinite(restore.rz):
                x[:, j] = np.asarray(restore.x, dtype=dtype)
                reasons[j] = TerminationReason.NUMERICAL_BREAKDOWN
                continue
            res_cols.append(j)
            res_states.append(restore)
        if cols:
            rn = np.stack(vecs, axis=1)
            zn = m.apply(rn)
            rzn = _col_dots(rn, zn)
            bad = (rzn == 0.0) | ~np.isfinite(rzn)
            good: list[int] = []
            for t, j in enumerate(cols):
                if bad[t]:
                    reasons[j] = TerminationReason.NUMERICAL_BREAKDOWN
                else:
                    good.append(t)
            if good:
                g = np.asarray(good)
                new_cols = np.asarray(cols, dtype=idx.dtype)[g]
                idx = np.concatenate([idx, new_cols])
                xa = np.concatenate(
                    [xa, np.stack(
                        [starts[t] if starts[t] is not None
                         else np.zeros(n, dtype=dtype) for t in good],
                        axis=1)], axis=1)
                ra = np.concatenate([ra, rn[:, g]], axis=1)
                pa = np.concatenate(
                    [pa, zn[:, g].astype(dtype, copy=True)], axis=1)
                rz = np.concatenate([rz, rzn[g]])
        if res_cols:
            idx = np.concatenate(
                [idx, np.asarray(res_cols, dtype=idx.dtype)])
            xa = np.concatenate(
                [xa] + [np.asarray(s.x, dtype=dtype)[:, None]
                        for s in res_states], axis=1)
            ra = np.concatenate(
                [ra] + [np.asarray(s.r, dtype=dtype)[:, None]
                        for s in res_states], axis=1)
            pa = np.concatenate(
                [pa] + [np.asarray(s.p, dtype=dtype)[:, None]
                        for s in res_states], axis=1)
            rz = np.concatenate(
                [rz, np.asarray([s.rz for s in res_states])])
        return xa, ra, pa, rz, idx

    met0 = np.array([crit.is_met(float(r0[j]), float(b_norms[j]))
                     for j in range(nb)], dtype=bool)
    keep = retire(met0, x, TerminationReason.CONVERGED, 0, converged=True)
    idx = idx[keep]
    if idx.size == 0 and slot_hook is None:
        return assemble()

    if idx.size:
        xa = x[:, idx].copy()
        ra = r[:, idx].copy()
        za = m.apply(ra)
        rz = _col_dots(ra, za)
        bad = (rz == 0.0) | ~np.isfinite(rz)
        keep = retire(bad, xa, TerminationReason.NUMERICAL_BREAKDOWN, 0)
        idx, xa, ra, za, rz = (idx[keep], xa[:, keep], ra[:, keep],
                               za[:, keep], rz[keep])
        pa = za.astype(dtype, copy=True)
    else:
        # Every submitted column converged at iteration 0 but a slot
        # hook may still have work: enter the loop with an empty set.
        xa = np.zeros((n, 0), dtype=dtype)
        ra = np.zeros((n, 0), dtype=dtype)
        pa = np.zeros((n, 0), dtype=dtype)
        rz = np.zeros(0)

    k = 0
    pending_detected: list[dict] = []
    rec = get_recorder()
    metrics = get_metrics()

    def detect(j: int, method: str, sweep: int, err: float,
               tol: float) -> None:
        d = {"key": col_keys[j], "method": method, "sweep": sweep,
             "error": float(err), "tolerance": float(tol)}
        ver_stats["detections"].append(d)
        pending_detected.append(d)
        metrics.inc("chaos.detections")
        metrics.inc(f"chaos.detections.{method}")
        if rec.enabled:
            rec.emit("checksum_fail", key=col_keys[j], method=method,
                     sweep=sweep, error=float(err), tolerance=float(tol))

    while True:
        k += 1
        # ---- iteration boundary k (before sweep k runs) --------------
        # True-residual verification first, so the hook's BoundaryView
        # sees exactly which columns are proven consistent (safe to
        # checkpoint) and which just got caught drifting.
        verified_keys: tuple = ()
        if (verify is not None and verify.residual_check_every
                and idx.size):
            local = (k - 1) - born[idx]
            due = np.flatnonzero(
                (local > 0) & (local % verify.residual_check_every == 0))
            if due.size:
                ver_stats["n_residual_checks"] += int(due.size)
                sub = idx[due]
                bt = np.stack([b_cols[int(j)] for j in sub], axis=1)
                r_true = bt - a.matmat(np.ascontiguousarray(xa[:, due]))
                drift = _col_norms(r_true - ra[:, due])
                tol = verify.residual_rtol * b_norms[sub]
                badv = ~np.isfinite(drift) | (drift > tol)
                ok = due[~badv]
                verified_keys = tuple(col_keys[int(j)] for j in idx[ok])
                if verify.replace and ok.size:
                    # Residual replacement: adopt the true residual and
                    # restart the search direction (van der Vorst).
                    ver_stats["n_replacements"] += int(ok.size)
                    ra[:, ok] = r_true[:, ~badv]
                    zn = m.apply(np.ascontiguousarray(ra[:, ok]))
                    pa[:, ok] = zn.astype(dtype, copy=False)
                    rz[ok] = _col_dots(ra[:, ok], zn)
                if badv.any():
                    for u in np.flatnonzero(badv):
                        detect(int(idx[int(due[u])]), "residual", k,
                               float(drift[u]), float(tol[u]))
                    mask = np.zeros(idx.size, dtype=bool)
                    mask[due[badv]] = True
                    keep = retire(mask, xa, TerminationReason.CORRUPTED,
                                  k - 1, died_at=k - 1)
                    idx, xa, ra, pa, rz = (idx[keep], xa[:, keep],
                                           ra[:, keep], pa[:, keep],
                                           rz[keep])
        if slot_hook is not None:
            active_keys = tuple(col_keys[int(j)] for j in idx)

            def capture(key: object, _k: int = k) -> CheckpointState:
                j = key_to_col.get(key)
                pos = (np.flatnonzero(idx == j)
                       if j is not None else np.empty(0))
                if j is None or pos.size == 0:
                    raise KeyError(
                        f"column {key!r} is not active at this boundary")
                t = int(pos[0])
                return CheckpointState(
                    x=xa[:, t].copy(), r=ra[:, t].copy(),
                    p=pa[:, t].copy(), rz=float(rz[t]),
                    iters=int((_k - 1) - born[j]),
                    history=tuple(histories[j]))

            view = BoundaryView(k, verified_keys, tuple(pending_detected),
                                capture)
            decision = slot_hook(k, active_keys, view)
            if decision is not None:
                if decision.cancel:
                    xa, ra, pa, rz, idx = cancel_columns(
                        decision.cancel, k, xa, ra, pa, rz, idx)
                if decision.admit:
                    xa, ra, pa, rz, idx = admit_columns(
                        decision.admit, k, xa, ra, pa, rz, idx)
        pending_detected = []
        if idx.size == 0:
            break
        # Entering width of sweep k — a column that retires mid-sweep
        # still occupied its slot for the whole sweep, so this is the
        # batch size the scheduler prices the sweep at.
        widths.append(int(idx.size))
        wa = a.matmat(pa)
        if abft_s is not None:
            # ABFT column checksums: 1ᵀ(A·p)_j must match (1ᵀA)·p_j to
            # a rounding-scaled tolerance.  A mismatch (or a non-finite
            # sum — transient kernel garbage) freezes the column at its
            # pre-sweep state, which the checksum just proved clean.
            ver_stats["n_abft_checks"] += 1
            err = np.abs(wa.sum(axis=0) - abft_s @ pa)
            tol = verify.abft_rtol * (abft_abs @ np.abs(pa))
            badc = ~np.isfinite(err) | (err > tol)
            if badc.any():
                for t in np.flatnonzero(badc):
                    detect(int(idx[int(t)]), "abft", k,
                           float(err[t]), float(tol[t]))
                keep = retire(badc, xa, TerminationReason.CORRUPTED,
                              k - 1, died_at=k)
                idx, xa, ra, pa, wa, rz = (
                    idx[keep], xa[:, keep], ra[:, keep], pa[:, keep],
                    wa[:, keep], rz[keep])
                if idx.size == 0:
                    continue
        pw = _col_dots(pa, wa)
        # Curvature checks freeze a column *before* the update (its
        # iterate stays at k-1 completed iterations, no norm appended).
        bad = ~np.isfinite(pw)
        indef = np.isfinite(pw) & (pw <= 0.0)
        if bad.any() or indef.any():
            keep = retire(bad, xa, TerminationReason.NUMERICAL_BREAKDOWN,
                          k - 1, died_at=k)
            keep &= retire(indef, xa, TerminationReason.INDEFINITE, k - 1,
                           died_at=k)
            idx, xa, ra, pa, wa, rz, pw = (
                idx[keep], xa[:, keep], ra[:, keep], pa[:, keep],
                wa[:, keep], rz[keep], pw[keep])
            if idx.size == 0:
                continue
        alpha = rz / pw
        xa += alpha * pa
        ra -= alpha * wa
        rnorm = _col_norms(ra)
        last_norms[idx] = rnorm
        for t, j in enumerate(idx):
            histories[j].append(float(rnorm[t]))
        if callback is not None:
            try:
                callback(k, last_norms.copy())
            except AbortSolve as exc:
                extra["abort"] = exc
                retire(np.ones(idx.size, dtype=bool),
                       xa, TerminationReason.GUARD_TRIPPED, k)
                idx = idx[:0]
                break
        nan = ~np.isfinite(rnorm)
        met = np.array([crit.is_met(float(rnorm[t]),
                                    float(b_norms[idx[t]]))
                        for t in range(idx.size)])
        met &= ~nan
        if nan.any() or met.any():
            keep = retire(nan, xa, TerminationReason.NUMERICAL_BREAKDOWN, k)
            keep &= retire(met, xa, TerminationReason.CONVERGED, k,
                           converged=True)
            idx, xa, ra, pa, rz = (idx[keep], xa[:, keep], ra[:, keep],
                                   pa[:, keep], rz[keep])
            if idx.size == 0:
                continue
        za = m.apply(ra)
        rz_new = _col_dots(ra, za)
        bad = (rz_new == 0.0) | ~np.isfinite(rz_new)
        if bad.any():
            keep = retire(bad, xa, TerminationReason.NUMERICAL_BREAKDOWN, k)
            idx, xa, ra, pa, za, rz, rz_new = (
                idx[keep], xa[:, keep], ra[:, keep], pa[:, keep],
                za[:, keep], rz[keep], rz_new[keep])
            if idx.size == 0:
                continue
        beta = rz_new / rz
        rz = rz_new
        pa = za + beta * pa
        # Per-column budget: a column admitted at sweep s exhausts its
        # own ``max_iters`` at global sweep ``s + max_iters`` — the
        # uniform-born case reproduces the classic loop bound exactly.
        exhausted = (k - born[idx]) >= crit.max_iters
        if exhausted.any():
            keep = retire(exhausted, xa,
                          TerminationReason.MAX_ITERATIONS, k)
            idx, xa, ra, pa, rz = (idx[keep], xa[:, keep], ra[:, keep],
                                   pa[:, keep], rz[keep])

    return assemble()
