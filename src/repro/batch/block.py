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
The iteration is the one :func:`repro.solvers.cg.pcg` runs — the
shared kernel of :mod:`repro.solvers.cg` at width ``B`` — and this
module adds only the serving hooks around it.  Every column evolves
with its *own* alpha/beta (scalars per column, not a block Krylov
method), its own convergence check against the stopping criterion, and
its own breakdown classification.  A column that terminates —
converged, indefinite curvature, numerical breakdown — is **frozen**:
it leaves the working set and is never recomputed.  No column's
arithmetic depends on another's, so the result decomposes into
per-column :class:`~repro.solvers.result.SolveResult` records that are
bitwise the sequential ``pcg`` solves of each column.

Continuous batching
-------------------
A *slot hook* (:data:`SlotHook`) turns the static block into a rolling
one: at every iteration boundary the hook may **admit** new right-hand
sides into slots freed by retired columns and **cancel** running
columns (deadline expiry, caller cancellation).  An admitted column
starts its own iteration 0 at that boundary — zero initial guess (or a
caller-supplied warm start), its own residual history, its own stopping
threshold — through the same admission code as the initial columns, so
its trajectory is the one a fresh sequential solve would take; resident
columns are never recomputed or perturbed (their per-column scalars and
reductions do not see the newcomer).  :mod:`repro.serve` builds its
online scheduler on this hook.

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
  boundary.

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

from ..errors import InvalidRequestError, ShapeError
from ..obs.metrics import get_metrics
from ..obs.trace import get_recorder
from ..precond.base import Preconditioner
from ..solvers.cg import _BlockCG, _norms, _prepare
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

    Every batched SpMV is verified against the column-sum checksum
    vector ``s = 1ᵀA`` (``1ᵀ(A·p)_j`` vs ``s·p_j`` per column).

    Attributes
    ----------
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
    """

    abft_rtol: float = 1e-8
    residual_check_every: int | None = None
    residual_rtol: float = 1e-6

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
    width:
        Entering width of the sweep that just ran (sweep ``sweep - 1``;
        0 at the first boundary): a column that retired during it still
        occupied its slot for the whole sweep, so this is the batch size
        the sweep is priced at.
    """

    __slots__ = ("sweep", "verified", "detected", "width", "_capture")

    def __init__(self, sweep: int, verified: tuple, detected: tuple,
                 capture: Callable[[object], CheckpointState],
                 width: int = 0):
        self.sweep = sweep
        self.verified = verified
        self.detected = detected
        self.width = width
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
        :meth:`BlockSolveResult.column` into per-column results equal
        to a sequential :func:`~repro.solvers.cg.pcg` solve of each
        column.
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
    col_keys: list[object] = (list(keys) if keys is not None
                              else list(range(nb)))
    if len(col_keys) != nb:
        raise ShapeError(f"keys must have length {nb}, "
                         f"got {len(col_keys)}")
    dtype = x.dtype
    kern = _BlockCG(a, m, crit, dtype)
    key_to_col = {key: j for j, key in enumerate(col_keys)}
    # Per-column right-hand sides — the true-residual detector needs them.
    b_cols = [np.ascontiguousarray(b_block[:, j]).astype(dtype, copy=False)
              for j in range(nb)]
    ver_stats: dict = {"n_abft_checks": 0, "n_residual_checks": 0,
                       "detections": []}
    pending: list[dict] = []
    rec = get_recorder()
    metrics = get_metrics()

    def detect(t: int, method: str, k: int, err: float, tol: float):
        """Record a corruption caught in slot *t* at boundary/sweep *k*."""
        key = col_keys[kern.idx[t]]
        d = {"key": key, "method": method, "sweep": k,
             "error": float(err), "tolerance": float(tol)}
        ver_stats["detections"].append(d)
        pending.append(d)
        metrics.inc("chaos.detections")
        metrics.inc(f"chaos.detections.{method}")
        if rec.enabled:
            rec.emit("checksum_fail", key=key, method=method, sweep=k,
                     error=float(err), tolerance=float(tol))

    def slot_of(key: object) -> int | None:
        j = key_to_col.get(key)
        return kern.idx.index(j) if j in kern.idx else None

    def capture(key: object, k: int) -> CheckpointState:
        t = slot_of(key)
        if t is None:
            raise KeyError(f"column {key!r} is not active at this boundary")
        j = kern.idx[t]
        return CheckpointState(
            x=kern.x[:, t].copy(), r=kern.r[:, t].copy(),
            p=kern.p[:, t].copy(), rz=kern.rz[t],
            iters=(k - 1) - kern.born[j], history=tuple(kern.histories[j]))

    def admit(k: int, items) -> None:
        """The continuous-batching join point: ``(key, b)`` starts from
        a zero guess, ``(key, b, x0)`` with an ndarray from that warm
        start, ``(key, b, checkpoint)`` resumes the captured column."""
        entries = []
        for item in items:
            key, b_new = item[0], np.asarray(item[1], dtype=dtype)
            start = item[2] if len(item) > 2 else None
            if b_new.shape != (n,):
                raise ShapeError(f"admitted b must have shape ({n},), "
                                 f"got {b_new.shape}")
            if isinstance(start, np.ndarray):
                start = np.asarray(start, dtype=dtype)
                if start.shape != (n,):
                    raise ShapeError(f"admitted x0 must have shape ({n},), "
                                     f"got {start.shape}")
                if not np.isfinite(start).all():
                    raise InvalidRequestError(
                        "admitted x0 contains non-finite entries")
            key_to_col[key] = len(col_keys)
            col_keys.append(key)
            b_cols.append(b_new)
            entries.append((b_new, start))
        kern.admit(k, entries)

    def boundary(k: int) -> None:
        # True-residual verification first, so the hook's BoundaryView
        # sees exactly which columns are proven consistent (safe to
        # checkpoint) and which just got caught drifting.
        verified: tuple = ()
        every = verify.residual_check_every if verify is not None else None
        due = [t for t, j in enumerate(kern.idx)
               if every and k - 1 > kern.born[j]
               and (k - 1 - kern.born[j]) % every == 0]
        if due:
            ver_stats["n_residual_checks"] += len(due)
            sub = [kern.idx[t] for t in due]
            r_true = (np.stack([b_cols[j] for j in sub], axis=1)
                      - a.matmat(kern.x[:, due]))
            drift = _norms(r_true - kern.r[:, due])
            tol = [verify.residual_rtol * kern.b_norms[j] for j in sub]
            ok = [drift[u] <= tol[u] for u in range(len(due))]
            verified = tuple(col_keys[j] for j, good in zip(sub, ok) if good)
            bad = [u for u in range(len(due)) if not ok[u]]
            for u in bad:
                detect(due[u], "residual", k, drift[u], tol[u])
            if bad:
                kern.retire([(due[u], TerminationReason.CORRUPTED)
                             for u in bad], k - 1)
        if slot_hook is not None:
            view = BoundaryView(k, verified, tuple(pending),
                                lambda key: capture(key, k),
                                kern.widths[-1] if kern.widths else 0)
            decision = slot_hook(k, tuple(col_keys[j] for j in kern.idx),
                                 view)
            if decision is not None and decision.cancel:
                # Freeze the named *active* columns at this boundary;
                # unknown or already-retired keys are ignored.
                hits = [(slot_of(key), reason)
                        for key, reason in decision.cancel]
                hits = [(t, reason) for t, reason in hits if t is not None]
                if hits:
                    kern.retire(hits, k - 1)
            if decision is not None and decision.admit:
                admit(k, decision.admit)
        pending.clear()

    checksum = None
    if verify is not None:
        # Column sums of A straight off the CSR arrays (s = 1ᵀA) — no
        # kernel call, so an operator wrapper that corrupts SpMV
        # outputs cannot poison the checksum reference itself.
        abft_s = np.zeros(n, dtype=np.float64)
        np.add.at(abft_s, a.indices, a.data.astype(np.float64, copy=False))
        abft_abs = np.zeros(n, dtype=np.float64)
        np.add.at(abft_abs, a.indices,
                  np.abs(a.data).astype(np.float64, copy=False))

        def checksum(k: int) -> None:
            # ABFT column checksums: 1ᵀ(A·p)_j must match (1ᵀA)·p_j to a
            # rounding-scaled tolerance.  A mismatch (or a non-finite
            # sum — transient kernel garbage) freezes the column at its
            # pre-sweep state, which the checksum just proved clean.
            ver_stats["n_abft_checks"] += 1
            err = np.abs(kern.w.sum(axis=0) - abft_s @ kern.p)
            tol = verify.abft_rtol * (abft_abs @ np.abs(kern.p))
            bad = np.flatnonzero(~np.isfinite(err) | (err > tol)).tolist()
            for t in bad:
                detect(t, "abft", k, err[t], tol[t])
            if bad:
                kern.retire([(t, TerminationReason.CORRUPTED) for t in bad],
                            k - 1, k)

    # The initial columns join through the kernel's own admission, at
    # the first boundary, before the hook's first decision.
    kern.admit(1, [(b_block[:, j], x[:, j]) for j in range(nb)], callback)
    if kern.abort is None:
        resid_checks = verify is not None and verify.residual_check_every
        kern.run(callback, boundary if slot_hook is not None
                 or resid_checks else None, checksum)

    extra: dict = {}
    if kern.abort is not None:
        extra["abort"] = kern.abort
    if slot_hook is not None or keys is not None:
        extra["serve"] = {"keys": col_keys,
                          "born": np.array(kern.born, dtype=np.int64),
                          "died": np.array(kern.died, dtype=np.int64),
                          "widths": kern.widths}
    if verify is not None:
        extra["verify"] = ver_stats
    reasons = kern.reasons
    res = BlockSolveResult(
        x=np.stack(kern.xs, axis=1) if kern.xs else x,
        converged=np.array([r is TerminationReason.CONVERGED
                            for r in reasons], dtype=bool),
        n_iters=np.array(kern.iters, dtype=np.int64),
        residual_norms=[np.asarray(h) for h in kern.histories],
        reasons=reasons, tolerances=np.array(kern.thresholds, dtype=float),
        extra=extra)
    metrics.inc("pcg.batched_solves")
    metrics.inc("pcg.batched_rhs", len(reasons))
    metrics.inc("pcg.batched_sweeps", res.block_iters)
    for r in reasons:
        if r is not TerminationReason.CONVERGED:
            metrics.inc(f"pcg.batched_terminations.{r.value}")
    return res
