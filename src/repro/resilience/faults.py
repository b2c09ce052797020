"""Deterministic fault injection: one plan, two triggers, one proxy.

Sparsification deliberately perturbs the preconditioner, so the failure
modes the paper works around by *dropping configurations* (Section 4) —
zeroed pivots, degraded factors, NaN propagation — must be reproducible
on demand, and so must the device faults the self-healing scheduler
claims to survive.  One :class:`FaultPlan` carries both trigger styles:

* **declared faults** — :class:`FaultSpec` entries, counted and scoped
  to fallback-rung names, for ``spcg(fault_plan=)`` and
  :func:`~repro.resilience.fallback.robust_spcg`.  *Matrix faults*
  (``zero_pivot``, ``flip_diagonal``, ``corrupt_values``) corrupt the
  sparsified matrix before it is factored (:meth:`FaultPlan.
  corrupt_matrix`); *apply faults* (``nan_apply``, ``freeze_apply``,
  ``offset_apply``) perturb ``z = M⁻¹ r`` from a chosen application
  count on.
* **boundary faults** — the seeded draw the serving scheduler makes at
  every iteration boundary (:meth:`FaultPlan.poll`): with probability
  ``rate`` one fault fires, its kind drawn by ``weights``:

  ``transient``
      One NaN entry in the next SpMV output.  Loud — the ABFT checksum
      or the curvature check catches it the same sweep.
  ``stall``
      The device stalls :data:`STALL_SECONDS` modeled seconds.
  ``crash``
      Every resident column dies with ``DEVICE_CRASH``; the device
      serves again after :data:`CRASH_RESTART_SECONDS`.
  ``sdc_spmv`` / ``sdc_trisolve``
      Silent data corruption: one bit (in :data:`FLIP_BITS`) of one
      entry of the next SpMV / preconditioner-apply output flips.  SpMV
      corruption breaks ``r = b − Ax``, which the ABFT checksum and the
      true-residual check exist for; trisolve corruption only perturbs
      the search direction, degrading convergence, not the answer.

Every kernel-output fault of either style lands through the one
operator proxy :meth:`FaultPlan.wrap` returns, whose docstring states
where.  Stalls and crashes are returned from :meth:`~FaultPlan.poll`
for the scheduler to apply to its clock and working set.  Triggers are
counted, corruption and the draw are seeded, and exhausted faults stay
exhausted across retries (which is what lets the fallback ladder
demonstrate recovery from *transient* faults); :meth:`FaultPlan.reset`
rewinds all of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sparse.csr import CSRMatrix

__all__ = ["FaultSpec", "FaultEvent", "FaultPlan", "MATRIX_FAULTS",
           "APPLY_FAULTS", "BOUNDARY_FAULTS", "DEFAULT_WEIGHTS",
           "STALL_SECONDS", "CRASH_RESTART_SECONDS", "FLIP_BITS"]

#: Fault kinds that corrupt the matrix handed to the factorization.
MATRIX_FAULTS = ("zero_pivot", "flip_diagonal", "corrupt_values")
#: Fault kinds that perturb preconditioner applications.
APPLY_FAULTS = ("nan_apply", "freeze_apply", "offset_apply")
#: Fault kinds of the seeded per-boundary draw, in draw order.
BOUNDARY_FAULTS = ("transient", "stall", "crash", "sdc_spmv",
                   "sdc_trisolve")

#: Default draw weights of the boundary kinds (normalized at draw time).
DEFAULT_WEIGHTS = {"transient": 0.1, "stall": 0.2, "crash": 0.1,
                   "sdc_spmv": 0.4, "sdc_trisolve": 0.2}
#: Modeled seconds a ``stall`` costs the device.
STALL_SECONDS = 5e-3
#: Modeled seconds a ``crash`` keeps the device down.
CRASH_RESTART_SECONDS = 2e-2
#: Half-open range of the flipped bit of an SDC event: the top mantissa
#: and low exponent bits of the float64 layout — relative perturbations
#: between ~2⁻⁸ and 2×, always finite, always far above the ABFT
#: tolerance.
FLIP_BITS = (44, 53)

_DECLARED = MATRIX_FAULTS + APPLY_FAULTS
#: Output channel each kernel-output boundary fault lands on.
_CHANNEL = {"transient": "spmv", "sdc_spmv": "spmv",
            "sdc_trisolve": "apply"}


@dataclass(frozen=True)
class FaultSpec:
    """One declared fault.

    Attributes
    ----------
    kind:
        One of :data:`MATRIX_FAULTS` or :data:`APPLY_FAULTS`.
    rungs:
        Fallback-ladder rung names (see
        :mod:`~repro.resilience.fallback`) the fault is scoped to;
        ``None`` applies everywhere.  Scoping a fault to ``("spcg",)``
        models a failure specific to the sparsified configuration, which
        the ladder escapes by falling back.
    rows:
        Target rows for ``zero_pivot`` / ``flip_diagonal``.
    at_apply:
        First preconditioner application (0-based count) an apply fault
        fires at.
    max_triggers:
        Fire at most this many times across the whole plan lifetime
        (``None`` = unlimited).  A finite count models *transient*
        faults that a retry survives.
    fraction, scale:
        For ``corrupt_values``: fraction of stored entries perturbed and
        the multiplicative factor applied; ``scale`` is also the additive
        magnitude of ``offset_apply`` (a stuck-at-value output fault —
        large offsets destroy the CG recurrence through catastrophic
        cancellation and produce genuine residual divergence, which a
        scaling or sign flip of ``z`` cannot: PCG's α and β ratios cancel
        those out).
    seed:
        RNG seed for ``corrupt_values``.
    """

    kind: str
    rungs: tuple[str, ...] | None = None
    rows: tuple[int, ...] = ()
    at_apply: int = 0
    max_triggers: int | None = None
    fraction: float = 0.05
    scale: float = 1e6
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _DECLARED:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"choose from {_DECLARED}")


@dataclass
class FaultEvent:
    """One fired boundary fault: its kind (a :data:`BOUNDARY_FAULTS`
    entry), the boundary it fired at, and the landing detail (row,
    column, bit, value before and after) once applied."""

    kind: str
    sweep: int
    detail: dict = field(default_factory=dict)


def _flip_bit(value: float, bit: int) -> float:
    """Flip one bit of a float64 — the literal SDC model."""
    iv = np.float64(value).view(np.int64)
    return float(np.int64(iv ^ (np.int64(1) << np.int64(bit)))
                 .view(np.float64))


class FaultPlan:
    """Declared faults plus a seeded boundary-fault draw, and the
    trigger bookkeeping of both.

    The plan is the single mutable object threaded through a solve, a
    whole fallback ladder or a serving run: each spec's trigger count
    lives here, so a fault with ``max_triggers=1`` that fired during
    attempt 1 stays exhausted during attempt 2, and one seeded stream
    spans every block of a run.  ``events`` records every boundary
    fault fired; ``injected`` the ones that landed on a kernel output
    (an armed fault whose block ends first lands in the next block of
    the same plan).

    Parameters
    ----------
    specs:
        Declared faults (:class:`FaultSpec`, one or a sequence).
    rate:
        Per-boundary probability that one boundary fault fires.
    seed:
        Seed of the boundary draw.
    weights:
        Draw weight per :data:`BOUNDARY_FAULTS` kind (missing kinds
        weigh 0); :data:`DEFAULT_WEIGHTS` when ``None``.
    """

    def __init__(self, specs: FaultSpec | list[FaultSpec]
                 | tuple[FaultSpec, ...] = (), *, rate: float = 0.0,
                 seed: int = 0, weights: dict | None = None):
        if isinstance(specs, FaultSpec):
            specs = (specs,)
        self.specs: tuple[FaultSpec, ...] = tuple(specs)
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must lie in [0, 1]")
        weights = DEFAULT_WEIGHTS if weights is None else weights
        unknown = set(weights) - set(BOUNDARY_FAULTS)
        if unknown:
            raise ValueError(f"unknown boundary fault kinds {sorted(unknown)}"
                             f"; choose from {BOUNDARY_FAULTS}")
        w = np.array([weights.get(k, 0.0) for k in BOUNDARY_FAULTS])
        if (w < 0).any() or w.sum() <= 0:
            raise ValueError("fault-kind weights must be non-negative "
                             "with a positive sum")
        self.rate = rate
        self.seed = seed
        self._cum = np.cumsum(w / w.sum())
        self.reset()

    # -- bookkeeping ------------------------------------------------------
    def reset(self) -> None:
        """Rearm every declared fault and rewind the boundary draw to its
        seed (a fresh, identical schedule)."""
        self._fired = {i: 0 for i in range(len(self.specs))}
        self._frozen: dict[int, np.ndarray] = {}
        self._rng = np.random.default_rng(self.seed)
        self.events: list[FaultEvent] = []
        self.injected: list[FaultEvent] = []
        self._armed: dict[str, FaultEvent] = {}

    def fired(self, spec: FaultSpec) -> int:
        """How many times *spec* has triggered so far."""
        return self._fired[self.specs.index(spec)]

    def total_fired(self) -> int:
        """Total triggers across all specs (diagnostics)."""
        return sum(self._fired.values())

    def n_events(self, kind: str | None = None) -> int:
        """Boundary faults fired so far (of *kind* only, when given)."""
        return sum(1 for e in self.events if kind is None or e.kind == kind)

    def _live(self, idx: int) -> bool:
        spec = self.specs[idx]
        return (spec.max_triggers is None
                or self._fired[idx] < spec.max_triggers)

    def _scoped(self, kinds: tuple[str, ...], rung: str | None
                ) -> list[int]:
        return [i for i, s in enumerate(self.specs) if s.kind in kinds
                and (s.rungs is None or rung is None or rung in s.rungs)]

    # -- matrix faults ----------------------------------------------------
    def corrupt_matrix(self, a: CSRMatrix, rung: str | None = None
                       ) -> CSRMatrix:
        """Apply every armed matrix fault in scope to a copy of *a*.

        Returns *a* itself when no fault fires (the common path stays
        allocation-free).
        """
        idxs = [i for i in self._scoped(MATRIX_FAULTS, rung)
                if self._live(i)]
        if not idxs:
            return a
        data = a.data.copy()
        for i in idxs:
            spec = self.specs[i]
            if spec.kind == "zero_pivot":
                pos = _diag_positions(a, spec.rows)
                data[pos] = 0.0
            elif spec.kind == "flip_diagonal":
                pos = _diag_positions(a, spec.rows)
                data[pos] = -np.abs(data[pos])
            else:  # corrupt_values
                rng = np.random.default_rng(spec.seed)
                k = max(1, int(spec.fraction * a.nnz))
                pos = rng.choice(a.nnz, size=min(k, a.nnz), replace=False)
                data[pos] *= spec.scale
            self._fired[i] += 1
        return CSRMatrix(a.indptr, a.indices, data, a.shape, check=False)

    # -- boundary faults --------------------------------------------------
    def poll(self, sweep: int) -> FaultEvent | None:
        """Advance the boundary draw one iteration boundary.

        Returns the fault that fires at this boundary (``None`` for a
        healthy sweep).  Kernel-output faults are *armed* here and land
        through :meth:`wrap`'s proxy; stalls and crashes are the
        caller's to apply (clock penalty, working-set wipe).  Each fire
        consumes a fixed number of draws, so the stream stays aligned
        across fault kinds.
        """
        if self._rng.random() >= self.rate:
            return None
        u_kind, u_row, u_col, u_bit = self._rng.random(4)
        kind = BOUNDARY_FAULTS[int(np.searchsorted(self._cum, u_kind,
                                                   side="right"))]
        event = FaultEvent(kind, sweep)
        self.events.append(event)
        channel = _CHANNEL.get(kind)
        if channel is not None:
            self._armed[channel] = event
            event.detail.update(u_row=u_row, u_col=u_col)
            if kind != "transient":
                lo, hi = FLIP_BITS
                event.detail["bit"] = lo + int(u_bit * (hi - lo))
        return event

    # -- kernel-output faults ---------------------------------------------
    def wrap(self, op, rung: str | None = None):
        """*op* behind the plan's operator proxy, or *op* itself when no
        fault can land on it.

        A :class:`~repro.sparse.csr.CSRMatrix` is wrapped on its SpMV
        channel (``matmat``), anything else as a preconditioner on its
        apply channel (``apply``), where the declared apply faults in
        scope of *rung* also land.
        """
        spmv = isinstance(op, CSRMatrix)
        specs = () if spmv else tuple(self._scoped(APPLY_FAULTS, rung))
        if not specs and self.rate == 0.0:
            return op
        return _FaultyOperator(op, self, "spmv" if spmv else "apply",
                               specs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = ", ".join(s.kind for s in self.specs)
        return (f"FaultPlan([{kinds}], rate={self.rate}, "
                f"fired={self.total_fired()}, events={len(self.events)})")


def _diag_positions(a: CSRMatrix, rows: tuple[int, ...]) -> np.ndarray:
    """Flat data positions of the diagonal entries of *rows* (skipping
    rows without a stored diagonal)."""
    out = []
    for r in rows:
        if not 0 <= r < a.n_rows:
            raise IndexError(f"fault row {r} out of range for n={a.n_rows}")
        lo, hi = int(a.indptr[r]), int(a.indptr[r + 1])
        k = lo + int(np.searchsorted(a.indices[lo:hi], r))
        if k < hi and a.indices[k] == r:
            out.append(k)
    return np.asarray(out, dtype=np.int64)


class _FaultyOperator:
    """Proxy landing a :class:`FaultPlan`'s faults on one operator's
    kernel outputs: ``matmat`` of a matrix, ``apply`` of a
    preconditioner (``matvec`` is no channel).  Every other attribute
    is delegated, so pricing, fingerprints and the ABFT checksum (built
    from ``indices``/``data``) see the true operator.

    Where a fault lands: an armed boundary fault changes exactly one
    entry of the *next* output of its channel — of any width, from any
    caller.  The scheduler arms faults in its slot hook, after the
    boundary's detectors ran, so that is usually the next sweep's
    kernel; but an admission at the same boundary comes first (one
    batched apply for new columns, ``b − A·x0`` for warm starts), and
    ``pcg_block``'s periodic true-residual check runs through the
    wrapped matrix as well.  A declared apply fault lands on every
    apply from its ``at_apply`` count on while its trigger budget
    lasts.  Unarmed, the proxy returns the inner operator's output
    itself — the ``out=`` buffer when one was given.
    """

    def __init__(self, inner, plan: FaultPlan, channel: str,
                 specs: tuple[int, ...]):
        self._inner = inner
        self._plan = plan
        self._channel = channel
        self._specs = specs
        self._calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def matmat(self, x: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
        return self._land(self._inner.matmat(x, out=out))

    def apply(self, r: np.ndarray, out: np.ndarray | None = None
              ) -> np.ndarray:
        return self._land(self._inner.apply(r, out=out))

    def _land(self, y: np.ndarray) -> np.ndarray:
        plan = self._plan
        count = self._calls
        self._calls += 1
        for i in self._specs:
            spec = plan.specs[i]
            if count < spec.at_apply or not plan._live(i):
                continue
            plan._fired[i] += 1
            if spec.kind == "nan_apply":
                y = y.copy()
                y[0] = np.nan
            elif spec.kind == "offset_apply":
                y = y + spec.scale
            else:  # freeze_apply: replay the first perturbed-era output
                frozen = plan._frozen.get(i)
                if frozen is None:
                    plan._frozen[i] = y.copy()
                else:
                    y = frozen.copy()
        event = plan._armed.pop(self._channel, None)
        if event is not None:
            block = y if y.ndim == 2 else y[:, None]
            d = event.detail
            row = int(d["u_row"] * block.shape[0]) % block.shape[0]
            col = int(d["u_col"] * block.shape[1]) % block.shape[1]
            before = float(block[row, col])
            block[row, col] = (np.nan if event.kind == "transient"
                               else _flip_bit(before, d["bit"]))
            d.update(row=row, col=col, before=before,
                     after=float(block[row, col]))
            plan.injected.append(event)
        return y
