"""SPD-preserving matrix drift for stream workloads.

Time-stepping and Newton streams re-solve with a matrix whose *values*
move while its *structure* stays fixed — exactly the regime the
session's staleness detector arbitrates.  :func:`perturb_spd` produces
such drift reproducibly: it perturbs a seeded subset of symmetric
off-diagonal pairs and compensates both touched diagonals by the
perturbation magnitude, so the additive term is a sum of PSD blocks

.. code-block:: text

    delta·(e_i e_jᵀ + e_j e_iᵀ) + |delta|·(e_i e_iᵀ + e_j e_jᵀ)  ⪰ 0

(Gershgorin: each 2×2 block has eigenvalues 0 and 2|delta|), keeping
the drifted matrix SPD with the **same sparsity pattern** — the
structure fingerprint is invariant, the value fingerprint is not.

:class:`DriftSchedule` turns that into a per-step plan: steady small
drift with optional periodic *shocks* (a refactor-scale jump every
``shock_every`` drifted steps), seeded so loadgen tenants and studies
replay identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..sparse.csr import CSRMatrix

__all__ = ["perturb_spd", "DriftSchedule"]


def perturb_spd(a: CSRMatrix, magnitude: float, seed: int, *,
                fraction: float = 0.25) -> CSRMatrix:
    """Return a drifted copy of SPD *a* with identical structure.

    A seeded ``fraction`` of the strictly-lower off-diagonal entries
    receive a relative perturbation ``delta ~ magnitude·|a_ij|·U(-1,1)``
    mirrored to the transposed position; both touched diagonals grow by
    ``|delta|`` (diagonal-compensation, PSD by the 2×2-block Gershgorin
    argument above).  ``magnitude = 0`` returns an identical-valued
    copy.  Raises :class:`~repro.errors.ShapeError` for a non-square
    matrix.
    """
    if a.shape[0] != a.shape[1]:
        raise ShapeError("perturb_spd requires a square matrix")
    if magnitude < 0:
        raise ValueError("magnitude must be non-negative")
    data = a.data.astype(np.float64, copy=True)
    if magnitude != 0.0:
        _add_drift(a, data, magnitude, seed, fraction)
    # Built once the values are final: a matrix is read-only, so the
    # drifted one shares a's pattern arrays.
    return CSRMatrix(a.indptr, a.indices, data, a.shape)


def _add_drift(a: CSRMatrix, data: np.ndarray, magnitude: float, seed: int,
               fraction: float) -> None:
    """Add :func:`perturb_spd`'s seeded drift to *data*, a copy of
    ``a.data``, in place."""
    n = a.n_rows
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    cols = a.indices
    # Position of every (row, col) entry in the shared data layout;
    # the pattern is assumed structurally symmetric (the SPD setting).
    pos = {(int(i), int(j)): p
           for p, (i, j) in enumerate(zip(rows, cols))}
    lower = np.flatnonzero(rows > cols)
    if lower.size == 0:
        return
    rng = np.random.default_rng(seed)
    k = max(1, int(round(fraction * lower.size)))
    chosen = rng.choice(lower, size=min(k, lower.size), replace=False)
    deltas = magnitude * data[chosen] * rng.uniform(-1.0, 1.0,
                                                    size=chosen.size)
    for p, delta in zip(chosen, deltas):
        i, j = int(rows[p]), int(cols[p])
        q = pos.get((j, i))
        di, dj = pos.get((i, i)), pos.get((j, j))
        if q is None or di is None or dj is None:
            continue  # structurally unsymmetric or missing diagonal
        data[p] += delta
        data[q] += delta
        data[di] += abs(delta)
        data[dj] += abs(delta)


@dataclass(frozen=True)
class DriftSchedule:
    """Seeded per-step drift plan for one stream.

    Step ``s`` (1-based; step 0 is the pristine matrix) drifts the
    previous step's matrix by :meth:`magnitude_at`: the steady
    ``magnitude`` normally, ``shock_magnitude`` on every
    ``shock_every``-th step (``None`` disables shocks), and nothing at
    all when ``period > 1`` and ``s`` is off-period.  Identical seeds
    replay identical streams — the property the loadgen tenants and
    the macro-benchmark's cold/warm comparison both rely on.
    """

    seed: int = 0
    magnitude: float = 1e-4
    period: int = 1
    shock_every: int | None = None
    shock_magnitude: float = 0.5
    fraction: float = 0.25

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be at least 1")
        if self.shock_every is not None and self.shock_every < 1:
            raise ValueError("shock_every must be positive or None")

    def magnitude_at(self, step: int) -> float:
        """Drift magnitude applied going *into* step ``step`` (1-based)."""
        if step < 1 or step % self.period != 0:
            return 0.0
        if self.shock_every is not None and \
                (step // self.period) % self.shock_every == 0:
            return self.shock_magnitude
        return self.magnitude

    def evolve(self, a: CSRMatrix, step: int) -> CSRMatrix:
        """The matrix for step ``step`` given step ``step − 1``'s *a*."""
        mag = self.magnitude_at(step)
        if mag == 0.0:
            return a
        return perturb_spd(a, mag, self.seed + 7919 * step,
                           fraction=self.fraction)
