"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch the whole family with a single ``except`` clause while still letting
programming errors (``TypeError`` from bad call signatures, etc.) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ShapeError",
    "SparseFormatError",
    "NotTriangularError",
    "ScheduleError",
    "SingularFactorError",
    "NotSymmetricError",
    "NotPositiveDefiniteError",
    "MatrixMarketError",
    "DatasetError",
    "DeviceModelError",
    "FillLimitExceeded",
    "InvalidCriterionError",
    "InvalidRequestError",
    "QueueFullError",
    "AbortSolve",
    "SuiteWorkerError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ShapeError(ReproError, ValueError):
    """An array or matrix has an incompatible or invalid shape."""


class SparseFormatError(ReproError, ValueError):
    """A sparse container's internal arrays violate the format invariants.

    Raised by the ``check_format`` validators when e.g. ``indptr`` is not
    monotone, column indices are out of range, or duplicate entries exist
    where a canonical format is required.
    """


class NotTriangularError(ReproError, ValueError):
    """A matrix expected to be (lower/upper) triangular is not."""


class ScheduleError(ReproError, ValueError):
    """A wavefront schedule does not fit the triangular matrix it was
    given for: a row is missing or repeated, or an entry depends on a
    row that is not in a strictly earlier wavefront."""

    def __init__(self, row: int, message: str):
        self.row = int(row)
        super().__init__(message)


class SingularFactorError(ReproError, ArithmeticError):
    """A zero (or numerically negligible) pivot was met during factorization
    or triangular solution."""

    def __init__(self, row: int, pivot: float, message: str | None = None):
        self.row = int(row)
        self.pivot = float(pivot)
        super().__init__(
            message
            or f"zero or negligible pivot {self.pivot!r} encountered at "
               f"row {row}"
        )


class NotSymmetricError(ReproError, ValueError):
    """A matrix required to be symmetric is structurally or numerically not."""


class NotPositiveDefiniteError(ReproError, ArithmeticError):
    """An SPD-only routine detected an indefinite matrix (e.g. CG met
    a non-positive curvature direction)."""


class MatrixMarketError(ReproError, ValueError):
    """Malformed Matrix Market file content."""


class DatasetError(ReproError, KeyError):
    """Unknown dataset name or invalid generator parameters."""


class DeviceModelError(ReproError, ValueError):
    """Invalid device-model parameters (non-positive bandwidth, etc.)."""


class InvalidCriterionError(ReproError, ValueError):
    """A stopping criterion was constructed with invalid parameters
    (non-positive iteration cap, negative or non-finite tolerances)."""


class InvalidRequestError(ReproError, ValueError):
    """A solve request carries an unusable right-hand side.

    Raised at *submission* time (``SolverService.submit`` /
    ``ServeScheduler.submit``) when ``b`` has a non-numeric dtype or
    contains NaN/Inf entries, so a malformed request fails at the call
    site that produced it — naming the offending ``tag`` — instead of
    surfacing mid-flush deep inside a batched block solve.
    """


class QueueFullError(ReproError, RuntimeError):
    """The serving queue rejected a request (backpressure).

    Raised by :meth:`repro.serve.RequestQueue.push` when the queue's
    admission policy would shed the request — depth at ``max_depth`` or
    modeled backlog past ``max_backlog_s``.  ``reason`` carries the
    admission predicate that failed (``"queue_depth"`` /
    ``"backlog_seconds"``) so callers can distinguish the two forms of
    overload.
    """

    def __init__(self, reason: str, message: str | None = None):
        self.reason = str(reason)
        super().__init__(message
                         or f"request rejected by admission control "
                            f"({reason})")


class AbortSolve(ReproError, RuntimeError):
    """Raised *by a solver callback* to abort the iteration early.

    :func:`repro.solvers.pcg` catches this family around its callback
    invocations and turns it into a best-effort
    :class:`~repro.solvers.result.SolveResult` with reason
    ``GUARD_TRIPPED`` instead of propagating — the mechanism the
    :mod:`repro.resilience` health guards use to stop a diverging or
    stagnating solve without losing the iterate computed so far.
    """


class SuiteWorkerError(ReproError, RuntimeError):
    """A suite experiment failed; names the matrix that caused it.

    Raised by :func:`repro.harness.suite.run_suite` so a sweep failure
    identifies *which* matrix broke; the experiment's own exception is
    chained as ``__cause__``.
    """

    def __init__(self, matrix: str):
        self.matrix = str(matrix)
        super().__init__(f"suite experiment failed on matrix {matrix!r}")


class FillLimitExceeded(ReproError, RuntimeError):
    """Symbolic ILU(K) fill grew past the caller-imposed cap.

    Raised by :func:`repro.precond.iluk.iluk_symbolic` when ``nnz_cap`` is
    set; lets K-selection sweeps abandon a fill-explosive candidate early
    instead of paying the full symbolic cost.
    """
