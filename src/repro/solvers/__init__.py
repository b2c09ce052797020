"""Iterative solvers: conjugate gradient and left-preconditioned CG.

:func:`pcg` is a faithful implementation of Algorithm 1 of the paper;
:func:`cg` is the unpreconditioned special case.  Results are returned as
:class:`SolveResult` records carrying the full residual history, the
termination reason, and per-iteration kernel counts for the machine model.
"""

from .result import SolveResult, TerminationReason
from .stopping import StoppingCriterion
from .cg import cg, pcg

__all__ = [
    "SolveResult",
    "TerminationReason",
    "StoppingCriterion",
    "cg",
    "pcg",
]
