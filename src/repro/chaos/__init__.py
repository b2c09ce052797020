"""The chaos acceptance harness: goodput vs fault rate.

The serving stack claims to *self-heal*: detect silent corruption
(ABFT checksums, periodic true-residual checks), restart crashed or
corrupted solves from verified checkpoints, walk the preconditioner
ladder when one matrix keeps failing, and brown out accuracy under
overload instead of shedding requests.  :func:`run_chaos_study` tests
those claims against the seeded device faults of a
:class:`repro.resilience.FaultPlan` (``FaultPlan(rate=…, seed=…)``):
it sweeps the fault rate, compares the self-healing scheduler against
a fail-fast baseline, and reports *audited* goodput (returned iterates
are re-verified against the true residual, so silently wrong answers
never count).

Everything is deterministic at fixed seeds, which is what lets CI
assert a hard goodput floor under 5% per-sweep fault rate.
"""

from .harness import ChaosStudyResult, ChaosStudyRow, run_chaos_study

__all__ = [
    "ChaosStudyRow",
    "ChaosStudyResult",
    "run_chaos_study",
]
