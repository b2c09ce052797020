"""Resilience outcomes, pinned exactly by a golden file.

The six injected-fault scenarios of ``tests/test_resilience.py`` (plain
``spcg`` fails or stalls, ``robust_spcg`` recovers) and the default
chaos study (``run_chaos_study()``: goodput vs fault rate, self-healing
vs fail-fast) are fully deterministic.  The golden fixture
(``tests/golden/resilience_outcomes.json``) freezes every
``AttemptRecord`` field of each robust report, plain ``spcg``'s outcome
and every study row; floats are stored as their ``repr``, so the
comparison is exact.  Regenerate after an *intentional* change with::

    PYTHONPATH=src python tests/test_resilience_golden.py --regen
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.chaos import run_chaos_study
from repro.core import spcg
from repro.errors import ReproError
from repro.resilience import FaultPlan, FaultSpec, robust_spcg
from repro.sparse import stencil_poisson_2d

GOLDEN = Path(__file__).parent / "golden" / "resilience_outcomes.json"

#: name -> (grid side, preconditioner, fault spec, plain-spcg kwargs).
SCENARIOS = {
    "zero_pivot": (20, "ilu0",
                   FaultSpec("zero_pivot", rungs=("spcg",), rows=(0,)),
                   {"raise_on_zero_pivot": True}),
    "transient_nan_apply": (20, "ilu0",
                            FaultSpec("nan_apply", rungs=("spcg",),
                                      at_apply=2, max_triggers=1), {}),
    "corrupted_sparsification": (20, "ilu0",
                                 FaultSpec("corrupt_values",
                                           rungs=("spcg", "spcg-safe"),
                                           fraction=0.2, scale=1e8), {}),
    "frozen_apply": (20, "ilu0",
                     FaultSpec("freeze_apply", rungs=("spcg",),
                               at_apply=3), {}),
    "offset_apply_divergence": (24, "ilu0",
                                FaultSpec("offset_apply", rungs=("spcg",),
                                          scale=1e11), {}),
    "indefinite_ic0": (20, "ic0",
                       FaultSpec("flip_diagonal", rungs=("spcg",),
                                 rows=(0,)), {}),
}


def _exact(v):
    """JSON-safe exact form: floats (and NumPy scalars) by ``repr``."""
    if isinstance(v, (bool, str)) or v is None:
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, dict):
        return {k: _exact(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_exact(x) for x in v]
    return getattr(v, "value", str(v))


def run_scenario(name: str) -> dict:
    side, precond, spec, plain_kwargs = SCENARIOS[name]
    a = stencil_poisson_2d(side)
    b = a.matvec(np.ones(a.n_rows))
    try:
        res = spcg(a, b, preconditioner=precond, fault_plan=FaultPlan(spec),
                   **plain_kwargs)
        plain = {"converged": res.converged,
                 "reason": res.solve.reason.value,
                 "n_iters": res.solve.n_iters,
                 "final_residual": res.solve.final_residual}
    except ReproError as exc:
        plain = {"raised": f"{type(exc).__name__}: {exc}"}
    report = robust_spcg(a, b, preconditioner=precond,
                         fault_plan=FaultPlan(spec))
    attempts = [{"rung": t.rung, "method": t.method,
                 "preconditioner": t.preconditioner,
                 "ratio_percent": t.ratio_percent,
                 "converged": t.converged, "n_iters": t.n_iters,
                 "final_residual": t.final_residual,
                 "failure": t.failure_name, "detail": t.detail,
                 "pivot_boosted": t.pivot_boosted, "shifted": t.shifted,
                 "modeled_seconds": t.modeled_seconds}
                for t in report.attempts]
    return _exact({"plain_spcg": plain, "attempts": attempts,
                   "converged": report.converged,
                   "recovered_by": report.recovered_by})


def run_study() -> list:
    return _exact([row.as_dict() for row in run_chaos_study().rows])


def serialize() -> dict:
    return {"scenarios": {name: run_scenario(name) for name in SCENARIOS},
            "chaos_study": run_study()}


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN.exists(), "golden missing; regenerate with --regen"
    return json.loads(GOLDEN.read_text())


class TestResilienceGolden:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_injected_fault_scenario(self, golden, name):
        assert run_scenario(name) == golden["scenarios"][name]

    def test_chaos_study_rows(self, golden):
        assert run_study() == golden["chaos_study"]


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(serialize(), indent=2) + "\n")
        print(f"wrote {GOLDEN}")
    else:
        print("usage: python tests/test_resilience_golden.py --regen")
