"""Smoke tests: every example script must run to completion.

Each script runs as its own process, the way its docstring tells a
reader to run it, and any non-zero exit fails the test, so the
documented entry points cannot rot.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"
SRC = Path(__file__).parent.parent / "src"

sys.path.insert(0, str(EXAMPLES))


def _run(name: str, *args: str) -> str:
    """Run ``python examples/<name> args...``; return its stdout."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH"))
                           if p)
    proc = subprocess.run([sys.executable, str(EXAMPLES / name), *args],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, (
        f"{name} exited with {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


@pytest.mark.parametrize("script", [
    "quickstart.py",
    "portability_study.py",
    "drop_strategies.py",
    "heat_equation.py",
    "circuit_dc_analysis.py",
])
def test_example_runs(script):
    assert len(_run(script)) > 100  # produced a real report


def test_suitesparse_runner(tmp_path):
    from repro.datasets import load
    from repro.sparse import write_matrix_market

    path = tmp_path / "thermal_1600_s102.mtx"
    write_matrix_market(path, load("thermal_1600_s102"), symmetric=True)
    assert "per-iteration speedup" in _run("suitesparse_runner.py",
                                           str(path))


def test_heat_equation_small(monkeypatch, capsys):
    """Run the heat example's building blocks at a reduced size."""
    import heat_equation as he

    a = he.build_heat_operator(16, 0.05)
    assert a.n_rows == 256
    from repro.sparse import is_symmetric

    assert is_symmetric(a, tol=1e-12)


def test_circuit_example_physics(capsys, make_rng):
    """The circuit example's conservation check at a reduced size."""
    import numpy as np

    from repro import pcg, ILU0Preconditioner, StoppingCriterion
    from repro.datasets import generate

    g = generate("circuit", 500, seed=11)
    rng = make_rng(1)
    i_vec = np.zeros(g.n_rows)
    src = rng.choice(g.n_rows, size=4, replace=False)
    i_vec[src] = 1e-3
    res = pcg(g, i_vec, ILU0Preconditioner(g),
              criterion=StoppingCriterion(rtol=1e-10, atol=0.0))
    assert res.converged
    p_in = float(i_vec @ res.x)
    p_diss = float(res.x @ g.matvec(res.x))
    assert p_in == pytest.approx(p_diss, rel=1e-6)
