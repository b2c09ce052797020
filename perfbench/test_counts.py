"""Self-test of the benchmark: exact counts, bitwise tracing, schema.

Runs one round of every workload traced, twice at ``SEED`` and once at
the held-out ``HELD_OUT_SEED`` that later performance claims must also
hold on, and one untraced round.  About two minutes::

    python3 -m pytest perfbench/test_counts.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import metrics, run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1
HELD_OUT_SEED = 2


def _run(workload: str, seed: int, trace: int = 1) -> tuple[dict, dict]:
    """One round: ``(result, record)`` from the last two lines."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--rounds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("record ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("record "):])


@pytest.fixture(scope="module", params=metrics.spec().workloads)
def runs(request):
    name = request.param
    return name, [_run(name, SEED), _run(name, SEED),
                  _run(name, HELD_OUT_SEED)]


def _values(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_every_answer_verified(runs):
    _, results = runs
    for result, _ in results:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [
            name for name, _ in metrics.spec().per_layer]


def test_counts_repeat_exactly(runs):
    name, results = runs
    (first, rec1), (second, rec2), _ = results
    a, b = _values(first), _values(second)
    assert {k: a[k] for k in metrics.EXACT} == {k: b[k] for k in metrics.EXACT}
    assert rec1["stream_actions"] == rec2["stream_actions"]


@pytest.mark.parametrize("seed_run", [0, 2], ids=["seed", "held_out_seed"])
def test_layer_expectations(runs, seed_run):
    name, results = runs
    result, record = results[seed_run]
    v = _values(result)
    if name == "service_fsai":
        assert v["precond.trisolve.calls"] == 0
        assert v["sparse.spmv.calls"] > 0
    else:
        assert v["precond.trisolve.calls"] > 0
    if name == "oneshot_ilu0":
        self_times = {k: x for k, x in v.items() if k.endswith(".self_s")}
        assert max(self_times, key=self_times.get) == \
            "precond.trisolve.self_s"
    if name.startswith("service"):
        assert v["precond.factor.calls"] == 0
        assert v["batch.pcg_block.sweeps"] > 0
    if name == "stream_ilu0":
        actions = record["stream_actions"]
        assert actions.get("reuse", 0) >= 1
        assert actions.get("refactor", 0) >= 1


def test_every_per_layer_metric_has_a_rationale():
    assert list(metrics.RATIONALE) == [
        name for name, _ in metrics.spec().per_layer]


def test_untraced_run_reports_every_end_to_end_metric():
    result, record = _run("oneshot_ilu0", SEED, trace=0)
    assert result["correct"] and result["attempted"] == 3
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        list(metrics.spec().end_to_end)
    assert set(record["raw_wall"]) >= {"op_s.p50", "op_s.tail",
                                       "solves_per_s", "setup_s"}
    loops = record["reference_loop_s"]
    assert 0 < loops["p10"] <= loops["p50"] <= loops["p90"]


def test_scaling_to_the_reference_host():
    assert run.scaled(0.5, run.REF_LOOP_S) == pytest.approx(0.5)
    assert run.scaled(0.5, 2 * run.REF_LOOP_S) == pytest.approx(0.25)
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90, 10)
    assert run.tail([1.0, 2.0, 3.0]) == (3.0, 100, 0)
