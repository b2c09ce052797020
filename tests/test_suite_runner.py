"""Suite runner: ordering, failing-matrix errors and golden aggregates.

The golden fixture (``tests/golden/mini_suite_aggregates.json``) pins
the exact headline numbers of a small deterministic mini-suite — any
drift in the sparsification, factorization, solver, or aggregation
pipeline trips this test.

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python tests/test_suite_runner.py --regen
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from repro.datasets import MatrixSpec
from repro.errors import SuiteWorkerError
from repro.harness import run_suite
from repro.obs import TraceRecorder, use_recorder

GOLDEN = Path(__file__).parent / "golden" / "mini_suite_aggregates.json"

#: Small deterministic mini-suite: one matrix per paper-relevant
#: category, orders ~250 so the whole sweep stays CI-fast.  Non-registry
#: specs are built via ``spec.build()`` — the registry cache is not
#: involved, so results depend only on (category, n, seed).
MINI_SUITE = (
    MatrixSpec(name="mini_thermal", category="thermal", n=256, seed=1),
    MatrixSpec(name="mini_structural", category="structural", n=256, seed=2),
    MatrixSpec(name="mini_cfd", category="cfd", n=256, seed=3),
    MatrixSpec(name="mini_2d3d", category="2d3d", n=256, seed=4),
    MatrixSpec(name="mini_circuit", category="circuit", n=256, seed=5),
    MatrixSpec(name="mini_statmath", category="statmath", n=250, seed=6),
)


def run_mini_suite():
    return run_suite(MINI_SUITE)


def aggregates_dict(agg) -> dict:
    return dataclasses.asdict(agg)


def _assert_close(got: dict, want: dict) -> None:
    assert set(got) == set(want)
    for key, expect in want.items():
        actual = got[key]
        if isinstance(expect, float) and math.isnan(expect):
            assert math.isnan(actual), f"{key}: expected NaN, got {actual}"
        elif isinstance(expect, float):
            assert actual == pytest.approx(expect, rel=1e-9, abs=1e-12), \
                f"{key}: {actual} != {expect}"
        else:
            assert actual == expect, f"{key}: {actual} != {expect}"


class TestRunner:
    def test_result_order_is_submission_order(self):
        res = run_mini_suite()
        assert [r.name for r in res.results] == [s.name for s in MINI_SUITE]

    def test_max_n_skips(self):
        assert run_suite(MINI_SUITE, max_n=0).results == []

    def test_max_n_skips_only_larger_matrices(self):
        tiny = MatrixSpec(name="tiny_thermal", category="thermal", n=64,
                          seed=7)
        res = run_suite([MINI_SUITE[0], tiny, MINI_SUITE[2]], max_n=100,
                        run_fixed_ratios=False)
        assert [r.name for r in res.results] == ["tiny_thermal"]

    def test_progress_prints_one_line_per_matrix(self, capsys):
        run_suite(MINI_SUITE[:2], run_fixed_ratios=False, progress=True)
        lines = capsys.readouterr().out.splitlines()
        assert [ln.split()[0] for ln in lines] == \
            [s.name for s in MINI_SUITE[:2]]

    def test_trace_has_every_experiment_in_order(self):
        specs = MINI_SUITE[:3]
        with use_recorder(TraceRecorder()) as rec:
            res = run_suite(specs, run_fixed_ratios=False)
        assert [e.payload["name"] for e in rec.events("experiment_end")] \
            == [s.name for s in specs]
        (start,), (end,) = rec.events("suite_start"), rec.events("suite_end")
        assert start.payload["n_matrices"] == len(specs)
        assert end.payload["n_results"] == len(res.results) == len(specs)
        assert start.seq < end.seq


def _boom() -> MatrixSpec:
    """A spec whose ``build()`` raises (unknown category → DatasetError)."""
    return MatrixSpec(name="boom_matrix", category="no_such_category",
                      n=64, seed=0)


class TestWorkerFailures:
    """A failing experiment must name its matrix."""

    def test_names_failing_matrix(self):
        specs = [MINI_SUITE[0], _boom()]
        with pytest.raises(SuiteWorkerError) as ei:
            run_suite(specs, run_fixed_ratios=False)
        assert ei.value.matrix == "boom_matrix"
        assert "boom_matrix" in str(ei.value)

    def test_stops_at_first_failing_matrix(self):
        # The loop raises at the failing matrix: nothing after it runs.
        specs = [MINI_SUITE[0], _boom(), MINI_SUITE[1]]
        with use_recorder(TraceRecorder()) as rec:
            with pytest.raises(SuiteWorkerError) as ei:
                run_suite(specs, run_fixed_ratios=False)
        assert ei.value.matrix == "boom_matrix"
        assert [e.payload["name"] for e in rec.events("experiment_end")] \
            == [MINI_SUITE[0].name]
        assert not rec.events("suite_end")

    def test_cause_is_preserved(self):
        from repro.errors import DatasetError

        with pytest.raises(SuiteWorkerError) as ei:
            run_suite([_boom()], run_fixed_ratios=False)
        assert isinstance(ei.value.__cause__, DatasetError)


class TestGoldenAggregates:
    def test_reproduces_golden(self):
        want = json.loads(GOLDEN.read_text())
        got = aggregates_dict(run_mini_suite().aggregates())
        _assert_close(got, want["aggregates"])

    def test_golden_metadata_matches_suite(self):
        want = json.loads(GOLDEN.read_text())
        assert want["matrices"] == [s.name for s in MINI_SUITE]


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        agg = aggregates_dict(run_mini_suite().aggregates())
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(
            {"matrices": [s.name for s in MINI_SUITE],
             "aggregates": agg}, indent=2) + "\n")
        print(f"wrote {GOLDEN}")
    else:
        print(__doc__)
