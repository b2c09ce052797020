"""Experiment harness: runs PCG vs SPCG over the suite and aggregates
the statistics every table and figure of the paper reports.

* :mod:`~repro.harness.experiment` — one matrix, one device, one
  preconditioner family: baseline PCG, fixed-ratio variants, Algorithm-2
  SPCG and the oracle, each with modeled per-iteration / factorization /
  end-to-end times and measured iteration counts;
* :mod:`~repro.harness.suite` — sweeps matrix collections and computes
  the aggregates (geometric-mean speedups, % accelerated, Spearman
  correlations);
* :mod:`~repro.harness.report` — ASCII rendering of the paper's
  histograms, scatter plots, bar charts and tables;
* :mod:`~repro.harness.batch_bench` — multi-RHS batch-scaling study
  (per-RHS modeled cost vs batch size through the solver service);
* :mod:`~repro.harness.precision_study` — float32-factor vs float64
  comparison (iteration delta and modeled value-traffic ratio);
* :mod:`~repro.harness.stream_study` — amortized-stream macro-benchmark
  (warm + reuse + recycling session vs cold per-step solves, HPCG-style
  verified end-to-end seconds).
"""

from .batch_bench import BatchPoint, BatchScalingResult, run_batch_scaling
from .precision_study import (PrecisionPoint, PrecisionStudyResult,
                              run_precision_study)
from .spai_study import (CrossoverPoint, SpaiCrossoverResult,
                         run_spai_crossover)
from .stream_study import (StreamStudyResult, build_heat_stream_operator,
                           run_stream_study)
from .experiment import (
    ExperimentResult,
    MethodMetrics,
    run_experiment,
    select_best_k,
)
from .grid_search import (GridPoint, GridSearchResult,
                          grid_search_thresholds)
from .suite import (ResilienceAggregates, SuiteAggregates, SuiteResult,
                    run_suite)
from .report import (
    render_bar_chart,
    render_histogram,
    render_scatter,
    render_table,
)

__all__ = [
    "BatchPoint",
    "BatchScalingResult",
    "run_batch_scaling",
    "PrecisionPoint",
    "PrecisionStudyResult",
    "run_precision_study",
    "CrossoverPoint",
    "SpaiCrossoverResult",
    "run_spai_crossover",
    "StreamStudyResult",
    "build_heat_stream_operator",
    "run_stream_study",
    "MethodMetrics",
    "ExperimentResult",
    "run_experiment",
    "select_best_k",
    "SuiteResult",
    "SuiteAggregates",
    "ResilienceAggregates",
    "run_suite",
    "GridPoint",
    "GridSearchResult",
    "grid_search_thresholds",
    "render_histogram",
    "render_scatter",
    "render_bar_chart",
    "render_table",
]
