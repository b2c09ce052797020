"""Wall-clock benchmark of the SPCG solver stack.

``python3 perfbench/run.py --help`` describes the command line;
:mod:`perfbench.workloads` holds the four closed-loop workloads,
:mod:`perfbench.spans` the traced run's span recorder and
:mod:`perfbench.metrics` the per-layer metrics and, for each, the
end-to-end metric and workload it is expected to move.
"""
