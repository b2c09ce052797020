"""Dependence-graph and wavefront (level-scheduling) engine.

Solving ``Lx = b`` row by row induces a DAG: row *i* depends on row *j*
whenever ``L[i, j] != 0`` for ``j < i`` (Figure 1c of the paper).  Rows
with no unresolved dependences form a *wavefront* and can be solved in
parallel; wavefronts execute sequentially with a barrier between them.
The number of wavefronts is therefore the number of GPU kernel launches /
synchronizations per triangular solve — the quantity the paper's
sparsification attacks.

This package computes the DAG, the level schedule (a row sweep over the
stored entries), and the wavefront reduction (Equation 7) used by
Algorithm 2 and by the evaluation figures.
"""

from .aggregation import AggregatedSchedule, aggregate_levels
from .dag import DependenceDAG, dependence_dag
from .levels import (
    LevelSchedule,
    level_schedule,
    wavefront_count,
)
from .partition import (
    RowPartition,
    level_profile,
    partition_profiles,
    partition_rows,
    split_partition,
)
from .stats import wavefront_reduction_percent

__all__ = [
    "AggregatedSchedule",
    "aggregate_levels",
    "DependenceDAG",
    "dependence_dag",
    "LevelSchedule",
    "level_schedule",
    "wavefront_count",
    "RowPartition",
    "partition_rows",
    "partition_profiles",
    "level_profile",
    "split_partition",
    "wavefront_reduction_percent",
]
