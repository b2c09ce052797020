"""repro — reproduction of *Sparsified Preconditioned Conjugate Gradient
Solver on GPUs* (SC 2025).

Quickstart::

    import numpy as np
    from repro import stencil_poisson_2d, spcg

    a = stencil_poisson_2d(32)            # SPD test matrix
    b = np.ones(a.n_rows)
    result = spcg(a, b, preconditioner="ilu0")
    assert result.converged

Subpackages
-----------
``repro.sparse``
    CSR/CSC/COO containers, SpMV, norms, Matrix Market I/O.
``repro.graph``
    Dependence DAG and wavefront (level) scheduling.
``repro.precond``
    ILU(0), ILU(K), IC(0), Jacobi; wavefront triangular solvers.
``repro.solvers``
    CG and left-preconditioned CG (Algorithm 1).
``repro.core``
    Sparsification, convergence indicators, Algorithm 2, the SPCG driver.
``repro.machine``
    Analytical A100/V100/EPYC cost model and profiler.
``repro.datasets``
    Synthetic SPD matrix suite mirroring the paper's 17 categories.
``repro.harness``
    Experiment runner and statistics for regenerating every table/figure.
``repro.resilience``
    Fault injection, breakdown guards and the ``robust_spcg`` fallback
    ladder.
``repro.perf``
    Solver-artifact cache and vectorized factorization hot paths.
``repro.obs``
    Structured tracing, metrics registry, and the ``repro report``
    run-ledger renderer.
``repro.batch``
    Batched multi-RHS block PCG and the fingerprint-grouped
    :class:`~repro.batch.SolverService`.
"""

from .errors import (
    AbortSolve,
    DatasetError,
    DeviceModelError,
    InvalidCriterionError,
    MatrixMarketError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    NotTriangularError,
    ReproError,
    ScheduleError,
    ShapeError,
    SingularFactorError,
    SparseFormatError,
    SuiteWorkerError,
)
from .sparse import (
    COOMatrix,
    CSCMatrix,
    CSRMatrix,
    eye,
    diags,
    random_spd,
    read_matrix_market,
    stencil_poisson_1d,
    stencil_poisson_2d,
    stencil_poisson_3d,
    write_matrix_market,
)
from .graph import (
    LevelSchedule,
    level_schedule,
    wavefront_count,
)
from .precond import (
    IC0Preconditioner,
    ILU0Preconditioner,
    ILUKPreconditioner,
    IdentityPreconditioner,
    JacobiPreconditioner,
    ScheduledTriangularSolver,
    ilu0,
    iluk,
)
from .solvers import SolveResult, StoppingCriterion, TerminationReason, cg, pcg
from .core import (
    SparsificationDecision,
    SparsifyResult,
    SPCGResult,
    oracle_select,
    sparsify_magnitude,
    spcg,
    wavefront_aware_sparsify,
)
from .machine import A100, EPYC_7413, V100, DeviceModel, get_device
from .resilience import (
    FailureClass,
    FallbackPolicy,
    FaultPlan,
    FaultSpec,
    GuardConfig,
    GuardTrip,
    ResidualGuard,
    RobustSolveReport,
    classify_failure,
    default_ladder,
    robust_spcg,
)
from .batch import (
    BatchReport,
    BlockSolveResult,
    GroupReport,
    SolveRequest,
    SolverService,
    pcg_block,
)
from .obs import (
    MetricsRegistry,
    TraceRecorder,
    get_metrics,
    get_recorder,
    render_report,
    set_recorder,
    use_recorder,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError", "ShapeError", "SparseFormatError", "NotTriangularError",
    "SingularFactorError", "NotSymmetricError", "NotPositiveDefiniteError",
    "MatrixMarketError", "DatasetError",
    "DeviceModelError", "InvalidCriterionError", "AbortSolve",
    "SuiteWorkerError", "ScheduleError",
    # sparse
    "COOMatrix", "CSRMatrix", "CSCMatrix", "eye", "diags", "random_spd",
    "stencil_poisson_1d", "stencil_poisson_2d", "stencil_poisson_3d",
    "read_matrix_market", "write_matrix_market",
    # graph
    "LevelSchedule", "level_schedule", "wavefront_count",
    # precond
    "ILU0Preconditioner", "ILUKPreconditioner", "IC0Preconditioner",
    "JacobiPreconditioner", "IdentityPreconditioner",
    "ScheduledTriangularSolver", "ilu0", "iluk",
    # solvers
    "SolveResult", "StoppingCriterion", "TerminationReason", "cg", "pcg",
    # core
    "SparsifyResult", "sparsify_magnitude", "SparsificationDecision",
    "wavefront_aware_sparsify", "SPCGResult", "spcg", "oracle_select",
    # machine
    "DeviceModel", "A100", "V100", "EPYC_7413", "get_device",
    # batch
    "BlockSolveResult", "pcg_block", "SolveRequest", "GroupReport",
    "BatchReport", "SolverService",
    # obs
    "TraceRecorder", "get_recorder", "set_recorder", "use_recorder",
    "MetricsRegistry", "get_metrics", "render_report",
    # resilience
    "FaultSpec", "FaultPlan", "FailureClass", "GuardConfig", "GuardTrip",
    "ResidualGuard", "classify_failure", "FallbackPolicy",
    "RobustSolveReport", "default_ladder", "robust_spcg",
    "__version__",
]
