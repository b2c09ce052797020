"""Sparse-matrix substrate built from scratch for the SPCG reproduction.

The paper's entire pipeline operates on compressed sparse row (CSR)
matrices (Figure 1b); this subpackage provides the containers and the
vectorized kernels everything else is built on:

* :class:`COOMatrix`, :class:`CSRMatrix`, :class:`CSCMatrix` containers,
* construction helpers (:func:`eye`, :func:`diags`, stencils, random SPD),
* elementwise ops, triangle extraction, permutation,
* SpMV,
* matrix norms (1/inf/Frobenius and a power-iteration 2-norm estimate),
* Matrix Market I/O so real SuiteSparse matrices drop in,
* reverse Cuthill–McKee reordering.

SciPy is deliberately *not* a dependency of this package; it is only used
in the test-suite as an independent oracle.
"""

from .coo import COOMatrix
from .csr import CSRMatrix
from .csc import CSCMatrix
from .construct import (
    diags,
    eye,
    kron,
    random_spd,
    stencil_poisson_1d,
    stencil_poisson_2d,
    stencil_poisson_3d,
)
from .ops import (
    add,
    diagonal,
    extract_lower,
    extract_strict_lower,
    extract_strict_upper,
    extract_upper,
    is_structurally_symmetric,
    is_symmetric,
    permute,
    scale,
    subtract,
    symmetrize,
)
from .norms import norm_1, norm_2_est, norm_fro, norm_inf, norm_max
from .matrix_market import read_matrix_market, write_matrix_market
from .spgemm import spgemm
from .validation import (SPDReport, check_spd, dominance_measure,
                         gershgorin_bounds)
from .reorder import rcm_ordering

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "diags",
    "eye",
    "kron",
    "random_spd",
    "stencil_poisson_1d",
    "stencil_poisson_2d",
    "stencil_poisson_3d",
    "add",
    "subtract",
    "scale",
    "diagonal",
    "extract_lower",
    "extract_upper",
    "extract_strict_lower",
    "extract_strict_upper",
    "is_symmetric",
    "is_structurally_symmetric",
    "symmetrize",
    "permute",
    "norm_1",
    "norm_2_est",
    "norm_fro",
    "norm_inf",
    "norm_max",
    "read_matrix_market",
    "write_matrix_market",
    "rcm_ordering",
    "spgemm",
    "SPDReport",
    "check_spd",
    "dominance_measure",
    "gershgorin_bounds",
]
