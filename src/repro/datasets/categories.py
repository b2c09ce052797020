"""The 17 application categories of the paper's Figure 9."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Category", "CATEGORIES"]


@dataclass(frozen=True)
class Category:
    """One application domain of the evaluation dataset.

    Attributes
    ----------
    key:
        Stable identifier used by the registry and the Figure 9 bench.
    label:
        Display name exactly as in the paper's figure.
    note:
        What characterizes matrices from this domain — and therefore how
        the synthetic generator imitates them.
    """

    key: str
    label: str
    note: str


CATEGORIES: tuple[Category, ...] = (
    Category("2d3d", "2D/3D",
             "Constant/variable-coefficient Poisson stencils on regular "
             "2-D and 3-D grids."),
    Category("acoustics", "acoustics",
             "Shifted Laplacians (Helmholtz-like with positive shift): "
             "stencil plus mass term, near-uniform magnitudes."),
    Category("circuit", "circuit simulation",
             "Conductance-network Laplacians with log-uniform value "
             "spread over many decades; many negligible couplings."),
    Category("cfd", "computational fluid dynamics",
             "Anisotropic diffusion stencils: one grid direction couples "
             "much more weakly, so dropping it decouples grid lines."),
    Category("graphics", "computer graphics/vision",
             "Mesh-style Laplacians (8-neighbor stencils) with random "
             "positive cotangent-like weights."),
    Category("counter", "counter-example",
             "Adversarial near-uniform magnitudes: magnitude-based "
             "dropping has no signal to exploit."),
    Category("dup_model_reduction", "duplicate model reduction",
             "Banded Gramian-like matrices, exponentially decaying "
             "off-diagonals (variant A)."),
    Category("dup_optimization", "duplicate optimization",
             "Normal-equation-like random SPD systems (variant A)."),
    Category("economic", "economic",
             "Input–output models: sparse random coupling with power-law "
             "magnitudes and strong diagonal."),
    Category("electromagnetics", "electromagnetics",
             "Wider-band stencils with mixed-sign couplings kept SPD by "
             "dominance."),
    Category("materials", "materials",
             "Lattice models with two-phase high-contrast coefficients."),
    Category("model_reduction", "model reduction",
             "Banded Gramian-like matrices, exponentially decaying "
             "off-diagonals (variant B)."),
    Category("optimization", "optimization",
             "Normal-equation-like random SPD systems (variant B)."),
    Category("random2d3d", "random 2D/3D",
             "Random geometric-graph Laplacians on scattered points."),
    Category("statmath", "statistical/mathematical",
             "Covariance-like banded matrices with exponential decay "
             "A_ij = exp(-|i-j|/l)."),
    Category("structural", "structural",
             "FEM plane-stress-like 9-point stencils with stiff/soft "
             "element mix."),
    Category("thermal", "thermal",
             "Heat-conduction stencils with smoothly varying "
             "conductivity fields."),
)
