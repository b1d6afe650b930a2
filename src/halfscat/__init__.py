"""Forward and inverse acoustic scattering from a locally perturbed ground
plane, plus the electromagnetic image-field checks that go with it."""

from .geometry import (
    PanelMesh,
    SurfaceProfile,
    build_profile,
    mesh_perturbation,
)
from .incident import (
    IncidentWave,
    PlaneWave,
    PointSource,
    eval_pair,
    grad_pair,
)
from .kernels import (
    BoundaryCondition,
    GreenKernel,
    eval_G,
    farfield_kernel,
    farfield_kernel_grad_y,
    farfield_matrix,
    grad_G_x,
    grad_G_y,
)
from .solver import (
    DirectionGrid,
    LayerDensity,
    SolveReport,
    eval_farfield,
    eval_farfields,
    eval_scattered,
    solve_scattered,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryCondition",
    "DirectionGrid",
    "GreenKernel",
    "IncidentWave",
    "LayerDensity",
    "PanelMesh",
    "PlaneWave",
    "PointSource",
    "SolveReport",
    "SurfaceProfile",
    "build_profile",
    "eval_farfield",
    "eval_farfields",
    "eval_G",
    "eval_pair",
    "eval_scattered",
    "farfield_kernel",
    "farfield_kernel_grad_y",
    "farfield_matrix",
    "grad_G_x",
    "grad_G_y",
    "grad_pair",
    "mesh_perturbation",
    "solve_scattered",
    "__version__",
]
