"""Forward solvers for the local and nonlocal conductivity problems and the
constructive bridge between their measurement maps."""

from .coefficients import (
    Coefficient,
    coefficient_from_spec,
    diagonal_coefficient,
    identity_coefficient,
    mollifier_bump,
)
from .mesh import (
    ExtensionMesh,
    GeometrySpec,
    TangentialGrid,
    VerticalMesh,
    build_extension_mesh,
    build_tangential_grid,
    build_vertical_mesh,
    default_grading,
    default_height,
)
from .local_elliptic import (
    LocalDtN,
    LocalOperator,
    assemble_local,
    local_dtn,
    local_dtn_matrix,
    solve_local_dirichlet,
)
from .fractional_core import (
    NonlocalDtN,
    SpectralPower,
    nonlocal_dtn,
    nonlocal_dtn_matrix,
    solve_fractional_dirichlet,
    spectral_power,
)
from .extension import (
    CalibrationConstant,
    ExtensionField,
    ExtensionSolver,
    WeightedTrace,
    analytic_cs,
    calibrate_cs,
    decay_diagnostic,
    extend_via_kernel,
    neumann_trace,
)
from .bridge import (
    BridgePipeline,
    CauchyPair,
    VerticalIntegralField,
    density_diagnostic,
    distinguishability_experiment,
    duality_transform,
    operator_T,
    verify_local_equation,
    vertical_integral,
)
from .tikhonov import (
    DataOperator,
    TikhonovSolution,
    alpha_sweep,
    build_data_operator,
    minimize,
    optimality_probe,
    reconstruct_cauchy_from_data,
)
from . import errors

__version__ = "0.1.0"
