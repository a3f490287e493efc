"""avcalc: variational calculus with affine values.

Lagrangians that are well defined only up to velocity-coupled gauge
terms <d(chi), v> are treated as sections of an affine value bundle
over a charted manifold.  The package provides the expression language
and autodiff backing, the bundle/atlas machinery, the gauge-invariant
Euler-Lagrange operator and affine Legendre map, affine action
functionals, and machine-checkable invariant suites.
"""

from .affine import (
    AffineScalar,
    FiberPoint,
    affine_scalar_diff,
    box_minus,
    fiber_diff,
    fiber_translate,
)
from .autodiff import Hyperdual, gradient, hessian_vector
from .config import SystemConfig, load_config
from .dynamics import (
    AffineCovector,
    Covector,
    GaugeClassLagrangian,
    SecondOrderPoint,
    Trajectory,
    euler_lagrange,
    gauge_shift,
    integrate_trajectory,
    legendre,
    solve_accelerations,
)
from .errors import (
    AvcalcError,
    BaseMismatchError,
    ChartDisjointError,
    ChartExitError,
    ChartScheduleError,
    ConfigSyntaxError,
    DomainError,
    ExprSyntaxError,
    SingularLagrangianError,
    UnboundVariableError,
    ValidationError,
)
from .action import (
    VariationField,
    action_lift,
    action_quadrature,
    gauge_fixed_value,
    variation_derivative,
    variation_pairing,
)
from .geometry import (
    AffineOneForm,
    Atlas,
    AVSection,
    Chart,
    CurveSegment,
    CurveSpec,
    OverlapComponent,
    ScalarFunction,
    affine_differential,
    circle_atlas,
    euclidean_atlas,
    gauge_transform_section,
    integrate_pullback,
)
from .systems import System, bundled_system, bundled_system_names, exact_lagrangian

__version__ = "0.1.0"

__all__ = [
    "AffineCovector",
    "AffineOneForm",
    "AffineScalar",
    "Atlas",
    "AVSection",
    "AvcalcError",
    "BaseMismatchError",
    "Chart",
    "ChartDisjointError",
    "ChartExitError",
    "ChartScheduleError",
    "ConfigSyntaxError",
    "Covector",
    "CurveSegment",
    "CurveSpec",
    "DomainError",
    "ExprSyntaxError",
    "FiberPoint",
    "GaugeClassLagrangian",
    "Hyperdual",
    "OverlapComponent",
    "ScalarFunction",
    "SecondOrderPoint",
    "SingularLagrangianError",
    "System",
    "SystemConfig",
    "Trajectory",
    "UnboundVariableError",
    "ValidationError",
    "VariationField",
    "action_lift",
    "action_quadrature",
    "affine_differential",
    "affine_scalar_diff",
    "box_minus",
    "bundled_system",
    "bundled_system_names",
    "circle_atlas",
    "euclidean_atlas",
    "euler_lagrange",
    "exact_lagrangian",
    "fiber_diff",
    "fiber_translate",
    "gauge_fixed_value",
    "gauge_shift",
    "gauge_transform_section",
    "gradient",
    "hessian_vector",
    "integrate_pullback",
    "integrate_trajectory",
    "legendre",
    "load_config",
    "solve_accelerations",
    "variation_derivative",
    "variation_pairing",
]
