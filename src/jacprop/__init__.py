"""Criticality of deep MLP initialization through partial Jacobians.

The package splits into an infinite-width theory side (activation
moments, kernel / Jacobian / NTK recursions, critical lines and
exponents) and a finite-width Monte-Carlo side (real random networks
with exact Jacobian and NTK measurements), plus fitting utilities and a
CLI tying them together.
"""

__version__ = "0.1.0"

from .activations import Activation, MomentKind, moment_closed, moment_quadrature
from .analysis import FitResult, PhaseGrid, fit_exponential, fit_power_law, phase_grid
from .critical import (
    CriticalLinePoint,
    FixedPoint,
    chi_star,
    correlation_length,
    critical_line,
    critical_point,
    exponent_numeric,
    find_fixed_point,
)
from .ensemble import (
    EnsembleConfig,
    JacobianEstimate,
    NetworkParams,
    empirical_chi,
    empirical_ntk,
    ensemble_ntk,
    forward,
    jacobian_profile,
    n0_correction_check,
    partial_jacobian_norm,
)
from .meanfield import (
    Hyper,
    MeanFieldTrace,
    NormMode,
    chi_delta,
    chi_jacobian,
    j0_corrected,
    kernel_step,
    trace,
)

__all__ = [
    "__version__",
    "Activation",
    "MomentKind",
    "moment_closed",
    "moment_quadrature",
    "Hyper",
    "NormMode",
    "MeanFieldTrace",
    "kernel_step",
    "chi_jacobian",
    "chi_delta",
    "trace",
    "j0_corrected",
    "FixedPoint",
    "CriticalLinePoint",
    "find_fixed_point",
    "chi_star",
    "critical_line",
    "critical_point",
    "correlation_length",
    "exponent_numeric",
    "FitResult",
    "PhaseGrid",
    "fit_power_law",
    "fit_exponential",
    "phase_grid",
    "EnsembleConfig",
    "NetworkParams",
    "JacobianEstimate",
    "forward",
    "partial_jacobian_norm",
    "empirical_chi",
    "jacobian_profile",
    "n0_correction_check",
    "empirical_ntk",
    "ensemble_ntk",
]
