"""Average coagulation kernels via Gauss-Laguerre quadrature of double
integrals, with a convergence-slope remainder estimate."""

from .average import (
    AverageKernelResult,
    ResolutionError,
    average_kernel,
    population_average_oracle,
    pre_exponential_factor,
)
from .extrapolate import (
    ConvergenceReport,
    DegenerateFitError,
    DivergentTailError,
    RemainderEstimate,
    default_window,
    error_sequence,
    fit_slope,
    full_report,
    remainder_estimate,
)
from .kernels import (
    KernelDomainError,
    KernelSpec,
    KernelSyntaxError,
    NonHomogeneousError,
    builtin_kernel,
    eval_kernel,
    homogeneity_degree,
    parse_kernel,
)
from .rules import (
    ConvergenceError,
    QuadratureRule,
    compute_rule,
    default_cache_dir,
    format_float,
    load_or_compute_rule,
)
from .tensor_quad import (
    ConvergenceSeries,
    IntegrandError,
    convergence_series,
    integrate_2d,
)

__version__ = "0.1.0"

__all__ = [
    "AverageKernelResult",
    "ConvergenceError",
    "ConvergenceReport",
    "ConvergenceSeries",
    "DegenerateFitError",
    "DivergentTailError",
    "IntegrandError",
    "KernelDomainError",
    "KernelSpec",
    "KernelSyntaxError",
    "NonHomogeneousError",
    "QuadratureRule",
    "RemainderEstimate",
    "ResolutionError",
    "average_kernel",
    "builtin_kernel",
    "compute_rule",
    "convergence_series",
    "default_cache_dir",
    "default_window",
    "error_sequence",
    "eval_kernel",
    "fit_slope",
    "format_float",
    "full_report",
    "homogeneity_degree",
    "integrate_2d",
    "load_or_compute_rule",
    "parse_kernel",
    "population_average_oracle",
    "pre_exponential_factor",
    "remainder_estimate",
]
