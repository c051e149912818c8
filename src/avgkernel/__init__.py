"""Average coagulation kernels via Gauss-Laguerre quadrature of double
integrals, with a convergence-slope remainder estimate.

Importing the package loads numpy with one BLAS thread, unless
OPENBLAS_NUM_THREADS is set or numpy is already loaded.
"""

import os
import sys

# When numpy loads OpenBLAS, OpenBLAS starts a helper thread per extra CPU,
# and the helpers busy-wait: about 0.1 s of CPU per CLI run on 2 CPUs.  The
# package's BLAS calls, one gemv and one dot per order, are no faster with
# them.  OpenBLAS reads the variable once, when it is loaded, so the setting
# has to come before the first module here that imports numpy; cli.main, where
# _keep_freed_memory sets the process's other setting, runs too late.  The
# variable is removed again so that child processes do not inherit it.  A
# value the user set is kept, and a program that loaded numpy first is left
# as it is.
if "OPENBLAS_NUM_THREADS" not in os.environ and "numpy" not in sys.modules:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

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
    error_sequence,
    fit_slope,
    fit_window,
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
    "error_sequence",
    "eval_kernel",
    "fit_slope",
    "fit_window",
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
