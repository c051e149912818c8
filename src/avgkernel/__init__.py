"""Average coagulation kernels via Gauss-Laguerre quadrature of double
integrals, with a convergence-slope remainder estimate.

Names are imported from the module that defines them, e.g.
avgkernel.average.pre_exponential_factor.  Importing the package loads
numpy with one BLAS thread, unless OPENBLAS_NUM_THREADS is set or numpy is
already loaded.
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
