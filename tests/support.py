"""Reference implementations shared by the test modules.

The explicit series for L_k and its derivative are evaluated in Fraction
arithmetic, so they are exact for rational arguments and immune to the
cancellation that limits the float recurrence.  The stepwise recurrence and
the full-grid sum are the straightforward forms of faster package code,
which must reproduce them bit for bit.  The Euler-identity residual checks
a kernel's declared degree of homogeneity by finite differences.  The
sample loops are the one-pair-at-a-time forms of the kernel sampling that
parse_kernel does in array calls, which must give the same degree, warning
and exception.  version_4_file writes a rule as the rule cache's format
version 4 held it, for the tests that a newer reader rebuilds such a file.
random_mixture draws a homogeneous kernel whose Q is known in closed form,
for the study of the remainder estimate R in estimator_study.py.
"""

import hashlib
import math
import struct
from fractions import Fraction

import numpy as np

from avgkernel.kernels import _SAMPLES, KernelSpec, NonHomogeneousError, eval_kernel


def laguerre_series(k, x):
    """L_k(x) = sum_{m=0}^{k} (-1)^m C(k,m) x^m / m!, exact for rational x."""
    x = Fraction(x)
    total = Fraction(0)
    for m in range(k + 1):
        total += Fraction((-1) ** m * math.comb(k, m), math.factorial(m)) * x**m
    return total


def laguerre_derivative_series(k, x):
    """Term-by-term derivative of the explicit series, exact for rational x."""
    x = Fraction(x)
    total = Fraction(0)
    for m in range(1, k + 1):
        total += Fraction((-1) ** m * math.comb(k, m), math.factorial(m)) * m * x ** (m - 1)
    return total


def recurrence_scaled_stepwise(k, x):
    """Scalar (L_{k-1}, L_k) mantissas and shift, renormalized every step.

    The straightforward loop that avgkernel.laguerre._recurrence_scaled
    speeds up: it rescales by a power of two whenever a term leaves
    [2**-512, 2**512].  Power-of-two rescaling is exact, so both must give
    the same values prev * 2**shift and cur * 2**shift.
    """
    big, small = 2.0**512, 2.0**-512
    prev, cur, shift = 1.0, 1.0 - x, 0
    for n in range(1, k):
        prev, cur = cur, ((2 * n + 1 - x) * cur - n * prev) / (n + 1)
        m = max(abs(prev), abs(cur))
        if m > big or m < small:
            _, e = math.frexp(m)
            prev, cur = math.ldexp(prev, -e), math.ldexp(cur, -e)
            shift += e
    return prev, cur, shift


def _on_full_grid(f, x, y):
    """f evaluated on the full grids of column x and row y, as an array of
    their broadcast shape."""
    gx, gy = np.broadcast_arrays(x, y)
    vals = np.asarray(f(gx, gy), dtype=float)
    return np.broadcast_to(vals, gx.shape)


def integrate_2d_full_grid(rule, f):
    """avgkernel.tensor_quad.integrate_2d with f called on two k x k grids
    and the row sums taken in one matrix-vector product.

    The package passes f a block of the node column and the node row
    instead, and sums the rows block by block, so per-node work in f runs
    about k times, not k*k, and no k x k array is formed; the elementwise
    values and each row's sum are the same, so both must give the same
    w @ (vals @ w) bit for bit.
    """
    vals = _on_full_grid(f, rule.nodes[:, None], rule.nodes[None, :])
    return float(rule.weights @ (vals @ rule.weights))


def euler_identity_residual(spec: KernelSpec, x: float, y: float, h: float) -> float:
    """x db/dx + y db/dy - q b, centrally differenced and scaled by b.

    The caller keeps (x, y) away from non-smooth loci (the SD diagonal);
    smooth homogeneous kernels give O(h^2).
    """
    if spec.degree_q is None:
        raise ValueError("kernel has no degree set")
    b = eval_kernel(spec, x, y)
    dbdx = (eval_kernel(spec, x * (1 + h), y) - eval_kernel(spec, x * (1 - h), y)) / (
        2 * h * x
    )
    dbdy = (eval_kernel(spec, x, y * (1 + h)) - eval_kernel(spec, x, y * (1 - h))) / (
        2 * h * y
    )
    return (x * dbdx + y * dbdy - spec.degree_q * b) / b


def homogeneity_degree_loop(spec: KernelSpec) -> float:
    """avgkernel.kernels.homogeneity_degree with one scalar evaluation per
    kernel value, pair by pair over the same sample pairs."""
    estimates = []
    for x, y in zip(*_SAMPLES[:, :32]):
        base = eval_kernel(spec, float(x), float(y))
        for alpha in (2.0, 0.5):
            scaled = eval_kernel(spec, float(alpha * x), float(alpha * y))
            if base <= 0.0 or scaled <= 0.0:
                raise NonHomogeneousError(
                    f"kernel not positive at sample (x = {x}, y = {y})"
                )
            estimates.append(math.log(scaled / base) / math.log(alpha))
    spread = max(estimates) - min(estimates)
    if spread > 1e-6:
        raise NonHomogeneousError(
            f"homogeneity estimates spread {spread:.3e} over "
            f"{len(estimates)} samples (range {min(estimates):.6f}"
            f" to {max(estimates):.6f})"
        )
    return float(np.mean(estimates))


def symmetry_warning_loop(spec: KernelSpec) -> str | None:
    """avgkernel.kernels._verify_symmetry with one scalar evaluation per
    kernel value, pair by pair over the same sample pairs."""
    worst = 0.0
    where = None
    for x, y in zip(*_SAMPLES):
        a = eval_kernel(spec, float(x), float(y))
        b = eval_kernel(spec, float(y), float(x))
        rel = abs(a - b) / max(abs(a), abs(b), 1e-300)
        if rel > worst:
            worst = rel
            where = (float(x), float(y))
    if worst > 1e-10:
        return f"asymmetric: relative difference {worst:.3e} at {where}"
    return None


def version_4_file(rule) -> str:
    """The cache file of rule in format version 4: after the header, one
    row per node of the big-endian IEEE-754 bits of the node and of its
    weight in hex, then the SHA-256 of all before it."""
    flushed = sum(1 for w in rule.weights if w == 0.0)
    rows = "".join(f"{struct.pack('>d', x).hex()},{struct.pack('>d', w).hex()}\n"
                   for x, w in zip(rule.nodes, rule.weights))
    body = f"# gauss-laguerre order={rule.order} flushed={flushed} version=4\n{rows}"
    return f"{body}# sha256={hashlib.sha256(body.encode('ascii')).hexdigest()}\n"


def random_mixture(rng) -> tuple[str, float]:
    """A kernel text, with its degree q declared, and its exact Q.

    q ~ U(0.3, 3), and 1 to 3 terms c (x^a y^b + x^b y^a) with b = q - a,
    a ~ U(-0.95, q/2) and c log-uniform in [1e-3, 30].  Each term integrates
    against e^(-x-y) to 2 c Gamma(a+1) Gamma(b+1), so near a = -1 its tail
    converges slowly, and a mix of terms need not follow one power law.
    """
    q = rng.uniform(0.3, 3.0)
    terms, exact = [], 0.0
    for _ in range(rng.randint(1, 3)):
        a = rng.uniform(-0.95, q / 2)
        b = q - a
        c = 10.0 ** rng.uniform(-3.0, math.log10(30.0))
        terms.append(f"{c!r}*(x^{a!r}*y^{b!r} + x^{b!r}*y^{a!r})")
        exact += 2.0 * c * math.gamma(a + 1.0) * math.gamma(b + 1.0)
    return f"q={q!r}; " + " + ".join(terms), exact
