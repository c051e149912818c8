"""Pre-exponential factor p, the average kernel p*u^q, and an independent
population-average oracle.

p is half the Gauss-Laguerre double integral of the kernel.  The oracle
recomputes the same average from its defining volume integral with
double-exponential quadrature (Takahasi & Mori 1974) in the coordinates
x = u s t, y = u s (1 - t): tanh-sinh in t, which puts the kernels'
singularities at x = 0 and kinks at x = y at the ends of the t range, and
exp-sinh in s.  It is a deliberately different quadrature family, so
agreement between the two is evidence rather than tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .extrapolate import Fit, full_report
from .kernels import KernelSpec, eval_kernel
from .rules import QuadratureRule
from . import tensor_quad


class ResolutionError(RuntimeError):
    """Successive oracle refinements disagree beyond tolerance within the
    node budget, or the oracle value is not finite."""


@dataclass(frozen=True)
class AverageKernelResult:
    """One kernel through the pipeline: its series (Q_k, of the last rule,
    last), its fit on the scale of Q, and q: the average is p*u^q, p = Q_k/2.
    """

    kernel_id: str
    q: float
    values: list[float]
    fit: Fit

    @property
    def p(self) -> float:
        return self.values[-1] / 2.0

    @property
    def remainder_value(self) -> float | None:
        """The remainder on the scale of p: 0 when exact, None when no
        finite estimate exists or no fit was made.  Only the benchmark's
        tracer reads it; ROADMAP items 11 and 12 retire it."""
        r = self.fit.remainder
        return None if r is None else r / 2.0


def pre_exponential_factor(spec: KernelSpec, rules: list[QuadratureRule],
                           fit_window=None) -> AverageKernelResult:
    """Sum the kernel over each of rules (from load_rules, ascending), the
    series, and fit it on their orders; p is half the last sum.  Every
    command that prints a series, p or a remainder runs this, and nothing
    else sums a series.
    """
    if spec.degree_q is None:
        raise ValueError("kernel has no homogeneity degree set")
    f = lambda x, y: eval_kernel(spec, x, y)
    # looked up on the module at call time, so a wrapper set on it sees every sum
    values = [tensor_quad.integrate_2d(rule, f) for rule in rules]
    return AverageKernelResult(spec.label, spec.degree_q, values,
                               full_report([r.order for r in rules], values, fit_window))


class ScaleError(ArithmeticError):
    """u^q, p*u^q or the remainder times u^q is not a finite float."""


def at_u(result: AverageKernelResult, u: float) -> tuple[float, float | None]:
    """beta_bar = p * u^q and the fit's remainder times u^q (None when it
    has no estimate), from one u^q.  Raises ScaleError, naming u and q,
    when u^q or either product is not finite."""
    if u <= 0:
        raise ValueError("u must be > 0")
    try:
        scale = u ** result.q
    except OverflowError:  # float ** raises where float * gives inf
        scale = math.inf
    r = result.fit.remainder
    beta, r_u = result.p * scale, None if r is None else r * scale
    if not all(math.isfinite(v) for v in (scale, beta, r_u) if v is not None):
        raise ScaleError(f"beta_bar = p*u^q or R*u^q is not finite at u = {u:g},"
                         f" q = {result.q!r}")
    return beta, r_u


# The oracle's tolerance, relative to max(1, |value|); check passes within it.
ORACLE_RTOL = 1e-5
# Kernels such as 1/x overflow below the smallest normal float.
_TINY = np.finfo(float).tiny


def _de_axes(h: float):
    """Nodes and weights at step h: tanh-sinh in t on (0, 1/2), exp-sinh
    in s on (0, inf).

    t = sigma(pi sinh tau) / 2, with sigma the logistic function, so
    1/2 - t and 1 - t carry no cancellation; s = exp(pi/2 sinh tau), and
    its weight includes the s e^-s of the average.  Nodes whose t is
    subnormal or rounds to 1 - t, or whose weight underflows, are dropped:
    beyond |tau| = 6.5 that is every node.
    """
    tau = h * np.arange(-int(6.5 / h), int(6.5 / h) + 1)
    with np.errstate(over="ignore", under="ignore"):
        v = np.pi * np.sinh(tau)
        t, d = 0.5 / (1.0 + np.exp(-v)), 0.5 / (1.0 + np.exp(v))
        wt = 2.0 * np.pi * h * np.cosh(tau) * t * d
        s = np.exp(0.5 * v)
        ws = 0.5 * np.pi * h * np.cosh(tau) * np.exp(v - s)
    on_t = (t >= _TINY) & (t != 0.5 + d) & (wt > 0)
    return t[on_t], 0.5 + d[on_t], wt[on_t], s[ws > 0], ws[ws > 0]


def population_average_oracle(spec: KernelSpec, u: float, points: int = 4000,
                              rtol: float = ORACLE_RTOL) -> float:
    """Quadrature-independent estimate of the average kernel at u.

    With x = u s t and y = u s (1 - t), the average
    (1/(2u^2)) int int beta(x, y) e^(-(x+y)/u) dx dy equals
    1/2 int_0^inf s e^-s int_0^1 beta(x, y) dt ds.  The kernel is evaluated
    at those (x, y), both ways round to fold t onto (0, 1/2) without
    assuming symmetry, and never at x == y or at a zero or subnormal x.
    It is not scaled by its declared degree q, so a wrong q shows away from
    u = 1.  One step h serves both axes; it halves from 1/2 until two
    successive levels agree within rtol, while the t axis holds at most
    `points` nodes.  A level is summed in blocks of s rows, each within
    tensor_quad._BLOCK_VALUES points; a block's weights are formed after
    its two kernel calls, so the kernel's temporaries set the peak.
    """
    if u <= 0:
        raise ValueError("u must be > 0")
    if points < 64:
        raise ValueError("points must be >= 64")
    h, values = 0.5, []
    while True:
        t, r, wt, s, ws = _de_axes(h)
        if len(t) > points:
            raise ResolutionError(
                f"oracle refinements disagree: {values[-2]!r} vs {values[-1]!r}"
                f" (tolerance {rtol:g}; the next level needs over {points} nodes)"
            )
        rows = max(1, tensor_quad._BLOCK_VALUES // len(t))
        total = 0.0
        for lo in range(0, len(s), rows):
            us, wb = u * s[lo:lo + rows], ws[lo:lo + rows]
            # t < 1/2 <= 1 - t, so x < y survives the rounding of u s t
            x, y = np.outer(us, t), np.outer(us, r)
            keep = (x >= _TINY) & (np.outer(wb, wt) > 0)
            x, y = x[keep], y[keep]
            # a level that overflows raises below, without a numpy warning
            with np.errstate(over="ignore", invalid="ignore"):
                folded = eval_kernel(spec, x, y) + eval_kernel(spec, y, x)
                total += float(np.sum(np.outer(wb, wt)[keep] * folded))
        value = 0.5 * total
        if not math.isfinite(value):
            raise ResolutionError(f"oracle produced non-finite value {value}")
        if values and abs(value - values[-1]) <= rtol * max(1.0, abs(value)):
            return value
        values.append(value)
        h /= 2
