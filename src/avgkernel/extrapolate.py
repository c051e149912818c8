"""Error sequence, log-log slope fit, and extrapolated tail remainder.

Successive-order differences eps_n = |Q_{n+1} - Q_n| are treated as samples
of a power law eps_x = eps_n (x/n)^C.  Integrating that law over [n+1, inf)
gives the remainder R = -eps_n ((n+1)/n)^C (n+1)/(C+1), which only converges
for C < -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor_quad import ConvergenceSeries


# The fewest series orders a remainder fit takes.
FIT_ORDERS = 20


class DivergentTailError(ArithmeticError):
    """Slope C >= -1: the tail integral does not converge, no estimate."""


class DegenerateFitError(ArithmeticError):
    """Fewer than two positive error entries in the fit window."""


@dataclass(frozen=True)
class RemainderEstimate:
    """Fitted slope and extrapolated tail for one convergence series.

    remainder is None exactly when slope >= -1 (no finite estimate); the
    caller must report that state, never substitute 0.
    """

    anchor_error: float
    slope: float
    remainder: float | None


@dataclass(frozen=True)
class ConvergenceReport:
    """Final series value plus its remainder estimate.

    exact is True when the tail differences vanished (more than half the
    fit window is exactly zero); the remainder is then 0 and estimate is
    None.
    """

    final_value: float
    estimate: RemainderEstimate | None
    exact: bool

    @property
    def remainder_value(self) -> float | None:
        """0 when converged exactly, None when no estimate exists."""
        if self.exact:
            return 0.0
        return self.estimate.remainder if self.estimate is not None else None


def error_sequence(series: ConvergenceSeries) -> list[tuple[int, float]]:
    """eps_n = |Q_{n+1} - Q_n| indexed by the lower order n."""
    values = series.values
    if len(values) < 2:
        raise ValueError("need at least 2 series entries")
    return [(n, abs(values[n] - values[n - 1])) for n in range(1, len(values))]


def fit_slope(errors, window) -> float:
    """Least-squares slope of ln eps against ln n over the window.

    Zero entries are skipped (their log is undefined); fewer than two
    remaining points is a degenerate fit.
    """
    a, b = window
    pts = [(n, e) for n, e in errors if a <= n <= b and e > 0.0]
    if len(pts) < 2:
        raise DegenerateFitError(
            f"window {a}:{b} holds {len(pts)} positive error entries, need 2"
        )
    ln_n = np.log([float(n) for n, _ in pts])
    ln_e = np.log([e for _, e in pts])
    slope, _ = np.polyfit(ln_n, ln_e, 1)
    return float(slope)


def remainder_estimate(eps_n: float, C: float, n: int) -> float:
    """Tail integral of the fitted power law past order n+1."""
    if eps_n <= 0.0:
        raise ValueError("eps_n must be > 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    if C >= -1.0:
        raise DivergentTailError(f"slope C = {C} >= -1, tail integral diverges")
    return -eps_n * ((n + 1.0) / n) ** C * (n + 1.0) / (C + 1.0)


def fit_window(k_max: int, window=None) -> tuple[int, int]:
    """The fit window of a series of orders 1..k_max: window, which must
    lie inside 1:k_max-1, or by default the last half of the error orders."""
    if window is None:
        return (math.ceil(k_max / 2), k_max - 1)
    a, b = window
    if not (1 <= a < b <= k_max - 1):
        raise ValueError(f"fit window {a}:{b} not inside 1:{k_max - 1}")
    return (a, b)


def full_report(series: ConvergenceSeries, window=None) -> ConvergenceReport:
    """error_sequence + fit_slope + remainder_estimate, anchored at the top order.

    Differences at the rounding level of the series values count as zero:
    a converged integrand (constant, or exactly integrated polynomial)
    produces eps at roundoff scale, not exact zeros, and fitting that noise
    would be meaningless.  The floor is 1e-10 relative to the series
    magnitude, well above that rounding (the weights are good to about
    1e-12 at order 361).  It decides whether a series is reported exact or
    estimated, so moving it could change the printed status.
    """
    if len(series.values) < FIT_ORDERS:
        raise ValueError(f"series too short for a report (need >= {FIT_ORDERS} orders)")
    k_max = series.orders[-1]
    window = fit_window(k_max, window)
    a, b = window
    floor = 1e-10 * max(abs(v) for v in series.values)
    errors = error_sequence(series)
    in_window = [e for n, e in errors if a <= n <= b]
    zeros = sum(1 for e in in_window if e <= floor)
    n_anchor, eps_anchor = errors[-1]
    if zeros > len(in_window) / 2 or eps_anchor <= floor:
        return ConvergenceReport(series.values[-1], None, exact=True)
    slope = fit_slope([(n, e) for n, e in errors if e > floor], window)
    r = None if slope >= -1.0 else remainder_estimate(eps_anchor, slope, n_anchor)
    est = RemainderEstimate(eps_anchor, slope, r)
    return ConvergenceReport(series.values[-1], est, exact=False)
