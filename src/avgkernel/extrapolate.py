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


# The fewest series orders a remainder fit takes.
FIT_ORDERS = 20


class DegenerateFitError(ArithmeticError):
    """Fewer than two positive error entries in the fit window."""


@dataclass(frozen=True)
class Fit:
    """The remainder fit of a series Q_1..Q_k, on the scale of Q.

    status is one of
    - "short": fewer than FIT_ORDERS orders, no fit; every other field is None;
    - "exact": the tail differences vanished; remainder 0.0, no anchor or slope;
    - "estimated": slope C < -1 and a finite remainder;
    - "divergent": slope C >= -1, remainder None, which the caller must
      report as such, never as 0.
    """

    status: str
    window: tuple[int, int] | None
    anchor_error: float | None
    slope: float | None
    remainder: float | None


def error_sequence(values: list[float]) -> list[float]:
    """eps_n = |Q_{n+1} - Q_n| of the series Q_1..Q_k, eps_n at index n-1."""
    if len(values) < 2:
        raise ValueError("need at least 2 series entries")
    return [abs(b - a) for a, b in zip(values, values[1:])]


def fit_slope(errors: list[float], window) -> float:
    """Least-squares slope of ln eps_n against ln n over the orders n of
    the window, with eps_n at index n-1 of errors.

    Zero entries are skipped (their log is undefined); fewer than two
    remaining points is a degenerate fit.
    """
    a, b = window
    pts = [(n, e) for n, e in enumerate(errors[a - 1:b], start=a) if e > 0.0]
    if len(pts) < 2:
        raise DegenerateFitError(
            f"window {a}:{b} holds {len(pts)} positive error entries, need 2"
        )
    ln_n = np.log([float(n) for n, _ in pts])
    ln_e = np.log([e for _, e in pts])
    slope, _ = np.polyfit(ln_n, ln_e, 1)
    return float(slope)


def remainder_estimate(eps_n: float, C: float, n: int) -> float | None:
    """Tail integral of the fitted power law past order n+1, or None for
    C >= -1, where the integral diverges."""
    if eps_n <= 0.0:
        raise ValueError("eps_n must be > 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    if C >= -1.0:
        return None
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


def full_report(values: list[float], window=None) -> Fit:
    """The fit of the series Q_1..Q_k: error_sequence + fit_slope +
    remainder_estimate, anchored at the top order.

    Differences at the rounding level of the series values count as zero:
    a converged integrand (constant, or exactly integrated polynomial)
    produces eps at roundoff scale, not exact zeros, and fitting that noise
    would be meaningless.  The floor is 1e-10 relative to the series
    magnitude, well above that rounding (the weights are good to about
    1e-12 at order 361).  It decides whether a series is reported exact or
    estimated, so moving it could change the printed status.
    """
    if len(values) < FIT_ORDERS:
        return Fit("short", None, None, None, None)
    window = fit_window(len(values), window)
    a, b = window
    floor = 1e-10 * max(abs(v) for v in values)
    errors = [e if e > floor else 0.0 for e in error_sequence(values)]
    anchor = errors[-1]
    if errors[a - 1:b].count(0.0) > (b - a + 1) / 2 or anchor == 0.0:
        return Fit("exact", window, None, None, 0.0)
    slope = fit_slope(errors, window)
    remainder = remainder_estimate(anchor, slope, len(errors))
    return Fit("divergent" if remainder is None else "estimated",
               window, anchor, slope, remainder)
