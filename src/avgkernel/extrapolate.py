"""Error sequence, log-log slope fit, and extrapolated tail remainder.

Successive-order differences eps_n = |Q_{n+1} - Q_n|, taken at a few orders
n of the fit window, are treated as samples of a power law
eps_x = eps_n (x/n)^C.  Integrating that law over [n+1, inf) gives the
remainder R = -eps_n ((n+1)/n)^C (n+1)/(C+1), which only converges for
C < -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


# The fewest series orders a remainder fit takes.
FIT_ORDERS = 20
# The orders n of the fit window whose eps_n the slope fit reads; with
# n + 1 and the anchor's two orders, at most 2 * FIT_SAMPLES + 2 orders.
FIT_SAMPLES = 8


class DegenerateFitError(ArithmeticError):
    """Fewer than two positive errors among the fit points."""


@dataclass(frozen=True)
class Fit:
    """The remainder fit of a series ending at Q_k, on the scale of Q.

    status is one of
    - "short": fewer than FIT_ORDERS orders, or an order the fit reads is
      missing, so no fit; every other field is None;
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


def fit_slope(points) -> float:
    """Least-squares slope of ln eps_n against ln n over the points (n, eps_n),
    correctly rounded.  Zero entries are skipped (their log is undefined);
    fewer than two left is a degenerate fit.  Each log times 2^1074 is an
    exact int, so the sums below are exact and their one int/int division
    rounds the slope correctly: plain Python ints, no numpy or LAPACK call.
    """
    pts = [(_scaled(math.log(n)), _scaled(math.log(e))) for n, e in points if e > 0.0]
    if len(pts) < 2:
        raise DegenerateFitError(f"fit points with a positive error: {len(pts)}, need 2")
    m, sx, sy = len(pts), sum(x for x, _ in pts), sum(y for _, y in pts)
    sxy, sxx = sum(x * y for x, y in pts), sum(x * x for x, _ in pts)
    return (m * sxy - sx * sy) / (m * sxx - sx * sx)


def _scaled(v: float) -> int:
    """v * 2^1074, exactly: every finite float is an integer multiple of 2^-1074."""
    num, den = v.as_integer_ratio()
    return (num << 1074) // den


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


def _samples(window) -> list[int]:
    """The orders n of the window whose eps_n the fit reads: FIT_SAMPLES
    orders evenly spaced in ln n from a to b, rounded, without repeats."""
    a, b = window
    last = FIT_SAMPLES - 1
    return sorted({round(a * (b / a) ** (j / last)) for j in range(FIT_SAMPLES)})


def fit_orders(k_max: int, window=None) -> list[int]:
    """The orders of a series 1..k_max that its remainder fit reads,
    ascending: n and n+1 for each sampled n of the fit window, and k_max-1
    and k_max, whose difference anchors the tail."""
    pairs = {m for n in _samples(fit_window(k_max, window)) for m in (n, n + 1)}
    return sorted(pairs | {k_max - 1, k_max})


def full_report(orders, values, window=None) -> Fit:
    """The fit of the series Q_n at orders, ascending, Q_k last: fit_slope
    over (n, eps_n) at the sampled n of the window, and remainder_estimate
    anchored at eps_{k-1}, eps_n = |Q_{n+1} - Q_n|.  A series shorter than
    FIT_ORDERS, or one lacking an order of fit_orders, gets no fit.

    Differences at the rounding level of the series values count as zero:
    a converged integrand (constant, or exactly integrated polynomial)
    produces eps at roundoff scale, not exact zeros, and fitting that noise
    would be meaningless.  The floor is 1e-10 relative to the largest |Q|
    the fit reads, well above that rounding (the weights are good to about
    1e-12 at order 361).  It decides whether a series is reported exact or
    estimated, so moving it could change the printed status.
    """
    k = orders[-1]
    if k < FIT_ORDERS:
        return Fit("short", None, None, None, None)
    window = fit_window(k, window)
    q = dict(zip(orders, values))
    read = fit_orders(k, window)
    if not all(n in q for n in read):
        return Fit("short", None, None, None, None)
    floor = 1e-10 * max(abs(q[n]) for n in read)

    def eps(n: int) -> float:
        e = abs(q[n + 1] - q[n])
        return e if e > floor else 0.0

    points = [(n, eps(n)) for n in _samples(window)]
    anchor = eps(k - 1)
    if sum(e == 0.0 for _, e in points) > len(points) / 2 or anchor == 0.0:
        return Fit("exact", window, None, None, 0.0)
    slope = fit_slope(points)
    remainder = remainder_estimate(anchor, slope, k - 1)
    return Fit("divergent" if remainder is None else "estimated",
               window, anchor, slope, remainder)
