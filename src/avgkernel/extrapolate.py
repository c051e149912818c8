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


def error_sequence(values: list[float]) -> list[float]:
    """|Q_{n+1} - Q_n| of successive values of a series."""
    if len(values) < 2:
        raise ValueError("need at least 2 series entries")
    return [abs(b - a) for a, b in zip(values, values[1:])]


def fit_slope(points) -> float:
    """Least-squares slope of ln eps_n against ln n over the points (n, eps_n).

    Zero entries are skipped (their log is undefined); fewer than two
    remaining points is a degenerate fit.  The slope is the closed form
    sum(dn de) / sum(dn^2), dn and de the logs centred on their math.fsum
    means, with each sum of products rounded once by _dot.  On power-law
    points that is within about one ulp of the exact least-squares slope
    of these logs; only where the slope is near zero against the scatter
    of the points does the rounding of the centring show, amplified.
    Plain Python floats: no numpy, and no LAPACK call.
    """
    pts = [(math.log(n), math.log(e)) for n, e in points if e > 0.0]
    if len(pts) < 2:
        raise DegenerateFitError(f"fit points with a positive error: {len(pts)}, need 2")
    mean_n = math.fsum(x for x, _ in pts) / len(pts)
    mean_e = math.fsum(y for _, y in pts) / len(pts)
    dn = [x - mean_n for x, _ in pts]
    de = [y - mean_e for _, y in pts]
    return _dot(dn, de) / _dot(dn, dn)


def _dot(u: list[float], v: list[float]) -> float:
    """sum(u_i v_i), rounded once.  Each product is taken as the four
    products of its factors' 26-bit halves, which a float holds exactly
    (Dekker 1971), and math.fsum adds them without intermediate rounding."""
    terms = []
    for a, b in zip(u, v):
        ah, al = _halves(a)
        bh, bl = _halves(b)
        terms += (ah * bh, ah * bl, al * bh, al * bl)
    return math.fsum(terms)


def _halves(v: float) -> tuple[float, float]:
    """v as hi + lo, each of at most 26 significant bits (Veltkamp's split)."""
    c = 134217729.0 * v  # 2^27 + 1
    hi = c - (c - v)
    return hi, v - hi


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
