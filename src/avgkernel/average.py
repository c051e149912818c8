"""Pre-exponential factor p, the average kernel p*u^q, and an independent
population-average oracle.

p is half the Gauss-Laguerre double integral of the kernel.  The oracle
recomputes the same average from its defining volume integral with a
truncated composite midpoint rule, a deliberately different quadrature
family, so agreement between the two is evidence rather than tautology.
Both evaluate the kernel on a node column and a node row: per-node work in
the kernel runs once per node, and numpy broadcasting forms the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .extrapolate import RemainderEstimate, full_report
from .kernels import KernelSpec, eval_kernel
from .tensor_quad import convergence_series


class ResolutionError(RuntimeError):
    """Successive oracle grid refinements disagree beyond tolerance."""


@dataclass(frozen=True)
class AverageKernelResult:
    """p and q such that the average kernel is p*u^q.

    remainder describes the halved integral (same scale as p); it is None
    when the series converged exactly (remainder 0).
    """

    p: float
    q: float
    remainder: RemainderEstimate | None
    kernel_id: str

    @property
    def remainder_value(self) -> float | None:
        """0 when exact, None when no finite estimate exists."""
        if self.remainder is None:
            return 0.0
        return self.remainder.remainder


def pre_exponential_factor(spec: KernelSpec, k_max: int, cache_dir=None,
                           fit_window=None) -> AverageKernelResult:
    """Run the convergence series for the kernel and halve the result."""
    if spec.degree_q is None:
        raise ValueError("kernel has no homogeneity degree set")
    if k_max < 20:
        raise ValueError("k_max must be >= 20")

    def integrand(x, y):
        return eval_kernel(spec, x, y)

    series = convergence_series(integrand, k_max, cache_dir, spec.label)
    report = full_report(series, fit_window).scaled(0.5)
    return AverageKernelResult(
        p=report.final_value,
        q=spec.degree_q,
        remainder=report.estimate,
        kernel_id=spec.label,
    )


def average_kernel(result: AverageKernelResult, u: float) -> float:
    """beta_bar = p * u^q."""
    if u <= 0:
        raise ValueError("u must be > 0")
    return result.p * u ** result.q


def _midpoint_axis(u: float, n_points: int):
    """Cell midpoints and widths covering [1e-8 u, 60 u].

    Geometric cells up to u resolve integrable singularities at the origin;
    uniform cells cover the exponential tail beyond.
    """
    delta = 1e-8 * u
    top = 60.0 * u
    n_geo = n_points // 4
    n_uni = n_points - n_geo
    geo = delta * (u / delta) ** (np.arange(n_geo + 1) / n_geo)
    uni = u + (top - u) * np.arange(1, n_uni + 1) / n_uni
    edges = np.concatenate([geo, uni])
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    return mids, widths


def _midpoint_average(spec: KernelSpec, u: float, n_points: int) -> float:
    """Midpoint-rule average over 512-row blocks of the x-by-y grid.

    The kernel gets a column of up to 512 x midpoints and the row of all
    n_points+1 y midpoints, so its per-node leaves (cbrt, powers) run once
    per midpoint and each binary operation makes one 512 x (n_points+1)
    array.  A kernel that ignores x or y is broadcast to the full block.
    """
    mx, wx = _midpoint_axis(u, n_points)
    my, wy = _midpoint_axis(u, n_points + 1)  # offset keeps x != y exactly
    fx = wx * np.exp(-mx / u)
    fy = wy * np.exp(-my / u)
    total = 0.0
    for lo in range(0, len(mx), 512):
        hi = min(lo + 512, len(mx))
        shape = (hi - lo, len(my))
        block = np.asarray(eval_kernel(spec, mx[lo:hi, None], my[None, :]),
                           dtype=float)
        if block.shape != shape:
            block = np.broadcast_to(block, shape)
        total += float(fx[lo:hi] @ block @ fy)
    return total / (2.0 * u * u)


def population_average_oracle(spec: KernelSpec, u: float, points: int = 4000,
                              rtol: float = 1e-5) -> float:
    """Quadrature-independent estimate of the average kernel at u.

    Three grid resolutions (points/2, points, 2*points per axis) feed two
    Richardson pairs; their disagreement is the resolution check.
    """
    if u <= 0:
        raise ValueError("u must be > 0")
    if points < 64:
        raise ValueError("points must be >= 64")
    coarse = _midpoint_average(spec, u, points // 2)
    mid = _midpoint_average(spec, u, points)
    fine = _midpoint_average(spec, u, 2 * points)
    first = mid + (mid - coarse) / 3.0
    second = fine + (fine - mid) / 3.0
    if not math.isfinite(second):
        raise ResolutionError(f"oracle produced non-finite value {second}")
    if abs(second - first) > rtol * max(1.0, abs(second)):
        raise ResolutionError(
            f"oracle refinements disagree: {first!r} vs {second!r}"
            f" (tolerance {rtol:g})"
        )
    return second
