import dataclasses
import math

import pytest

from avgkernel.average import (
    AverageKernelResult,
    ResolutionError,
    _midpoint_average,
    average_kernel,
    population_average_oracle,
    pre_exponential_factor,
)
from avgkernel import tensor_quad
from avgkernel.extrapolate import full_report
from avgkernel.kernels import builtin_kernel, eval_kernel, parse_kernel
from avgkernel.rules import load_or_compute_rule
from avgkernel.tensor_quad import convergence_series, integrate_2d
from support import integrate_2d_full_grid, midpoint_average_full_grid

# closed forms precomputed with a 50-digit library: 2 + 6*gamma(5/3)*gamma(4/3)
# halved, and 2 + 2*gamma(4/3)*gamma(2/3) halved
P_EXACT_SC = 3.418399152312290
P_EXACT_CR = 2.209199576156145


def test_constant_kernel_averages_to_one(cache_dir):
    spec = parse_kernel("q=0; 2")
    result = pre_exponential_factor(spec, 25, cache_dir)
    assert result.p == pytest.approx(1.0, abs=1e-12)
    assert result.q == 0.0
    assert result.remainder is None
    assert result.remainder_value == 0.0
    assert result.kernel_id == "q=0; 2"


def test_factor_is_half_the_report(cache_dir):
    spec = builtin_kernel("SC")
    result = pre_exponential_factor(spec, 25, cache_dir)
    series = convergence_series(
        lambda x, y: eval_kernel(spec, x, y), 25, cache_dir, spec.label
    )
    report = full_report(series)
    assert result.p == 0.5 * report.final_value
    assert result.remainder.remainder == 0.5 * report.estimate.remainder
    assert result.remainder.anchor_error == 0.5 * report.estimate.anchor_error
    assert result.remainder.slope == report.estimate.slope


def test_factor_respects_fit_window(cache_dir):
    spec = builtin_kernel("CR")
    a = pre_exponential_factor(spec, 30, cache_dir)
    b = pre_exponential_factor(spec, 30, cache_dir, fit_window=(5, 20))
    assert a.remainder.fit_window == (15, 29)
    assert b.remainder.fit_window == (5, 20)
    assert a.p == b.p  # the window changes only the remainder fit


def test_factor_validates_inputs(cache_dir):
    with pytest.raises(ValueError):
        pre_exponential_factor(builtin_kernel("SC"), 19, cache_dir)
    spec = dataclasses.replace(builtin_kernel("SC"), degree_q=None)
    with pytest.raises(ValueError):
        pre_exponential_factor(spec, 25, cache_dir)


def test_kernels_share_one_load_per_order(tmp_path, monkeypatch):
    loads = []
    load = tensor_quad.load_or_compute_rule

    def counted(k, cache_dir):
        loads.append(k)
        return load(k, cache_dir)

    monkeypatch.setattr(tensor_quad, "load_or_compute_rule", counted)
    # rules stay loaded for the process; forget those of earlier tests
    tensor_quad._shared_rule.cache_clear()
    for cache_dir in (str(tmp_path), ""):
        loads.clear()
        for kernel_id in ("FM", "CR", "SC", "SD"):
            pre_exponential_factor(builtin_kernel(kernel_id), 25, cache_dir)
        assert loads == list(range(1, 26)), cache_dir


def test_average_kernel_power_law():
    result = AverageKernelResult(p=2.0, q=4.0 / 3.0, remainder=None, kernel_id="t")
    assert average_kernel(result, 1.0) == 2.0
    ratio = average_kernel(result, 2.0) / average_kernel(result, 1.0)
    assert ratio == pytest.approx(2.0 ** (4.0 / 3.0), rel=1e-15)
    assert average_kernel(result, 0.5) == pytest.approx(2.0 * 0.5 ** (4.0 / 3.0), rel=1e-15)


def test_average_kernel_rejects_bad_u():
    result = AverageKernelResult(p=1.0, q=1.0, remainder=None, kernel_id="t")
    with pytest.raises(ValueError):
        average_kernel(result, 0.0)
    with pytest.raises(ValueError):
        average_kernel(result, -2.0)


@pytest.mark.parametrize("kernel", [
    "FM", "CR", "SC", "SD",
    "(x^(-1/3)+y^(-1/3))*(x^(2/3)+y^(2/3))",
    "(x^(1/6)+y^(1/6))*(x^(1/3)+y^(1/3))",
])
def test_column_and_row_evaluation_matches_full_grid_bitwise(kernel, cache_dir):
    # the kernel gets a node column and row, not two full grids; every
    # element and the summation order are unchanged, so the sums are equal
    spec = builtin_kernel(kernel) if kernel.isalpha() else parse_kernel(kernel)

    def f(x, y):
        return eval_kernel(spec, x, y)

    for k in (1, 2, 37, 120, 361):
        rule = load_or_compute_rule(k, cache_dir)
        assert integrate_2d(rule, f) == integrate_2d_full_grid(rule, f)
    # 1200 points span three 512-row blocks
    for u, n_points in ((0.5, 256), (2.0, 256), (1.0, 1200)):
        got = _midpoint_average(spec, u, n_points)
        assert got == midpoint_average_full_grid(spec, u, n_points)


def test_midpoint_average_of_constant_kernel():
    # a constant kernel returns a scalar, which is broadcast to the block
    spec = parse_kernel("q=0; 2")
    got = _midpoint_average(spec, 1.0, 256)
    assert math.isfinite(got)
    assert got == midpoint_average_full_grid(spec, 1.0, 256)


def test_oracle_constant_kernel():
    spec = parse_kernel("q=0; 2")
    for u in (0.5, 1.0, 2.0):
        assert population_average_oracle(spec, u) == pytest.approx(1.0, abs=1e-6)


def test_oracle_matches_closed_forms():
    sc = builtin_kernel("SC")
    for u in (0.5, 1.0, 2.0):
        got = population_average_oracle(sc, u)
        assert got == pytest.approx(P_EXACT_SC * u, rel=1e-6)
    cr = builtin_kernel("CR")
    assert population_average_oracle(cr, 1.0) == pytest.approx(P_EXACT_CR, rel=1e-5)


def test_oracle_linear_kernel_analytic():
    # beta = v + v1 has p = 1 and q = 1, so the average is exactly u
    spec = parse_kernel("x + y")
    assert population_average_oracle(spec, 3.0) == pytest.approx(3.0, rel=1e-6)


def test_oracle_resolution_error():
    with pytest.raises(ResolutionError):
        population_average_oracle(builtin_kernel("CR"), 1.0, points=256, rtol=1e-14)


def test_oracle_validates_inputs():
    spec = builtin_kernel("SC")
    with pytest.raises(ValueError):
        population_average_oracle(spec, 0.0)
    with pytest.raises(ValueError):
        population_average_oracle(spec, 1.0, points=32)


def test_average_agrees_with_oracle_at_moderate_order(cache_dir):
    # the halved-quadrature result and the oracle must agree within the
    # oracle tolerance plus twice the remainder estimate
    spec = builtin_kernel("CR")
    result = pre_exponential_factor(spec, 100, cache_dir)
    for u in (0.5, 1.0, 2.0):
        oracle = population_average_oracle(spec, u)
        got = average_kernel(result, u)
        tol = max(1e-5 * max(1.0, abs(oracle)), 2.0 * result.remainder_value * u**result.q)
        assert abs(got - oracle) <= tol


def test_remainder_value_none_when_estimate_missing():
    import avgkernel.extrapolate as ex

    est = ex.RemainderEstimate(10, 1e-3, -0.5, None, (5, 9))
    result = AverageKernelResult(p=1.0, q=0.0, remainder=est, kernel_id="t")
    assert result.remainder_value is None
