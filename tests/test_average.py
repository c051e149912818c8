import dataclasses
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgkernel.average import (
    ORACLE_RTOL,
    AverageKernelResult,
    ResolutionError,
    ScaleError,
    at_u,
    population_average_oracle,
    pre_exponential_factor,
)
from avgkernel import average, tensor_quad
from avgkernel.extrapolate import Fit, fit_slope, full_report
from avgkernel.kernels import builtin_kernel, eval_kernel, parse_kernel
from avgkernel.rules import load_or_compute_rule
from avgkernel.tensor_quad import integrate_2d, load_rules
from support import integrate_2d_full_grid, random_mixture, reduced_q

# closed forms precomputed with a 50-digit library: 2 + 6*gamma(5/3)*gamma(4/3)
# halved, and 2 + 2*gamma(4/3)*gamma(2/3) halved
P_EXACT_SC = 3.418399152312290
P_EXACT_CR = 2.209199576156145
REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


def result_with(p, q, fit=Fit("exact", (10, 19), None, None, 0.0)):
    """A pipeline record for p and q; its fit is exact unless one is given."""
    return AverageKernelResult("t", q, [2.0 * p], fit)


def test_constant_kernel_averages_to_one(cache_dir):
    spec = parse_kernel("q=0; 2")
    result = pre_exponential_factor(spec, load_rules(range(1, 26), cache_dir))
    assert result.p == pytest.approx(1.0, abs=1e-12)
    assert result.q == 0.0
    assert result.fit.status == "exact"
    assert result.remainder_value == 0.0
    assert result.kernel_id == "q=0; 2"


def test_factor_is_half_the_report(cache_dir):
    spec = builtin_kernel("SC")
    rules = load_rules(range(1, 26), cache_dir)
    result = pre_exponential_factor(spec, rules)
    values = [integrate_2d(rule, lambda x, y: eval_kernel(spec, x, y)) for rule in rules]
    fit = full_report(range(1, 26), values)
    assert result.values == values
    assert result.fit == fit
    assert result.p == 0.5 * values[-1]
    assert result.remainder_value == 0.5 * fit.remainder


def test_factor_respects_fit_window(cache_dir):
    spec = builtin_kernel("CR")
    rules = load_rules(range(1, 31), cache_dir)
    a = pre_exponential_factor(spec, rules)
    b = pre_exponential_factor(spec, rules, fit_window=(5, 20))
    errors = [abs(q1 - q0) for q0, q1 in zip(a.values, a.values[1:])]
    assert (a.fit.window, b.fit.window) == ((15, 29), (5, 20))
    # eps_n at 8 orders evenly spaced in ln n over each window, rounded
    assert a.fit.slope == fit_slope((n, errors[n - 1]) for n in (15, 16, 18, 20, 22, 24, 26, 29))
    assert b.fit.slope == fit_slope((n, errors[n - 1]) for n in (5, 6, 7, 9, 11, 13, 16, 20))
    assert a.fit.slope != b.fit.slope
    assert a.p == b.p  # the window changes only the remainder fit


def test_factor_validates_inputs(cache_dir):
    # a series too short for a fit gets none: p is Q_19 / 2, R unknown
    short = pre_exponential_factor(builtin_kernel("SC"), load_rules(range(1, 20), cache_dir))
    assert short.fit == Fit("short", None, None, None, None)
    assert short.p == short.values[18] / 2
    assert short.remainder_value is None
    spec = dataclasses.replace(builtin_kernel("SC"), degree_q=None)
    with pytest.raises(ValueError):
        pre_exponential_factor(spec, load_rules(range(1, 26), cache_dir))


# beta = x^a y^b + x^b y^a has Q = 2 Gamma(a+1) Gamma(b+1); a is a_min, the
# smallest non-integer exponent of x at the origin
CLOSED_FORM_FAMILY = [(-0.8, 1), (-0.5, 1), (-1 / 3, 2), (1 / 3, 2), (0.5, 2), (1.5, 2)]


@pytest.fixture(scope="module")
def rules_120(cache_dir):
    return load_rules(range(1, 121), cache_dir)


@pytest.mark.parametrize("a, b", CLOSED_FORM_FAMILY)
def test_error_estimate_on_the_closed_form_family(a, b, rules_120):
    # the paper's estimate at k = 120: R within 10% of the true error
    # (measured 0.991-1.058), C within 0.05 of -(2 + a_min) (measured
    # 0.014), and the last difference carries the sign of the error
    spec = parse_kernel(f"q={a + b!r}; x^({a!r})*y^{b} + x^{b}*y^({a!r})")
    result = pre_exponential_factor(spec, rules_120)
    exact = 2.0 * math.gamma(a + 1.0) * math.gamma(b + 1.0)
    q_119, q_120 = result.values[-2:]
    assert result.fit.status == "estimated"
    assert 0.9 <= result.fit.remainder / abs(exact - q_120) <= 1.1
    assert abs(result.fit.slope + 2.0 + a) <= 0.05
    assert math.copysign(1.0, exact - q_120) == math.copysign(1.0, q_120 - q_119)


def test_average_kernel_power_law():
    result = result_with(2.0, 4.0 / 3.0)
    assert at_u(result, 1.0)[0] == 2.0
    ratio = at_u(result, 2.0)[0] / at_u(result, 1.0)[0]
    assert ratio == pytest.approx(2.0 ** (4.0 / 3.0), rel=1e-15)
    assert at_u(result, 0.5)[0] == pytest.approx(2.0 * 0.5 ** (4.0 / 3.0), rel=1e-15)


def test_average_kernel_rejects_bad_u():
    result = result_with(1.0, 1.0)
    with pytest.raises(ValueError):
        at_u(result, 0.0)
    with pytest.raises(ValueError):
        at_u(result, -2.0)


def test_at_u_scales_p_and_remainder_by_one_power():
    result = result_with(2.0, 4.0 / 3.0, Fit("estimated", (10, 19), 1e-3, -3.0, 0.25))
    scale = 2.0 ** (4.0 / 3.0)
    assert at_u(result, 2.0) == (2.0 * scale, 0.25 * scale)
    divergent = Fit("divergent", (10, 19), 1e-3, -0.5, None)
    assert at_u(result_with(2.0, 1.0, divergent), 2.0) == (4.0, None)


@pytest.mark.parametrize("p, q, remainder", [
    (1.0, 2000.0, 0.0),  # u^q overflows: float ** raises OverflowError
    (1e300, 40.0, 0.0),  # u^q is finite, p*u^q is not
    (1.0, 40.0, 1e300),  # p*u^q is finite, R*u^q is not
    (0.0, 2000.0, 0.0),  # 0 * inf
])
def test_at_u_raises_scale_error_naming_u_and_q(p, q, remainder):
    result = result_with(p, q, Fit("estimated", (10, 19), 1e-3, -3.0, remainder))
    with pytest.raises(ScaleError, match=f"at u = 2, q = {q!r}$") as info:
        at_u(result, 2.0)
    assert isinstance(info.value, ArithmeticError)
    at_u(result, 0.5)  # the same result is finite where u^q shrinks it


@pytest.mark.parametrize("kernel", [
    "FM", "CR", "SC", "SD",
    "(x^(-1/3)+y^(-1/3))*(x^(2/3)+y^(2/3))",
    "(x^(1/6)+y^(1/6))*(x^(1/3)+y^(1/3))",
])
def test_column_and_row_evaluation_matches_full_grid_bitwise(kernel, cache_dir):
    # the kernel gets a block of the node column and the node row, not two
    # full grids; every element and each row's summation order are
    # unchanged, so the sums are equal.  Orders from 257 on take several
    # blocks of rows, the last one short
    spec = builtin_kernel(kernel) if kernel.isalpha() else parse_kernel(kernel)

    def f(x, y):
        return eval_kernel(spec, x, y)

    for k in (1, 2, 37, 120, 257, 361, 1024, 1447, 2000):
        rule = load_or_compute_rule(k, cache_dir)
        assert integrate_2d(rule, f) == integrate_2d_full_grid(rule, f)


def test_oracle_broadcasts_constant_kernel():
    # the constant "2" and "2 + 0*x" give the oracle the same values at the
    # same nodes, so they sum to the same value
    got = population_average_oracle(parse_kernel("q=0; 2"), 1.0)
    assert math.isfinite(got)
    assert got == population_average_oracle(parse_kernel("q=0; 2 + 0*x"), 1.0)


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


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(a=st.floats(-0.9, 2.0), b=st.floats(-0.9, 2.0))
def test_oracle_matches_closed_form_family(a, b):
    # the average of x^a y^b + x^b y^a is u^(a+b) Gamma(a+1) Gamma(b+1)
    spec = parse_kernel(f"q={a + b!r}; x^({a!r})*y^({b!r}) + x^({b!r})*y^({a!r})")
    for u in (0.5, 1.0, 2.0):
        exact = u ** (a + b) * math.gamma(a + 1.0) * math.gamma(b + 1.0)
        got = population_average_oracle(spec, u, rtol=1e-10)
        assert got == pytest.approx(exact, rel=1e-13, abs=0.0)


def test_oracle_resolution_error():
    with pytest.raises(ResolutionError):
        population_average_oracle(builtin_kernel("CR"), 1.0, points=256, rtol=1e-14)


def test_oracle_validates_inputs():
    spec = builtin_kernel("SC")
    with pytest.raises(ValueError):
        population_average_oracle(spec, 0.0)
    with pytest.raises(ValueError):
        population_average_oracle(spec, 1.0, points=32)


def _family_kernel(a, b):
    return f"(x^({a})+y^({a}))*(x^({b})+y^({b}))"


def _family_p(a, b):
    a, b = float(Fraction(a)), float(Fraction(b))
    return math.gamma(a + b + 1.0) + math.gamma(a + 1.0) * math.gamma(b + 1.0)


# (kernel, p, q): the check-expr family (x^a+y^a)(x^b+y^b) has
# p = Gamma(a+b+1) + Gamma(a+1) Gamma(b+1)
CLOSED_FORMS = [
    ("SC", P_EXACT_SC, 1.0),
    ("CR", P_EXACT_CR, 0.0),
    ("q=0; 2", 1.0, 0.0),
    ("x + y", 1.0, 1.0),
] + [
    (_family_kernel(a, b), _family_p(a, b), float(Fraction(a) + Fraction(b)))
    for a in ("-1/3", "-1/6", "1/6", "1/3") for b in ("1/3", "2/3")
]


@pytest.mark.parametrize("kernel, p, q", CLOSED_FORMS, ids=[c[0] for c in CLOSED_FORMS])
def test_oracle_resolves_closed_forms_to_rounding(kernel, p, q):
    spec = builtin_kernel(kernel) if kernel.isalpha() else parse_kernel(kernel)
    for u in (0.5, 1.0, 2.0):
        got = population_average_oracle(spec, u)
        assert got == pytest.approx(p * u**q, rel=1e-12), u


@pytest.mark.parametrize("kernel", ["FM", "SD"])
def test_oracle_matches_extended_precision_reduction(kernel):
    # for beta homogeneous of degree q, p = Gamma(q+2)/2 int_0^1 beta(t, 1-t) dt
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        def beta(t):
            a, b = mp.cbrt(t), mp.cbrt(1 - t)
            if kernel == "FM":
                return mp.sqrt(1 / t + 1 / (1 - t)) * (a + b) ** 2
            return (a + b) ** 3 * abs(a - b)

        q = mp.mpf(1) / 6 if kernel == "FM" else mp.mpf(4) / 3
        p = float(mp.gamma(q + 2) * mp.quad(beta, [0, 0.5, 1]) / 2)
    spec = builtin_kernel(kernel)
    for u in (0.5, 1.0, 2.0):
        got = population_average_oracle(spec, u)
        assert got == pytest.approx(p * u**spec.degree_q, rel=1e-12), u


def test_reduction_matches_frozen_references():
    # FM and SD against the 30-digit mpmath values of references.json, SC
    # and CR against their closed forms
    q_1d = json.loads(REFERENCES.read_text(encoding="utf-8"))["q_1d"]
    for kid, q, rtol in (("FM", float(q_1d["FM"]), 4e-16), ("SD", float(q_1d["SD"]), 4e-16),
                         ("SC", 2.0 * P_EXACT_SC, 5e-16), ("CR", 2.0 * P_EXACT_CR, 5e-16)):
        assert abs(reduced_q(builtin_kernel(kid)) - q) <= rtol * q, kid


def test_reduction_needs_its_step():
    # at h = 1/4 the t axis is too coarse: FM moves by about 5.5e-13
    fm = float(json.loads(REFERENCES.read_text(encoding="utf-8"))["q_1d"]["FM"])
    assert abs(reduced_q(builtin_kernel("FM"), h=0.25) - fm) > 1e-13 * fm


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1))
def test_reduction_matches_random_mixtures(seed):
    # the estimator study's kernels, whose Q is known in closed form; 300
    # draws of Random(3) stay within 1.4e-15
    kernel, exact = random_mixture(random.Random(seed))
    assert abs(reduced_q(parse_kernel(kernel)) - exact) <= 4e-15 * exact, kernel


@pytest.mark.parametrize("kernel, p, q, rtol, rel", [
    # t^(-2/3) at the t = 0 end of the folded t range
    ("(x^(-2/3)+y^(-2/3))*(x^(1/3)+y^(1/3))",
     math.gamma(2 / 3) + math.gamma(1 / 3) * math.gamma(4 / 3), -1 / 3, 1e-10, 1e-10),
    # q = 4 puts weight s^5 e^-s far out in the s tail
    ("(x^2+y^2)*(x^2+y^2)", 28.0, 4.0, 1e-10, 1e-10),
    # infinite at x == y, the t = 1/2 end: a node there gives a non-finite sum
    ("q=-0.5; abs(x-y)^(-1/2)", math.gamma(1.5), -0.5, 1e-5, 1e-6),
    # asymmetric, with a kink at x = 2y inside the t range
    ("q=1; abs(x-2*y)", 5 / 6, 1.0, 1e-5, 1e-5),
])
def test_oracle_endpoints_and_tails(kernel, p, q, rtol, rel):
    spec = parse_kernel(kernel)
    for u in (0.5, 1.0, 2.0):
        got = population_average_oracle(spec, u, rtol=rtol)
        assert got == pytest.approx(p * u**q, rel=rel), u


def test_oracle_nodes_keep_x_below_y():
    # the oracle never evaluates the kernel at x == y (a kink or a pole for
    # many kernels): x = u s t stays below y = u s (1 - t) after rounding
    for h in (0.5, 0.125, 1 / 32):
        t, r, _, s, _ = average._de_axes(h)
        assert np.all(t < r)
        for u in (0.5, 1.0, 2.0, 3.0, 0.3, 1.7, 7.9):
            assert np.all(np.outer(u * s, t) < np.outer(u * s, r)), (h, u)


def test_oracle_evaluates_the_kernel_at_few_points(monkeypatch):
    # guards against a return to grids of order 1e7 points per call
    counts = []
    evaluate = average.eval_kernel

    def counted(spec, x, y):
        counts.append(np.broadcast(x, y).size)
        return evaluate(spec, x, y)

    monkeypatch.setattr(average, "eval_kernel", counted)
    for kernel_id in ("FM", "CR", "SC", "SD"):
        for u in (0.5, 1.0, 2.0):
            counts.clear()
            population_average_oracle(builtin_kernel(kernel_id), u)
            assert 0 < sum(counts) < 200_000, (kernel_id, u, sum(counts))


@pytest.mark.parametrize("block_points", [100, 1000])
@pytest.mark.parametrize("kernel", ["FM", "SD"])
def test_oracle_blocks_agree_with_one_block(kernel, block_points, monkeypatch):
    # a builtin's levels fit in one block at the shared default budget;
    # split into blocks of whole s rows (one row each at 100 points), the
    # level sums in another order but to the same value
    spec = builtin_kernel(kernel)
    whole = [population_average_oracle(spec, u) for u in (0.5, 2.0)]
    monkeypatch.setattr(tensor_quad, "_BLOCK_VALUES", block_points)
    for u, one_block in zip((0.5, 2.0), whole):
        assert population_average_oracle(spec, u) == pytest.approx(one_block, rel=1e-14)


def test_oracle_evaluates_in_bounded_blocks(monkeypatch):
    # a kink inside the t range drives the oracle to levels of millions of
    # points; none reaches the kernel in one piece
    sizes = []
    evaluate = average.eval_kernel

    def counted(spec, x, y):
        sizes.append(np.broadcast(x, y).size)
        return evaluate(spec, x, y)

    monkeypatch.setattr(average, "eval_kernel", counted)
    population_average_oracle(parse_kernel("q=1; abs(x-2*y)"), 1.0)
    assert sum(sizes) > 10 * tensor_quad._BLOCK_VALUES
    assert max(sizes) <= tensor_quad._BLOCK_VALUES


def test_average_agrees_with_oracle_at_moderate_order(cache_dir):
    # the halved-quadrature result and the oracle must agree by check's
    # rule: within the larger of the oracle tolerance and R*u^q
    spec = builtin_kernel("CR")
    result = pre_exponential_factor(spec, load_rules(range(1, 101), cache_dir))
    for u in (0.5, 1.0, 2.0):
        oracle = population_average_oracle(spec, u)
        got = at_u(result, u)[0]
        tol = max(ORACLE_RTOL * max(1.0, abs(oracle)), result.fit.remainder * u**result.q)
        assert abs(got - oracle) <= tol


def test_remainder_value_none_when_estimate_missing():
    fit = Fit("divergent", (10, 19), 1e-3, -0.5, None)
    assert result_with(1.0, 0.0, fit).remainder_value is None
