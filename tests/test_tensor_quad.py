import math
import tracemalloc

import numpy as np
import pytest

from avgkernel import average, tensor_quad
from avgkernel.average import pre_exponential_factor
from avgkernel.kernels import builtin_kernel, eval_kernel, parse_kernel
from avgkernel.rules import QuadratureRule, load_or_compute_rule
from avgkernel.tensor_quad import IntegrandError, integrate_2d, load_rules


def test_constant_1d(cache_dir):
    rule = load_or_compute_rule(10, cache_dir)
    assert rule.weights @ np.ones(10) == pytest.approx(1.0, abs=1e-14)


def test_monomials_1d(cache_dir):
    rule = load_or_compute_rule(15, cache_dir)
    for m in range(10):
        got = rule.weights @ rule.nodes**m
        assert got == pytest.approx(math.factorial(m), rel=1e-12)


def test_fractional_power_1d(cache_dir):
    # x^(1/3) is not polynomial, so convergence is slow and algebraic;
    # gamma(4/3) to about 1e-4 is all a 200-point rule delivers
    rule = load_or_compute_rule(200, cache_dir)
    got = rule.weights @ np.cbrt(rule.nodes)
    assert got == pytest.approx(0.8929795115692492, abs=2e-4)


def test_2d_monomials_factorize(cache_dir):
    rule = load_or_compute_rule(10, cache_dir)
    for a, b in ((0, 0), (1, 0), (2, 3), (4, 4), (5, 1)):
        got = integrate_2d(rule, lambda x, y, a=a, b=b: x**a * y**b)
        assert got == pytest.approx(math.factorial(a) * math.factorial(b), rel=1e-12)


def test_2d_separable_equals_product_of_1d(cache_dir):
    rule = load_or_compute_rule(12, cache_dir)
    two_d = integrate_2d(rule, lambda x, y: x * x / (1.0 + y))
    prod = (rule.weights @ rule.nodes**2) * (rule.weights @ (1.0 / (1.0 + rule.nodes)))
    assert two_d == pytest.approx(prod, rel=1e-13)


def test_2d_argument_swap_invariance(cache_dir):
    rule = load_or_compute_rule(12, cache_dir)
    f = lambda x, y: x * x / (1.0 + y)
    assert integrate_2d(rule, f) == pytest.approx(
        integrate_2d(rule, lambda x, y: f(y, x)), rel=1e-13
    )


def test_2d_scalar_fallback(cache_dir):
    # there is no scalar fallback: f gets node arrays, and a scalar-only f
    # fails loudly, with no silent per-point retry
    rule = load_or_compute_rule(6, cache_dir)
    with pytest.raises(TypeError):
        integrate_2d(rule, lambda x, y: math.exp(-x - y))


def test_scalar_fallback_matches_vectorized(cache_dir):
    # a caller with a scalar-only f wraps it in np.vectorize; the sum then
    # matches the array integrand bitwise
    rule = load_or_compute_rule(12, cache_dir)
    vec = integrate_2d(rule, lambda x, y: np.sqrt(x) + y)
    scal = integrate_2d(rule, np.vectorize(lambda x, y: math.sqrt(x) + y))
    assert scal == vec


def test_2d_integrands_that_ignore_an_argument(cache_dir):
    # integrands that return a scalar, a column or a row, not a full grid
    rule = load_or_compute_rule(9, cache_dir)
    total = float(np.sum(rule.weights))
    assert integrate_2d(rule, lambda x, y: 2.0) == pytest.approx(2.0 * total**2, rel=1e-14)
    mean = rule.weights @ rule.nodes
    assert integrate_2d(rule, lambda x, y: x) == pytest.approx(mean * total, rel=1e-14)
    assert integrate_2d(rule, lambda x, y: y) == pytest.approx(mean * total, rel=1e-14)


def test_integrand_error_2d_names_pair(cache_dir):
    rule = load_or_compute_rule(8, cache_dir)
    bx, by = rule.nodes[1], rule.nodes[4]

    def f(x, y):
        return np.where((x == bx) & (y == by), np.inf, 1.0)

    with pytest.raises(IntegrandError, match=r"^order 8: integrand is inf at node pair \(2, 5\)"):
        integrate_2d(rule, f)


def test_infinite_sum_of_finite_values_names_order():
    # every value is finite, but 4 * 1e308 overflows
    rule = QuadratureRule(2, np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    with np.errstate(over="ignore"), \
            pytest.raises(IntegrandError, match="^order 2: quadrature value is inf$"):
        integrate_2d(rule, lambda x, y: np.full((len(x), 2), 1e308))


def test_integrand_error_at_flushed_weight_names_pair(cache_dir):
    # the largest nodes of a high-order rule have weights that underflow to
    # 0; a non-finite value there is still an error, not a silent 0 * inf
    rule = load_or_compute_rule(361, cache_dir)
    i = int(np.flatnonzero(rule.weights == 0.0)[0])
    bx, by = rule.nodes[i], rule.nodes[2]

    def f(x, y):
        return np.where((x == bx) & (y == by), np.nan, 1.0)

    with pytest.raises(IntegrandError, match=rf"is nan at node pair \({i + 1}, 3\)"):
        integrate_2d(rule, f)


def test_integrand_error_in_a_later_block_names_the_global_pair(cache_dir):
    rule = load_or_compute_rule(1447, cache_dir)
    i = 3 * tensor_quad._block_rows(1447) + 5
    bx, by = rule.nodes[i], rule.nodes[700]

    def f(x, y):
        return np.where((x == bx) & (y == by), -np.inf, 1.0)

    with pytest.raises(IntegrandError, match=rf"is -inf at node pair \({i + 1}, 701\)"):
        integrate_2d(rule, f)


@pytest.mark.parametrize("k", [1, 64, 120, 361, 1024, 1025, 1447, 2000])
def test_blocks_are_whole_multiples_of_64_rows(k):
    rows = tensor_quad._block_rows(k)
    assert rows >= 64 and rows % 64 == 0
    assert rows * k <= tensor_quad._BLOCK_VALUES or rows == 64


def test_2d_sum_memory_stays_within_a_block(cache_dir):
    # the whole k x k grid of the order-2000 sum would take 32 MB per array
    spec = builtin_kernel("SD")
    rule = load_or_compute_rule(2000, cache_dir)
    tracemalloc.start()
    try:
        integrate_2d(rule, lambda x, y: eval_kernel(spec, x, y))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


@pytest.mark.parametrize("kernel", ["FM", "CR", "SC", "SD"])
def test_contraction_within_rounding_of_exact_sum(kernel, cache_dir):
    # w @ (vals @ w) sums in another order than the k*k products; it must
    # stay within a few ulps of their correctly rounded sum
    spec = builtin_kernel(kernel)

    def f(x, y):
        return eval_kernel(spec, x, y)

    for k in (37, 120, 361):
        rule = load_or_compute_rule(k, cache_dir)
        terms = np.outer(rule.weights, rule.weights) * f(rule.nodes[:, None], rule.nodes[None, :])
        exact = math.fsum(terms.ravel())
        bound = 8 * 2.0**-52 * math.fsum(np.abs(terms).ravel())
        assert abs(integrate_2d(rule, f) - exact) <= bound


def test_series_structure(cache_dir):
    rules = load_rules(range(1, 7), cache_dir)
    assert [rule.order for rule in rules] == [1, 2, 3, 4, 5, 6]
    values = pre_exponential_factor(parse_kernel("x*y"), rules).values
    assert len(values) == 6
    assert all(math.isfinite(v) for v in values)
    # x*y is integrated exactly from order 1 on
    assert values[0] == pytest.approx(1.0, rel=1e-14)
    assert values[-1] == pytest.approx(1.0, rel=1e-12)
    rule5 = load_or_compute_rule(5, cache_dir)
    assert values[4] == integrate_2d(rule5, lambda x, y: x * y)


def test_load_rules_rejects_short_run(cache_dir):
    for orders in ([], range(1, 1)):
        with pytest.raises(ValueError):
            load_rules(orders, cache_dir)


def test_load_rules_keeps_the_given_orders(tmp_path):
    rules = load_rules([6, 3], tmp_path)
    assert [rule.order for rule in rules] == [6, 3]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["glq_3.csv", "glq_6.csv"]


def test_series_names_failing_order(cache_dir, monkeypatch):
    def f(spec, x, y):
        if x.shape[0] == 3:
            return np.full_like(x, np.nan)
        return np.ones_like(x)

    monkeypatch.setattr(average, "eval_kernel", f)
    with pytest.raises(IntegrandError, match="^order 3:"):
        pre_exponential_factor(parse_kernel("x*y"), load_rules(range(1, 6), cache_dir))
