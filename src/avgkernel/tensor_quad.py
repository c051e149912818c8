"""Tensor-product 2D Gauss-Laguerre quadrature and the order-by-order series.

Only square rules (the same order on both axes) are supported.  The double
sum is contracted as w @ (vals @ w), so no k x k array beyond the kernel
values and their finiteness mask is formed.  Its summation order is the
BLAS library's, fixed for one library and CPU: repeated runs on one
machine are bitwise identical, another BLAS build may differ in the last
bits.  load_rules reads or builds the rules of the orders given, once
each, and every series a command runs over them shares that list.
"""

from __future__ import annotations

import math

import numpy as np

from .rules import QuadratureRule, compute_rules, load_or_compute_rule, uncached_orders


class IntegrandError(ArithmeticError):
    """The integrand returned a non-finite value at a quadrature node."""


def integrate_2d(rule: QuadratureRule, f) -> float:
    """Tensor-product double sum sum_i sum_j A_i A_j f(x_i, x_j).

    f is called once, with a k x 1 node column and a 1 x k node row, so
    per-node work runs k times, not k*k.  It must accept arrays and may
    return a scalar, a column, a row or a k x k grid, which is broadcast to
    k x k; exceptions it raises propagate.  Every value is checked to be
    finite, also where a weight has underflowed to 0, before the sum is
    taken as w @ (vals @ w): the row sums sum_j f(x_i, x_j) A_j first, then
    sum_i A_i times those.
    """
    x, y = rule.nodes[:, None], rule.nodes[None, :]
    vals = np.broadcast_to(np.asarray(f(x, y), dtype=float), (rule.order, rule.order))
    if not np.all(np.isfinite(vals)):
        i, j = np.argwhere(~np.isfinite(vals))[0]
        raise IntegrandError(
            f"integrand is {vals[i, j]} at node pair ({i + 1}, {j + 1})"
            f" (x = {float(rule.nodes[i])!r}, y = {float(rule.nodes[j])!r})"
        )
    w = rule.weights
    return float(w @ (vals @ w))


def load_rules(orders, cache_dir) -> list[QuadratureRule]:
    """The rules of orders, a list or range of orders, in their order.

    Orders with no cache file are built together by compute_rules first;
    then every order goes through load_or_compute_rule, which reads its
    file or writes the rule just built.  The loader is looked up as a
    module attribute at call time, so a wrapper set on it sees every load.
    """
    if not orders:
        raise ValueError("no rule orders to load")
    # a corrupt cache file is left to load_or_compute_rule to rebuild
    uncached = uncached_orders(orders, cache_dir)
    built = dict(zip(uncached, compute_rules(uncached)))
    return [load_or_compute_rule(k, cache_dir, built.get(k)) for k in orders]


def convergence_series(f, rules: list[QuadratureRule]) -> list[float]:
    """Q_{k,k} for each rule, all finite, in the order of rules."""
    values = []
    for rule in rules:
        try:
            q = integrate_2d(rule, f)
        except IntegrandError as exc:
            raise IntegrandError(f"order {rule.order}: {exc}") from exc
        if not math.isfinite(q):
            raise IntegrandError(f"order {rule.order}: quadrature value is {q}")
        values.append(q)
    return values
