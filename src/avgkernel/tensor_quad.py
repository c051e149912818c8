"""Tensor-product 2D Gauss-Laguerre quadrature.

Only square rules (the same order on both axes) are supported.  The double
sum is contracted as w @ (vals @ w), with the kernel values and their row
sums taken in blocks of whole rows, so no array larger than one block is
formed at any order: about 2**16 values (0.5 MB), or 64 rows above order
1024 (1 MB at order 2000).  The same budget bounds the oracle's blocks in
average.  The summation order is the BLAS library's, fixed for one library
and CPU: repeated runs on one machine are bitwise identical, another BLAS
build may differ in the last bits.  integrate_2d raises every failure of a
sum, naming the rule's order.  load_rules reads or builds the rules of the
orders given, once each, and every series of a command shares them.
"""

from __future__ import annotations

import math

import numpy as np

from .rules import QuadratureRule, compute_rules, load_or_compute_rule, uncached_orders


# Kernel values per block of the 2D sum and of the oracle, which reads it at
# call time.  Series 1..361 of five kernels took 0.55 s in blocks of 2**16,
# 0.60 s as k x k arrays, 0.63 s in 2**15 (in-process, cli._keep_freed_memory).
_BLOCK_VALUES = 1 << 16


class IntegrandError(ArithmeticError):
    """A kernel value at a quadrature node, or the double sum, is not finite."""


def integrate_2d(rule: QuadratureRule, f) -> float:
    """Tensor-product double sum sum_i sum_j A_i A_j f(x_i, x_j).

    f is called once per block of rows, with a column of those rows' nodes
    and a 1 x k node row, so per-node work runs about k times, not k*k.  It
    must accept arrays and may return a scalar, a column, a row or a full
    block, which is broadcast to the block's shape; exceptions it raises
    propagate.  Every value is checked to be finite, also where a weight has
    underflowed to 0, before the block's row sums sum_j f(x_i, x_j) A_j are
    taken; the sum is then sum_i A_i times those, w @ (vals @ w), and must
    be finite too.  Either failure raises IntegrandError, naming order k.
    """
    k, nodes, w = rule.order, rule.nodes, rule.weights
    rows = _block_rows(k)
    y = nodes[None, :]
    row_sums = np.empty(k)
    for lo in range(0, k, rows):
        x = nodes[lo:lo + rows, None]
        vals = np.broadcast_to(np.asarray(f(x, y), dtype=float), (len(x), k))
        if not np.all(np.isfinite(vals)):
            i, j = np.argwhere(~np.isfinite(vals))[0]
            raise IntegrandError(
                f"order {k}: integrand is {vals[i, j]} at node pair ({lo + i + 1}, {j + 1})"
                f" (x = {float(nodes[lo + i])!r}, y = {float(nodes[j])!r})"
            )
        row_sums[lo:lo + len(x)] = vals @ w
    q = float(w @ row_sums)
    if not math.isfinite(q):
        raise IntegrandError(f"order {k}: quadrature value is {q}")
    return q


def _block_rows(k: int) -> int:
    """Rows per block of an order-k sum: about _BLOCK_VALUES values, and a
    multiple of 64 rows.  OpenBLAS's gemv rounds a row sum by how the rows
    are grouped; groups of 64 rows sum every row as the whole k x k product
    does, bit for bit, where groups of 22 rows did not."""
    return max(64, _BLOCK_VALUES // k // 64 * 64)


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
