"""The Laguerre three-term recurrence, stable at high order and large argument.

L_k(x) grows roughly like exp(x/2) * x^(-k/2-1/4) * k! near the end of the
oscillatory region, so the plain recurrence overflows native doubles once k
and x are both large (k around 400 for x near 4k).  _recurrence_scaled
keeps its running terms as value * 2**shift and, at regular checks,
renormalizes every element by a power of two, which is exact.  Each
element stops at its own degree, so one call serves the nodes of many
rules.  The rule builder in rules.py is its only caller: every Newton pass
and the weight pass are one call each.
"""

from __future__ import annotations

import math

import numpy as np


def _recurrence_scaled(k: int, x, degree):
    """Run the recurrence with joint power-of-two renormalization, elementwise.

    x is an array of floats and degree an integer array of the same length,
    each entry in 1..k.  Returns (prev, cur, shift), arrays of x's length,
    where L_{d-1}(x) = prev * 2**shift and L_d(x) = cur * 2**shift for the
    element's degree d.  k - 1 steps run; an element stops taking them once
    it reaches its degree.
    """
    # largest degree first, so the elements still running are a prefix:
    # live[n] of them take step n.  L_n is terms[n % 2], and step n writes
    # L_{n+1} over L_{n-1}, so a finished element keeps its terms in place
    descending = -np.asarray(degree)
    order = np.argsort(descending, kind="stable")
    x = np.asarray(x, dtype=float)[order]
    live = np.searchsorted(descending[order], -np.arange(k)).tolist()
    terms = (np.ones(len(x)), 1.0 - x)
    shift = np.zeros(len(x), dtype=np.int64)
    # Renormalizing by a power of two is exact, so how often it happens
    # does not change the result.  A check brings max(|prev|, |cur|) of
    # every element into [1/2, 1).  One step multiplies it by at most
    # 3 + |x| and divides it by at most 3k, so with a check every `every`
    # steps, g**every <= 2**256, the terms stay within [2**-257, 2**256].
    g = 3.0 * k + 3.0 + float(np.max(abs(x), initial=0.0))
    every = max(1, int(256.0 / math.log2(g))) if g < math.inf else 1
    for n in range(1, k):
        a = live[n]
        prev, cur = terms[(n - 1) % 2][:a], terms[n % 2][:a]
        if n % every == 0:
            e = np.frexp(np.maximum(abs(prev), abs(cur)))[1]
            prev[...], cur[...] = np.ldexp(prev, -e), np.ldexp(cur, -e)
            shift[:a] += e
        prev[...] = ((2 * n + 1 - x[:a]) * cur - n * prev) / (n + 1)
    even = descending[order] % 2 == 0
    terms[0][even], terms[1][even] = terms[1][even], terms[0][even]
    result = tuple(np.empty_like(v) for v in (*terms, shift))
    for values, v in zip(result, (*terms, shift)):
        values[order] = v
    return result
