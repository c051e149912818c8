"""The Laguerre three-term recurrence, stable at high order and large argument.

L_k(x) grows roughly like exp(x/2) * x^(-k/2-1/4) * k! near the end of the
oscillatory region, so the plain recurrence overflows native doubles once k
and x are both large (k around 400 for x near 4k).  _recurrence_scaled
keeps its running terms as value * 2**shift and renormalizes by powers of
two, which is exact.  The rule builder in rules.py is its caller.
"""

from __future__ import annotations

import math

import numpy as np

# Renormalization band for the joint running terms, far enough inside the
# double range that the steps between two checks cannot overflow or
# underflow (see _recurrence_scaled).
_BIG = 2.0**512
_SMALL = 2.0**-512


def _recurrence_scaled(k: int, x):
    """Run the recurrence for k >= 1 with joint power-of-two rescaling.

    x is a float or an array of floats, evaluated elementwise.  Returns
    (prev, cur, shift, step) of x's shape, where L_{k-1}(x) = prev * 2**shift,
    L_k(x) = cur * 2**shift, and step * 2**shift is the magnitude of the
    larger term entering the final recurrence step.  step gives root
    finders a natural scale for judging residuals |L_k(x)| near a zero,
    where the value itself carries total cancellation.  A float x gives
    Python floats and an int shift.
    """
    # [()] turns 0-d arrays into numpy scalars, whose arithmetic is cheap
    x = np.asarray(x, dtype=float)[()]
    prev = np.ones(np.shape(x))[()]
    cur = 1.0 - x
    shift = np.zeros(np.shape(x), dtype=np.int64)[()]
    step = np.maximum(abs(cur), 1.0)
    # Rescaling by a power of two is exact, so how often it happens does
    # not change the result.  One step multiplies max(|prev|, |cur|) by at
    # most 3 + |x| and divides it by at most 3k, so checking the band every
    # `every` steps, with g**every <= 2**256, keeps the terms within
    # [2**-768, 2**768].
    g = 3.0 * k + 3.0 + float(np.max(abs(x), initial=0.0))
    every = max(1, int(256.0 / math.log2(g))) if g < math.inf else 1
    for n in range(1, k):
        if n % every == 0:
            m = np.maximum(abs(prev), abs(cur))
            out = (m > _BIG) | (m < _SMALL)
            if np.any(out):
                e = np.where(out, np.frexp(m)[1], 0)
                prev = np.ldexp(prev, -e)
                cur = np.ldexp(cur, -e)
                shift = shift + e
        t1 = (2 * n + 1 - x) * cur
        t2 = n * prev
        prev, cur = cur, (t1 - t2) / (n + 1)
    if k > 1:
        step = np.maximum(abs(t1), abs(t2)) / k
    if np.ndim(x) == 0:
        return float(prev), float(cur), int(shift), float(step)
    return prev, cur, shift, step
