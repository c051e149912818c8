import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgkernel.rules import _recurrence_scaled
from fractions import Fraction

from support import laguerre_derivative_series, laguerre_series, recurrence_scaled_stepwise

SAMPLE_X = (Fraction(1, 3), Fraction(1), Fraction(7, 2), Fraction(5), Fraction(21, 2))


def scaled(k, x):
    """(prev, cur, shift) of the recurrence to degree k at the one point x."""
    prev, cur, shift = _recurrence_scaled(k, np.array([x]), np.array([k]))
    return float(prev[0]), float(cur[0]), int(shift[0])


def value(k, x):
    """L_k(x) = cur * 2**shift as a float."""
    _, cur, shift = scaled(k, x)
    return math.ldexp(cur, shift)


def derivative(k, x):
    """L_k'(x) = k (L_k(x) - L_{k-1}(x)) / x, the Newton step of rules._polish."""
    prev, cur, shift = scaled(k, x)
    return math.ldexp(k * (cur - prev) / x, shift)


def test_eval_matches_exact_series():
    for k in range(1, 13):
        for xf in SAMPLE_X:
            exact = float(laguerre_series(k, xf))
            got = value(k, float(xf))
            assert abs(got - exact) <= 1e-13 * max(1.0, abs(exact))


def test_eval_low_orders():
    assert value(1, 0.25) == 0.75
    # L_2(2) = -1 exactly in float arithmetic
    assert value(2, 2.0) == -1.0
    prev, _, shift = scaled(1, 3.7)
    assert math.ldexp(prev, shift) == 1.0  # L_0


def test_scaled_survives_huge_magnitudes():
    # |L_361(1400)| ~ 1e302, still representable; the scaled path must
    # agree with an independent high-precision evaluation of its log.
    _, cur, shift = scaled(361, 1400.0)
    log10 = shift * math.log10(2.0) + math.log10(abs(cur))
    assert log10 == pytest.approx(302.2749030913865, abs=1e-6)


def test_scaled_overflow_is_explicit():
    _, cur, shift = scaled(400, 1590.0)
    mantissa, exponent = math.frexp(cur)
    assert 0.5 <= abs(mantissa) < 1.0
    assert exponent + shift > 1025  # |L_400(1590)| >= 2**1025: beyond any finite double
    with pytest.raises(OverflowError):
        math.ldexp(cur, shift)


def _normalized_values(prev, cur, shift):
    """(mantissa, exponent) of each of the two scaled values."""
    out = []
    for v in (prev, cur):
        m, e = math.frexp(v)
        out.append((m, e + shift if m else 0))
    return out


def test_recurrence_matches_stepwise_reference_bitwise():
    # one-point and many-point calls give exactly the values of the loop
    # that renormalizes after every step, including far beyond double range
    xs = [0.0, 1e-3, 0.5, 3.0, 40.0, 250.0, 1200.0, 1400.0, 1590.0]
    for k in (1, 2, 7, 80, 361, 400):
        expected = [_normalized_values(*recurrence_scaled_stepwise(k, x)) for x in xs]
        assert [_normalized_values(*scaled(k, x)) for x in xs] == expected
        prev, cur, shift = _recurrence_scaled(k, np.array(xs), np.full(len(xs), k))
        assert prev.shape == cur.shape == shift.shape == (len(xs),)
        got = [_normalized_values(float(p), float(c), int(s))
               for p, c, s in zip(prev, cur, shift)]
        assert got == expected
    # one call with a degree per element, in no particular order
    degrees = np.array([7, 400, 1, 80, 2, 361, 1, 400, 80] * len(xs))
    x = np.repeat(xs, 9)
    expected = [_normalized_values(*recurrence_scaled_stepwise(int(k), v))
                for k, v in zip(degrees, x)]
    prev, cur, shift = _recurrence_scaled(400, x, degrees)
    got = [_normalized_values(float(p), float(c), int(s))
           for p, c, s in zip(prev, cur, shift)]
    assert got == expected


@st.composite
def recurrence_inputs(draw):
    """k in 1..400 and 1 to 40 elements: x is 0 or in [0, 4k+2], and the
    degrees are in 1..k, in any order and with repeats."""
    k = draw(st.integers(1, 400))
    size = draw(st.integers(1, 40))
    point = st.one_of(st.just(0.0), st.floats(0.0, 4.0 * k + 2.0))
    x = draw(st.lists(point, min_size=size, max_size=size))
    degree = draw(st.lists(st.integers(1, k), min_size=size, max_size=size))
    return k, np.array(x), np.array(degree)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(recurrence_inputs())
def test_recurrence_matches_stepwise_on_random_inputs(inputs):
    k, x, degree = inputs
    x_before, degree_before = x.copy(), degree.copy()
    prev, cur, shift = _recurrence_scaled(k, x, degree)
    got = [_normalized_values(float(p), float(c), int(s))
           for p, c, s in zip(prev, cur, shift)]
    expected = [_normalized_values(*recurrence_scaled_stepwise(int(d), float(v)))
                for d, v in zip(degree, x)]
    assert got == expected
    assert np.array_equal(x, x_before) and np.array_equal(degree, degree_before)


def test_derivative_matches_exact_series():
    for k in range(1, 13):
        for xf in SAMPLE_X:
            exact = float(laguerre_derivative_series(k, xf))
            got = derivative(k, float(xf))
            assert abs(got - exact) <= 1e-11 * max(1.0, abs(exact))


def test_derivative_low_orders():
    assert derivative(1, 0.7) == -1.0
    # L_2'(x) = x - 2 vanishes at x = 2
    assert derivative(2, 2.0) == pytest.approx(0.0, abs=1e-15)


def plain_derivative(k, x):
    """L_k'(x) from the unscaled float recurrence, for k and x small enough
    that every term fits a double."""
    prev, cur = 1.0, 1.0 - x
    for n in range(1, k):
        prev, cur = cur, ((2 * n + 1 - x) * cur - n * prev) / (n + 1)
    return k * (cur - prev) / x


def test_derivative_scaled_matches_plain():
    for k in (1, 2, 9, 60):
        for x in (0.3, 4.0, 75.0):
            assert derivative(k, x) == pytest.approx(plain_derivative(k, x), rel=1e-12)
