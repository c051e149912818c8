import math

import numpy as np
import pytest

from avgkernel.laguerre import (
    ScaledValue,
    _recurrence_scaled,
    laguerre_derivative,
    laguerre_derivative_scaled,
    laguerre_eval,
    laguerre_eval_scaled,
)
from fractions import Fraction

from support import laguerre_derivative_series, laguerre_series, recurrence_scaled_stepwise

SAMPLE_X = (Fraction(1, 3), Fraction(1), Fraction(7, 2), Fraction(5), Fraction(21, 2))


def test_eval_matches_exact_series():
    for k in range(13):
        for xf in SAMPLE_X:
            exact = float(laguerre_series(k, xf))
            got = laguerre_eval(k, float(xf))
            assert abs(got - exact) <= 1e-13 * max(1.0, abs(exact))


def test_eval_low_orders():
    assert laguerre_eval(0, 3.7) == 1.0
    assert laguerre_eval(1, 0.25) == 0.75
    # L_2(2) = -1 exactly in float arithmetic
    assert laguerre_eval(2, 2.0) == -1.0


def test_eval_rejects_bad_args():
    with pytest.raises(ValueError):
        laguerre_eval(-1, 1.0)
    with pytest.raises(ValueError):
        laguerre_eval(3, -0.5)


def test_scaled_matches_plain_in_range():
    for k in (0, 1, 2, 7, 30, 80):
        for x in (0.0, 0.5, 3.0, 40.0, 250.0):
            plain = laguerre_eval(k, x)
            sv = laguerre_eval_scaled(k, x)
            assert float(sv) == pytest.approx(plain, rel=1e-13, abs=1e-300)


def test_scaled_mantissa_normalization():
    for k in (1, 5, 50, 200):
        for x in (0.1, 10.0, 500.0, 1200.0):
            sv = laguerre_eval_scaled(k, x)
            assert 1.0 <= abs(sv.mantissa) < 2.0


def test_scaled_zero_and_unit():
    assert float(ScaledValue(0.0, 0)) == 0.0
    sv = laguerre_eval_scaled(0, 123.0)
    assert (sv.mantissa, sv.exponent) == (1.0, 0)


def test_scaled_survives_huge_magnitudes():
    # |L_361(1400)| ~ 1e302, still representable; the scaled path must
    # agree with an independent high-precision evaluation of its log.
    sv = laguerre_eval_scaled(361, 1400.0)
    log10 = sv.exponent * math.log10(2.0) + math.log10(abs(sv.mantissa))
    assert log10 == pytest.approx(302.2749030913865, abs=1e-6)


def test_scaled_overflow_is_explicit():
    sv = laguerre_eval_scaled(400, 1590.0)
    assert 1.0 <= abs(sv.mantissa) < 2.0
    assert sv.exponent > 1024  # beyond any finite double
    with pytest.raises(OverflowError):
        float(sv)


def _normalized_values(prev, cur, shift, step):
    """(mantissa, exponent) of each of the three scaled values."""
    out = []
    for v in (prev, cur, step):
        m, e = math.frexp(v)
        out.append((m, e + shift if m else 0))
    return out


def test_recurrence_matches_stepwise_reference_bitwise():
    # scalar and array calls give exactly the values of the loop that
    # renormalizes after every step, including far beyond double range
    xs = [0.0, 1e-3, 0.5, 3.0, 40.0, 250.0, 1200.0, 1400.0, 1590.0]
    for k in (1, 2, 7, 80, 361, 400):
        expected = [_normalized_values(*recurrence_scaled_stepwise(k, x)) for x in xs]
        assert [_normalized_values(*_recurrence_scaled(k, x)) for x in xs] == expected
        prev, cur, shift, step = _recurrence_scaled(k, np.array(xs))
        assert prev.shape == cur.shape == shift.shape == step.shape == (len(xs),)
        got = [_normalized_values(float(p), float(c), int(s), float(t))
               for p, c, s, t in zip(prev, cur, shift, step)]
        assert got == expected


def test_derivative_matches_exact_series():
    for k in range(1, 13):
        for xf in SAMPLE_X:
            exact = float(laguerre_derivative_series(k, xf))
            got = laguerre_derivative(k, float(xf))
            assert abs(got - exact) <= 1e-11 * max(1.0, abs(exact))


def test_derivative_low_orders():
    assert laguerre_derivative(1, 0.7) == -1.0
    # L_2'(x) = x - 2 vanishes at x = 2
    assert laguerre_derivative(2, 2.0) == pytest.approx(0.0, abs=1e-15)


def test_derivative_scaled_matches_plain():
    for k in (1, 2, 9, 60):
        for x in (0.3, 4.0, 75.0):
            plain = laguerre_derivative(k, x)
            sv = laguerre_derivative_scaled(k, x)
            assert float(sv) == pytest.approx(plain, rel=1e-12)


def test_derivative_rejects_bad_args():
    with pytest.raises(ValueError):
        laguerre_derivative(0, 1.0)
    with pytest.raises(ValueError):
        laguerre_derivative(3, 0.0)
    with pytest.raises(ValueError):
        laguerre_derivative_scaled(2, -1.0)
