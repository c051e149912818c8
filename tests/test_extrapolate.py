import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgkernel.average import AverageKernelResult, pre_exponential_factor
from avgkernel.extrapolate import (
    FIT_SAMPLES,
    DegenerateFitError,
    Fit,
    fit_orders,
    fit_slope,
    fit_window,
    full_report,
    remainder_estimate,
)
from avgkernel.kernels import BUILTIN_IDS, builtin_kernel
from avgkernel.tensor_quad import load_rules


def power_law_series(k_max, exponent, base=0.0):
    """Series Q_1..Q_k_max whose successive differences are exactly n**exponent."""
    values = [base]
    for n in range(1, k_max):
        values.append(values[-1] + float(n) ** exponent)
    return values


def dense_report(values, window=None):
    """full_report of the series Q_1..Q_k given by values."""
    return full_report(range(1, len(values) + 1), values, window)


def test_fit_slope_recovers_exact_power_law():
    points = [(n, 7.0 * n**-2.5) for n in range(5, 46)]
    assert fit_slope(points) == pytest.approx(-2.5, abs=1e-10)


def test_fit_slope_reads_the_order_of_each_point():
    # the points need not be successive orders: each carries its own n
    points = [(n, float(n) ** -3.0) for n in (6, 7, 9, 13, 20, 31)]
    assert fit_slope(points) == pytest.approx(-3.0, abs=1e-12)
    assert fit_slope(reversed(points)) == fit_slope(points)


def test_fit_slope_skips_zero_entries():
    points = [(n, 3.0 * n**-1.7) for n in range(2, 30)]
    points[8] = (10, 0.0)
    assert fit_slope(points) == pytest.approx(-1.7, abs=1e-10)


def test_fit_slope_degenerate_window():
    with pytest.raises(DegenerateFitError):
        fit_slope([(1, 0.0), (2, 0.5), (3, 0.0)])


def noisy_power_law_points(seed):
    """Seeded points (n, eps_n) at 2 to 200 orders inside 1..1200, the
    errors following a power law with about 10% log-normal scatter."""
    rng = random.Random(seed)
    size = rng.randint(2, 200)
    orders = sorted(rng.sample(range(1, 1201), size))
    amplitude, exponent = 10.0 ** rng.uniform(-12.0, 0.0), rng.uniform(-4.0, -0.5)
    return [(n, amplitude * n**exponent * math.exp(rng.gauss(0.0, 0.1))) for n in orders]


def exact_slope(points):
    """The least-squares slope of the same math.log inputs, in exact rationals."""
    xs = [Fraction(math.log(n)) for n, _ in points]
    ys = [Fraction(math.log(e)) for _, e in points]
    sx, sy = sum(xs), sum(ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    sxx = sum(x * x for x in xs)
    return (len(xs) * sxy - sx * sy) / (len(xs) * sxx - sx * sx)


def test_fit_slope_is_the_exact_least_squares_slope():
    misses = []
    for seed in range(60):
        points = noisy_power_law_points(seed)
        if fit_slope(points) != float(exact_slope(points)):
            misses.append((seed, len(points)))
    assert misses == []


def polyfit_slope(points):
    """np.polyfit's degree-1 fit of the same logs: an independent reference."""
    pts = [(n, e) for n, e in points if e > 0.0]
    slope, _ = np.polyfit(np.log([float(n) for n, _ in pts]), np.log([e for _, e in pts]), 1)
    return float(slope)


@pytest.fixture(scope="module")
def builtin_series(cache_dir):
    rules = load_rules(range(1, 362), cache_dir)
    return {kid: pre_exponential_factor(builtin_kernel(kid), rules).values
            for kid in BUILTIN_IDS}


@pytest.mark.parametrize("k_max", [120, 361])
def test_fit_slope_agrees_with_polyfit_on_the_builtins(builtin_series, k_max):
    a, b = fit_window(k_max)
    for kid, values in builtin_series.items():
        points = [(n, abs(values[n] - values[n - 1])) for n in range(a, b + 1)]
        assert fit_slope(points) == pytest.approx(polyfit_slope(points), rel=1e-14, abs=0.0), kid


def test_remainder_estimate_reference_values():
    # frozen from independent evaluation of the tail integral formula
    assert remainder_estimate(1.2344e-4, -1.5209, 360) == pytest.approx(
        0.08518762835925466, rel=1e-12
    )
    assert remainder_estimate(9.3561e-7, -2.3733, 360) == pytest.approx(
        0.0002443304076762927, rel=1e-12
    )


def test_remainder_estimate_is_positive_and_steeper_is_smaller():
    shallow = remainder_estimate(1e-4, -1.5, 360)
    steep = remainder_estimate(1e-4, -3.0, 360)
    assert 0.0 < steep < shallow


def test_remainder_estimate_approximates_tail_sum():
    # the estimate integrates the fitted law past n+1, so it should sit
    # close to the direct sum of the remaining differences
    C, n = -2.5, 360
    direct = sum(m**C for m in range(n + 1, 3_000_000))
    direct += (3_000_000 - 0.5) ** (C + 1) / (-(C + 1))
    got = remainder_estimate(float(n) ** C, C, n)
    assert got == pytest.approx(direct, rel=5e-3)


def test_remainder_estimate_is_none_for_divergent_tail():
    assert remainder_estimate(1.0, -1.0, 10) is None
    assert remainder_estimate(1.0, -0.5, 10) is None


def test_remainder_estimate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        remainder_estimate(0.0, -2.0, 10)
    with pytest.raises(ValueError):
        remainder_estimate(1.0, -2.0, 0)


def test_fit_window_defaults_to_upper_half():
    assert fit_window(361) == (181, 360)
    assert fit_window(40) == (20, 39)
    assert fit_window(21) == (11, 20)
    assert fit_window(40, (5, 39)) == (5, 39)
    with pytest.raises(ValueError, match="not inside 1:39"):
        fit_window(40, (5, 40))


@st.composite
def series_and_window(draw):
    """An order k of 20..2000 and a fit window inside 1:k-1, or None."""
    k = draw(st.integers(20, 2000))
    if draw(st.booleans()):
        return k, None
    a = draw(st.integers(1, k - 2))
    return k, (a, draw(st.integers(a + 1, k - 1)))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(series_and_window())
def test_fit_orders_holds_each_sampled_pair(case):
    k, window = case
    orders = fit_orders(k, window)
    assert orders == sorted(set(orders))
    assert 1 <= orders[0] and orders[-1] == k
    a, b = fit_window(k, window)
    # the sampled n, evenly spaced in ln n from a to b, rounded
    sampled = {round(a * (b / a) ** (j / (FIT_SAMPLES - 1))) for j in range(FIT_SAMPLES)}
    assert {a, b} <= sampled
    assert {m for n in sampled for m in (n, n + 1)} | {k - 1, k} == set(orders)
    assert len(orders) <= 2 * FIT_SAMPLES + 2


def test_fit_orders_are_at_most_16_from_order_60():
    counts = {k: len(fit_orders(k)) for k in range(20, 2001)}
    assert max(counts[k] for k in range(60, 2001)) == 16
    assert (counts[20], counts[21], counts[60], counts[361], counts[2000]) == (11, 11, 16, 16, 16)


@pytest.mark.parametrize("values, expected", [
    (power_law_series(19, -2.0), Fit("short", None, None, None, None)),
    ([3.25] * 25, Fit("exact", (13, 24), None, None, 0.0)),
    (power_law_series(40, -2.0),
     Fit("estimated", (20, 39), 39.0**-2.0, -2.0, remainder_estimate(39.0**-2.0, -2.0, 39))),
    (power_law_series(40, -0.5), Fit("divergent", (20, 39), 39.0**-0.5, -0.5, None)),
], ids=["short", "exact", "estimated", "divergent"])
def test_full_report_decides_the_status(values, expected):
    # full_report alone decides the status, for every length of series
    fit = dense_report(values)
    assert (fit.status, fit.window) == (expected.status, expected.window)
    numbers = (fit.anchor_error, fit.slope, fit.remainder)
    assert numbers == pytest.approx(
        (expected.anchor_error, expected.slope, expected.remainder), rel=1e-10)
    if fit.status == "divergent":
        assert fit.slope >= -1.0


# the n whose eps_n the fit of a series 1..40 reads: 8 orders evenly
# spaced in ln n over its default window 20..39, rounded
SAMPLED_40 = [20, 22, 24, 27, 29, 32, 35, 39]


def test_full_report_recovers_power_law():
    values = power_law_series(40, -2.0)
    fit = dense_report(values)
    assert fit.status == "estimated"
    # the anchor is eps_39 = |Q_40 - Q_39|
    errors = [abs(b - a) for a, b in zip(values, values[1:])]
    assert fit.slope == fit_slope((n, errors[n - 1]) for n in SAMPLED_40)
    assert errors[38] == fit.anchor_error
    assert fit.anchor_error == pytest.approx(39.0**-2.0, rel=1e-13)
    assert fit.slope == pytest.approx(-2.0, abs=1e-10)
    assert fit.remainder == remainder_estimate(fit.anchor_error, fit.slope, 39)


def test_full_report_reads_only_the_fit_orders():
    # the orders of fit_orders give the same fit as the whole series, and
    # every other order may hold anything
    values = power_law_series(40, -2.2, base=1.0)
    orders = fit_orders(40)
    assert orders == sorted({m for n in SAMPLED_40 for m in (n, n + 1)})
    assert full_report(orders, [values[n - 1] for n in orders]) == dense_report(values)
    scrambled = [1e6 * (-1) ** n if n not in orders else v
                 for n, v in enumerate(values, start=1)]
    assert dense_report(scrambled) == dense_report(values)


def test_full_report_without_a_fit_order_is_short():
    # a series lacking an order the fit reads, as table3's one-rule series
    # does, gets no fit
    values = power_law_series(40, -2.0)
    short = Fit("short", None, None, None, None)
    assert full_report([40], values[-1:]) == short
    orders = [n for n in fit_orders(40) if n != 27]
    assert full_report(orders, [values[n - 1] for n in orders]) == short


def test_full_report_floor_keeps_fit_points():
    # differences at or below 1e-10 of the series magnitude leave the fit
    # as zeros do; the estimate stands while at most half the sampled
    # points are at the floor
    values = power_law_series(40, -2.0, base=1e3)
    for n in (22, 24, 27):
        step = values[n] - values[n - 1] - 1e-9
        values[n:] = [v - step for v in values[n:]]
    errors = [abs(b - a) for a, b in zip(values, values[1:])]
    assert [n for n, e in enumerate(errors, start=1) if 0.0 < e <= 1e-7] == [22, 24, 27]
    # what fitting the floor would give
    assert fit_slope((n, errors[n - 1]) for n in SAMPLED_40) > -1.0
    fit = dense_report(values)
    assert fit.status == "estimated"
    assert fit.slope == pytest.approx(-2.0, abs=1e-6)


def test_full_report_scale_equivariance():
    base = power_law_series(40, -2.2)
    a = dense_report(base)
    b = dense_report([2.0 * v for v in base])
    assert b.slope == pytest.approx(a.slope, abs=1e-12)
    assert b.remainder == pytest.approx(2.0 * a.remainder, rel=1e-12)


def test_full_report_roundoff_noise_counts_as_exact():
    # jitter at 1e-13 around 5.0 is far below the 1e-10 relative floor
    values = [5.0 + (1e-13 if i % 2 else -1e-13) for i in range(30)]
    fit = dense_report(values)
    assert fit.status == "exact"
    assert fit.remainder == 0.0


def test_full_report_plateau_after_convergence_is_exact():
    values = [1.0 + 2.0 ** -float(i) for i in range(1, 11)] + [1.0] * 20
    assert dense_report(values).status == "exact"


def test_full_report_degenerate_window_raises():
    values = [0.4 * i for i in range(23)]
    values[20] = values[19]  # one zero difference inside the window
    for i in range(21, 23):
        values[i] = values[i - 1] + 0.4
    with pytest.raises(DegenerateFitError):
        dense_report(values, (20, 21))


def test_full_report_validates_inputs():
    series = power_law_series(30, -2.0)
    for window in ((0, 10), (5, 5), (12, 30), (25, 12)):
        with pytest.raises(ValueError):
            dense_report(series, window)


def test_report_scaled_halves_everything_linear():
    # the p-scale view of a Q-scale fit is the fit times 0.5, exact in
    # binary floating point
    values = power_law_series(40, -2.0)
    fit = dense_report(values)
    half = AverageKernelResult("synthetic", 0.0, values, fit)
    assert half.p == 0.5 * values[-1]
    assert half.remainder_value == 0.5 * fit.remainder
    # the fit itself stays on the scale of Q
    assert half.fit == fit


def test_report_scaled_keeps_exact_flag():
    values = [2.0] * 25
    half = AverageKernelResult("c", 0.0, values, dense_report(values))
    assert half.fit.status == "exact"
    assert half.remainder_value == 0.0
    assert half.p == 1.0
