import math

import pytest

from avgkernel.average import AverageKernelResult
from avgkernel.extrapolate import (
    ConvergenceReport,
    DegenerateFitError,
    DivergentTailError,
    error_sequence,
    fit_slope,
    fit_window,
    full_report,
    remainder_estimate,
)
from avgkernel.tensor_quad import ConvergenceSeries


def power_law_series(k_max, exponent, base=0.0):
    """Series whose successive differences are exactly n**exponent."""
    values = [base]
    for n in range(1, k_max):
        values.append(values[-1] + float(n) ** exponent)
    return ConvergenceSeries(list(range(1, k_max + 1)), values, "synthetic")


def test_error_sequence_basic():
    series = ConvergenceSeries([1, 2, 3], [0.0, 1.0, 1.5], "t")
    assert error_sequence(series) == [(1, 1.0), (2, 0.5)]


def test_error_sequence_needs_two_points():
    with pytest.raises(ValueError):
        error_sequence(ConvergenceSeries([1], [2.0], "t"))


def test_fit_slope_recovers_exact_power_law():
    errors = [(n, 7.0 * n**-2.5) for n in range(1, 51)]
    assert fit_slope(errors, (5, 45)) == pytest.approx(-2.5, abs=1e-10)


def test_fit_slope_skips_zero_entries():
    errors = [(n, 3.0 * n**-1.7) for n in range(1, 31)]
    errors[9] = (10, 0.0)
    assert fit_slope(errors, (2, 29)) == pytest.approx(-1.7, abs=1e-10)


def test_fit_slope_degenerate_window():
    with pytest.raises(DegenerateFitError):
        fit_slope([(1, 0.0), (2, 0.5), (3, 0.0)], (1, 3))


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


def test_remainder_estimate_rejects_divergent_tail():
    with pytest.raises(DivergentTailError):
        remainder_estimate(1.0, -1.0, 10)
    with pytest.raises(DivergentTailError):
        remainder_estimate(1.0, -0.5, 10)


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


def test_full_report_recovers_power_law():
    series = power_law_series(40, -2.0)
    report = full_report(series)
    assert isinstance(report, ConvergenceReport)
    assert not report.exact
    est = report.estimate
    # the default window is the upper half of the error orders, 20..39,
    # and the anchor the last of them
    errors = error_sequence(series)
    assert est.slope == fit_slope(errors, (20, 39))
    assert errors[-1] == (39, est.anchor_error)
    assert est.anchor_error == pytest.approx(39.0**-2.0, rel=1e-13)
    assert est.slope == pytest.approx(-2.0, abs=1e-10)
    assert est.remainder == pytest.approx(
        remainder_estimate(est.anchor_error, est.slope, 39), rel=1e-13
    )
    assert report.remainder_value == est.remainder
    assert report.final_value == series.values[-1]


def test_full_report_scale_equivariance():
    base = power_law_series(40, -2.2)
    doubled = ConvergenceSeries(base.orders, [2.0 * v for v in base.values], "x2")
    a = full_report(base)
    b = full_report(doubled)
    assert b.estimate.slope == pytest.approx(a.estimate.slope, abs=1e-12)
    assert b.estimate.remainder == pytest.approx(2.0 * a.estimate.remainder, rel=1e-12)
    assert b.final_value == pytest.approx(2.0 * a.final_value, rel=1e-15)


def test_full_report_divergent_slope_has_no_estimate():
    series = power_law_series(40, -0.5)
    report = full_report(series)
    assert not report.exact
    assert report.estimate.slope == pytest.approx(-0.5, abs=1e-10)
    assert report.estimate.remainder is None
    assert report.remainder_value is None


def test_full_report_constant_series_is_exact():
    series = ConvergenceSeries(list(range(1, 26)), [3.25] * 25, "const")
    report = full_report(series)
    assert report.exact
    assert report.estimate is None
    assert report.remainder_value == 0.0
    assert report.final_value == 3.25


def test_full_report_roundoff_noise_counts_as_exact():
    # jitter at 1e-13 around 5.0 is far below the 1e-10 relative floor
    values = [5.0 + (1e-13 if i % 2 else -1e-13) for i in range(30)]
    report = full_report(ConvergenceSeries(list(range(1, 31)), values, "noise"))
    assert report.exact
    assert report.remainder_value == 0.0


def test_full_report_plateau_after_convergence_is_exact():
    values = [1.0 + 2.0 ** -float(i) for i in range(1, 11)] + [1.0] * 20
    series = ConvergenceSeries(list(range(1, 31)), values, "plateau")
    report = full_report(series)
    assert report.exact


def test_full_report_degenerate_window_raises():
    values = [0.4 * i for i in range(23)]
    values[20] = values[19]  # one zero difference inside the window
    for i in range(21, 23):
        values[i] = values[i - 1] + 0.4
    series = ConvergenceSeries(list(range(1, 24)), values, "sparse")
    with pytest.raises(DegenerateFitError):
        full_report(series, (20, 21))


def test_full_report_validates_inputs():
    short = power_law_series(10, -2.0)
    with pytest.raises(ValueError):
        full_report(short)
    series = power_law_series(30, -2.0)
    for window in ((0, 10), (5, 5), (12, 30), (25, 12)):
        with pytest.raises(ValueError):
            full_report(series, window)



def test_report_scaled_halves_everything_linear():
    # the p-scale view of a Q-scale report is the report times 0.5, exact
    # in binary floating point
    series = power_law_series(40, -2.0)
    report = full_report(series)
    half = AverageKernelResult("synthetic", 0.0, series, report)
    assert half.p == 0.5 * report.final_value
    assert half.remainder_value == 0.5 * report.estimate.remainder
    # the report itself stays on the scale of Q
    assert half.report == report


def test_report_scaled_keeps_exact_flag():
    series = ConvergenceSeries(list(range(1, 26)), [2.0] * 25, "c")
    half = AverageKernelResult("c", 0.0, series, full_report(series))
    assert half.report.exact
    assert half.remainder_value == 0.0
    assert half.p == 1.0
