import numpy as np
import pytest

from conftest import utc
from crowdseries.errors import ConfigurationError, InsufficientDataError
from crowdseries.series import IntervalSeries
from crowdseries.loess import loess_smooth
from crowdseries.stl import (
    StlConfig,
    _cycle_subseries_smooth,
    default_trend_window,
    seasonal_strength,
    stl_decompose,
    stl_decompose_values,
)

PERIOD = 96


def planted(n, amplitude=10.0, ramp_range=20.0, noise=1.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    seasonal = amplitude * np.sin(2 * np.pi * t / PERIOD)
    trend = np.linspace(0.0, ramp_range, n)
    return seasonal, trend, seasonal + trend + noise * rng.normal(size=n)


class TestConfig:
    def test_windows_forced_odd(self):
        config = StlConfig(seasonal_window=672, trend_window=100)
        assert config.seasonal_window % 2 == 1
        assert config.trend_window % 2 == 1

    def test_default_trend_window_formula(self):
        assert default_trend_window(96, 673) == 145
        config = StlConfig()
        assert config.trend_window == 145

    def test_invalid_values(self):
        with pytest.raises(ConfigurationError):
            StlConfig(period=1)
        with pytest.raises(ConfigurationError):
            StlConfig(inner_iterations=0)
        with pytest.raises(ConfigurationError):
            StlConfig(outer_iterations=-1)
        with pytest.raises(ConfigurationError):
            StlConfig(loess_degree=3)


class TestDecompose:
    def test_reconstruction_identity(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=4 * 7 * PERIOD)
        d = stl_decompose_values(y, StlConfig())
        np.testing.assert_allclose(d.trend + d.seasonal + d.residual, y, atol=1e-9)

    def test_too_short_series(self):
        # every cycle subseries needs three points, so n < 3 periods is refused
        for n in (100, 192, 287):
            with pytest.raises(InsufficientDataError, match="three periods"):
                stl_decompose_values(np.zeros(n), StlConfig(period=96))

    def test_three_periods_suffice(self):
        _, _, y = planted(3 * PERIOD)
        d = stl_decompose_values(y, StlConfig())
        np.testing.assert_allclose(d.trend + d.seasonal + d.residual, y, atol=1e-9)

    def test_pure_periodic_input(self):
        t = np.arange(28 * PERIOD)
        pattern = 5.0 * np.sin(2 * np.pi * t / PERIOD)
        d = stl_decompose_values(pattern + 3.0, StlConfig())
        per_period = np.corrcoef(d.seasonal, pattern)[0, 1]
        assert per_period > 0.99
        assert abs(d.trend.mean() - 3.0) < 0.05  # trend sits near the mean
        assert np.sqrt(np.mean(d.residual**2)) < 0.05  # < 1% of amplitude

    def test_linear_ramp_no_seasonality(self):
        n = 28 * PERIOD
        ramp = np.linspace(0.0, 50.0, n)
        d = stl_decompose_values(ramp, StlConfig())
        assert np.sqrt(np.mean(d.seasonal**2)) < 0.5  # < 1% of the range
        assert np.sqrt(np.mean((d.trend - ramp) ** 2)) < 0.5

    def test_planted_recovery(self):
        seasonal, trend, y = planted(4 * 7 * PERIOD)
        d = stl_decompose_values(y, StlConfig())
        assert np.corrcoef(d.seasonal, seasonal)[0, 1] > 0.99
        assert np.sqrt(np.mean((d.trend - trend) ** 2)) < 0.03 * 20.0

    def test_seasonal_period_stable_when_not_robust(self):
        t = np.arange(21 * PERIOD)
        y = np.sin(2 * np.pi * t / PERIOD)
        d = stl_decompose_values(y, StlConfig(outer_iterations=0))
        diff = np.abs(d.seasonal[PERIOD:] - d.seasonal[:-PERIOD])
        assert diff.max() < 1e-6 * np.abs(d.seasonal).max()

    def test_location_equivariance(self):
        _, _, y = planted(3 * 7 * PERIOD, seed=2)
        base = stl_decompose_values(y, StlConfig())
        shifted = stl_decompose_values(y + 11.0, StlConfig())
        np.testing.assert_allclose(shifted.seasonal, base.seasonal, atol=1e-6)
        np.testing.assert_allclose(shifted.residual, base.residual, atol=1e-6)
        np.testing.assert_allclose(shifted.trend, base.trend + 11.0, atol=1e-6)

    def test_series_wrapper(self):
        _, _, y = planted(2 * 7 * PERIOD, seed=3)
        series = IntervalSeries(utc(2023, 9, 4), np.maximum(0, np.round(y)), "count")
        d = stl_decompose(series, StlConfig())
        np.testing.assert_allclose(
            d.trend + d.seasonal + d.residual, series.values, atol=1e-9
        )


def _subseries_one_by_one(detrended, period, window, degree, rho):
    """Reference: fit each cycle subseries on its own, extended one cycle each way."""
    n = len(detrended)
    extended = np.empty(n + 2 * period)
    for k in range(period):
        sub = detrended[k::period]
        m = len(sub)
        sub_rho = None if rho is None else rho[k::period]
        xs = np.arange(m, dtype=float)
        eval_pts = np.arange(-1, m + 1, dtype=float)
        fitted = loess_smooth(xs, sub, eval_pts, min(window, m), degree, sub_rho)
        extended[k::period][: m + 2] = fitted
    return extended


class TestCycleSubseries:
    # (n, period, window): ragged with window >= m, ragged with window < m,
    # and divisible with window < m, which the full-window batch cannot take
    @pytest.mark.parametrize(
        "n, period, window", [(7 * 20 + 3, 7, 41), (7 * 20 + 3, 7, 11), (7 * 20, 7, 11)]
    )
    @pytest.mark.parametrize("degree", [0, 1])
    @pytest.mark.parametrize("robust", [False, True], ids=["plain", "robust"])
    def test_grouped_fit_matches_one_by_one(self, n, period, window, degree, robust):
        rng = np.random.default_rng(n + window)
        detrended = np.sin(np.arange(n) * 2 * np.pi / period) + rng.normal(0, 0.5, n)
        rho = rng.uniform(0.0, 1.0, n) if robust else None
        out = _cycle_subseries_smooth(detrended, period, window, degree, rho)
        ref = _subseries_one_by_one(detrended, period, window, degree, rho)
        assert [v.hex() for v in out] == [v.hex() for v in ref]

    def test_deep_history_memory_stays_bounded(self):
        # 54 weeks at 15 minutes; the robust trend pass once held several
        # n x 145 temporaries (245 MB traced), now blocks of 2^17 cells
        import tracemalloc

        _, _, y = planted(54 * 7 * PERIOD)
        tracemalloc.start()
        try:
            stl_decompose_values(y, StlConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


class TestSeasonalStrength:
    def test_pure_seasonal_near_one(self):
        t = np.arange(21 * PERIOD)
        d = stl_decompose_values(np.sin(2 * np.pi * t / PERIOD), StlConfig())
        strength, degenerate = seasonal_strength(d)
        assert not degenerate
        assert strength > 0.99

    def test_white_noise_near_zero(self):
        rng = np.random.default_rng(10)
        d = stl_decompose_values(rng.normal(size=2000), StlConfig(period=96))
        strength, degenerate = seasonal_strength(d)
        assert not degenerate
        assert strength < 0.2

    def test_zero_series_degenerate(self):
        d = stl_decompose_values(np.zeros(4 * PERIOD), StlConfig())
        strength, degenerate = seasonal_strength(d)
        assert strength == 0.0
        assert degenerate
