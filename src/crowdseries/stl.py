"""Seasonal-trend decomposition built on the local regression smoother.

Follows the classic inner/outer loop design: detrend, smooth each cycle
subseries, low-pass filter the preliminary seasonal, deseasonalize, smooth
the trend; outer passes derive bisquare robustness weights from the
residual. The residual is defined by subtraction, so
trend + seasonal + residual reconstructs the input exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InsufficientDataError
from .loess import loess_smooth, tricube
from .series import IntervalSeries


def _force_odd(n: int) -> int:
    return n if n % 2 == 1 else n + 1


def default_trend_window(period: int, seasonal_window: int) -> int:
    """Smallest odd integer >= 1.5*period / (1 - 1.5/seasonal_window)."""
    raw = 1.5 * period / (1.0 - 1.5 / seasonal_window)
    return _force_odd(int(np.ceil(raw)))


@dataclass
class StlConfig:
    period: int = 96  # 1 day at 15-minute intervals
    seasonal_window: int = 673  # ~1 week of samples, forced odd
    trend_window: int | None = None
    lowpass_window: int | None = None
    inner_iterations: int = 2
    outer_iterations: int = 1
    loess_degree: int = 1

    def __post_init__(self):
        if self.period < 2:
            raise ConfigurationError("period must be >= 2")
        self.seasonal_window = _force_odd(max(3, self.seasonal_window))
        if self.trend_window is None:
            self.trend_window = default_trend_window(self.period, self.seasonal_window)
        self.trend_window = _force_odd(max(3, self.trend_window))
        if self.lowpass_window is None:
            self.lowpass_window = _force_odd(max(3, self.period))
        self.lowpass_window = _force_odd(max(3, self.lowpass_window))
        if self.inner_iterations < 1:
            raise ConfigurationError("inner_iterations must be >= 1")
        if self.outer_iterations < 0:
            raise ConfigurationError("outer_iterations must be >= 0")
        if self.loess_degree not in (0, 1):
            raise ConfigurationError("loess_degree must be 0 or 1")


@dataclass
class StlDecomposition:
    trend: np.ndarray
    seasonal: np.ndarray
    residual: np.ndarray


def _moving_average(values, width):
    kernel = np.full(width, 1.0 / width)
    return np.convolve(values, kernel, mode="valid")


def _bisquare(u):
    u = np.clip(np.abs(u), 0.0, 1.0)
    return (1.0 - u**2) ** 2


def _smooth(y, window, degree, rho=None):
    x = np.arange(len(y), dtype=float)
    return loess_smooth(x, y, x, window, degree, rho)


def _batched_subseries_fit(subs, rho, evals, degree):
    """Full-window local fits for all subseries at once.

    ``subs`` and ``rho`` hold one subseries per column (shape m x period);
    since every fit spans the whole subseries, the tricube weights per
    evaluation point are shared across subseries and the weighted sums
    become small matrix products. Returns fitted values, one row per
    evaluation point.
    """
    m = subs.shape[0]
    xs = np.arange(m, dtype=float)
    xc = xs[None, :] - evals[:, None]
    d = np.abs(xc)
    w = tricube(d / d.max(axis=1, keepdims=True))
    sw = w @ rho
    swy = w @ (rho * subs)
    mean = np.where(sw > 0, swy / np.where(sw == 0, 1.0, sw), subs.mean(axis=0)[None, :])
    if degree == 0:
        return mean
    wxc = w * xc
    swx = wxc @ rho
    swxx = (wxc * xc) @ rho
    swxy = wxc @ (rho * subs)
    denom = sw * swxx - swx * swx
    ok = (sw > 0) & (denom > 1e-12 * np.abs(sw * swxx))
    fitted = (swxx * swy - swx * swxy) / np.where(ok, denom, 1.0)
    return np.where(ok, fitted, mean)


def _cycle_subseries_smooth(detrended, period, window, degree, rho):
    """Smooth each of the ``period`` subseries, extended one cycle each way."""
    n = len(detrended)
    m_full, remainder = divmod(n, period)
    if remainder == 0 and window >= m_full:
        subs = detrended.reshape(m_full, period)
        weights = np.ones_like(subs) if rho is None else rho.reshape(m_full, period)
        evals = np.arange(-1, m_full + 1, dtype=float)
        # row j, column k of the fit is time k + j*period in the extended
        # array (shifted one cycle), which is exactly row-major order
        return _batched_subseries_fit(subs, weights, evals, degree).reshape(-1)
    # subseries k < remainder have m_full + 1 points, the rest m_full; each
    # group shares its x grid, so one call fits all of its subseries
    extended = np.empty(n + 2 * period)
    for first, stop, m in ((0, remainder, m_full + 1), (remainder, period, m_full)):
        if first == stop:
            continue
        cols = np.arange(first, stop)[:, None]
        at = cols + period * np.arange(m)  # row k holds times k, k + period, ...
        xs = np.arange(m, dtype=float)
        eval_pts = np.arange(-1, m + 1, dtype=float)
        sub_rho = None if rho is None else rho[at]
        fitted = loess_smooth(xs, detrended[at], eval_pts, min(window, m), degree, sub_rho)
        # eval position j maps to time k + j*period; the array is shifted by
        # one period so the leading extrapolated cycle lands at index k
        extended[cols + period * np.arange(m + 2)] = fitted
    return extended


def _lowpass(extended, n, period, window, degree):
    smoothed = _moving_average(extended, period)
    smoothed = _moving_average(smoothed, period)
    smoothed = _moving_average(smoothed, 3)
    assert len(smoothed) == n
    return _smooth(smoothed, window, degree)


def stl_decompose_values(y, config: StlConfig) -> StlDecomposition:
    """Decompose a plain value array; see stl_decompose for series input."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    p = config.period
    if n < 3 * p:  # every cycle subseries needs three points for a local fit
        raise InsufficientDataError(
            f"series length {n} shorter than three periods ({3 * p})"
        )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # window clamping inside subseries fits
        trend = np.zeros(n)
        seasonal = np.zeros(n)
        rho = None
        for outer in range(config.outer_iterations + 1):
            for _ in range(config.inner_iterations):
                detrended = y - trend
                extended = _cycle_subseries_smooth(
                    detrended, p, config.seasonal_window, config.loess_degree, rho
                )
                low = _lowpass(extended, n, p, config.lowpass_window, config.loess_degree)
                seasonal = extended[p : p + n] - low
                trend = _smooth(
                    y - seasonal, config.trend_window, config.loess_degree, rho
                )
            if outer < config.outer_iterations:
                residual = y - trend - seasonal
                scale = 6.0 * np.median(np.abs(residual))
                rho = (
                    np.ones(n) if scale == 0 else _bisquare(residual / scale)
                )
    residual = y - trend - seasonal
    return StlDecomposition(trend, seasonal, residual)


def stl_decompose(series: IntervalSeries, config: StlConfig) -> StlDecomposition:
    return stl_decompose_values(series.values, config)


def seasonal_strength(decomp: StlDecomposition):
    """1 - Var(residual)/Var(residual+seasonal), clamped to [0, 1].

    Returns (strength, degenerate_flag); degenerate means the denominator
    variance is zero.
    """
    denom = np.var(decomp.residual + decomp.seasonal)
    if denom == 0:
        return 0.0, True
    strength = 1.0 - np.var(decomp.residual) / denom
    return float(np.clip(strength, 0.0, 1.0)), False
