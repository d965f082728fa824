import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from conftest import utc
from crowdseries.detect import (
    CollectiveAnomaly,
    EsdConfig,
    build_report,
    collective_anomalies,
    compute_threshold,
    esd_test,
    rosner_critical_value,
    seasonal_esd,
)
from crowdseries.errors import ConfigurationError, InsufficientDataError
from crowdseries.ingest import format_timestamp
from crowdseries.series import IntervalSeries
from crowdseries.stl import StlConfig, StlDecomposition, stl_decompose_values


def rosner_lambda_oracle(n, i, alpha):
    p = 1 - alpha / (2 * (n - i + 1))
    t = scipy_stats.t.ppf(p, n - i - 1)
    return (n - i) * t / math.sqrt((n - i - 1 + t * t) * (n - i + 1))


def series_of(values, kind="count"):
    return IntervalSeries(utc(2023, 9, 4), np.asarray(values, float), kind)


class TestThreshold:
    def test_hand_computed(self):
        spec = compute_threshold(series_of([0, 0, 0, 10]))
        assert spec.median == 0.0
        assert spec.sigma == pytest.approx(4.330127, abs=1e-6)
        assert spec.upper == pytest.approx(4.330127, abs=1e-6)
        assert spec.lower == pytest.approx(-4.330127, abs=1e-6)

    def test_constant_series_degenerate(self):
        spec = compute_threshold(series_of([3, 3, 3]))
        assert spec.upper == 3.0
        assert spec.degenerate

    def test_offset_equivariance(self):
        base = compute_threshold(series_of([1, 5, 2, 9, 4]))
        shifted = compute_threshold(series_of([1 + 7, 5 + 7, 2 + 7, 9 + 7, 4 + 7]))
        assert shifted.upper == pytest.approx(base.upper + 7)

    def test_empty_series(self):
        with pytest.raises(InsufficientDataError):
            compute_threshold(series_of([]))


class TestCollectiveAnomalies:
    def test_all_below_threshold(self):
        spec = compute_threshold(series_of([0, 0, 0, 10]))
        assert collective_anomalies([0, 1, 2, 3], spec) == []

    def test_single_run(self):
        spec = compute_threshold(series_of([0, 0, 0, 10]))  # upper ~= 4.33
        runs = collective_anomalies([0, 5, 6, 0], spec)
        assert len(runs) == 1
        assert (runs[0].start_index, runs[0].end_index) == (1, 2)
        assert runs[0].peak_trend == 6.0

    def test_runs_are_maximal_and_disjoint(self):
        spec = compute_threshold(series_of([0, 0, 0, 10]))
        trend = [5, 5, 0, 5, 0, 0, 5, 5, 5]
        runs = collective_anomalies(trend, spec)
        spans = [(r.start_index, r.end_index) for r in runs]
        assert spans == [(0, 1), (3, 3), (6, 8)]
        covered = {i for r in runs for i in range(r.start_index, r.end_index + 1)}
        assert covered == {i for i, v in enumerate(trend) if v > spec.upper}

    def test_planted_plateau_overlap(self):
        # two elevated days inside three weeks of daily pattern
        period = 96
        n = 21 * period
        t = np.arange(n)
        y = 5 + 2 * np.sin(2 * np.pi * t / period)
        lo, hi = 10 * period, 12 * period
        y[lo:hi] *= 5
        decomp = stl_decompose_values(y, StlConfig())
        spec = compute_threshold(series_of(np.round(np.maximum(y, 0))))
        runs = collective_anomalies(decomp.trend, spec)
        detected = {i for r in runs for i in range(r.start_index, r.end_index + 1)}
        planted = set(range(lo, hi))
        jaccard = len(detected & planted) / len(detected | planted)
        assert jaccard > 0.7


class TestEsdTest:
    def test_critical_values_match_oracle(self):
        for i in (1, 2, 3):
            assert rosner_critical_value(54, i, 0.05) == pytest.approx(
                rosner_lambda_oracle(54, i, 0.05), abs=1e-6
            )

    def test_planted_outliers_recovered_exactly(self):
        rng = np.random.default_rng(17)
        values = rng.normal(size=1000)
        planted = [50, 333, 512, 740, 901]
        for j, idx in enumerate(planted):
            values[idx] = 8.0 if j % 2 == 0 else -8.0
        detections = esd_test(values, EsdConfig(max_anomalies=50, alpha=0.05))
        assert sorted(d[0] for d in detections) == planted

    def test_all_equal_no_detections(self):
        assert esd_test(np.full(30, 2.0), EsdConfig(max_anomalies=5)) == []

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            esd_test(np.arange(5), EsdConfig(max_anomalies=5))

    def test_statistic_exceeds_critical_at_detection(self):
        rng = np.random.default_rng(18)
        values = rng.normal(size=200)
        values[13] = 10.0
        detections = esd_test(values, EsdConfig(max_anomalies=10))
        assert detections
        for _, statistic, critical in detections:
            pass
        # the last reported step must itself exceed its critical value
        assert detections[-1][1] > detections[-1][2]

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.1, 50), st.floats(-100, 100))
    def test_affine_invariance(self, scale, offset):
        rng = np.random.default_rng(19)
        values = rng.normal(size=120)
        values[7] = 9.0
        values[90] = -7.5
        config = EsdConfig(max_anomalies=6)
        base = esd_test(values, config)
        transformed = esd_test(scale * values + offset, config)
        assert [d[0] for d in base] == [d[0] for d in transformed]
        for (_, r1, _), (_, r2, _) in zip(base, transformed):
            assert r1 == pytest.approx(r2, rel=1e-9)

    def test_robust_variant_runs(self):
        rng = np.random.default_rng(21)
        values = rng.normal(size=300)
        values[5] = 12.0
        detections = esd_test(values, EsdConfig(max_anomalies=10, robust=True))
        assert 5 in [d[0] for d in detections]

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            EsdConfig(max_anomalies=0)
        with pytest.raises(ConfigurationError):
            EsdConfig(max_anomalies=5, alpha=1.5)


class TestSeasonalEsd:
    def _decomp_with_spike(self, n=2000, spikes=(), period=96):
        t = np.arange(n)
        y = 10 + 3 * np.sin(2 * np.pi * t / period)
        rng = np.random.default_rng(22)
        y = y + 0.3 * rng.normal(size=n)
        for idx, magnitude in spikes:
            y[idx] += magnitude
        return stl_decompose_values(y, StlConfig()), y

    def test_single_spike_is_rank_one(self):
        decomp, y = self._decomp_with_spike(spikes=[(777, 30.0)])
        points = seasonal_esd(decomp, [], EsdConfig(max_anomalies=40))
        assert points[0].index == 777
        assert points[0].rank == 1
        series = series_of(np.round(y))
        report = build_report(series, compute_threshold(series), [], points)
        assert report["points"][0]["timestamp"] == format_timestamp(series.timestamp(777))

    def test_exclusion_removes_inside_detections(self):
        decomp, _ = self._decomp_with_spike(spikes=[(500, 30.0), (1500, 25.0)])
        run = CollectiveAnomaly(480, 520, peak_trend=0.0, label="x")
        points = seasonal_esd(decomp, [run], EsdConfig(max_anomalies=40))
        indices = [p.index for p in points]
        assert 500 not in indices
        assert 1500 in indices
        # pre-exclusion the test still fires inside the excluded run
        raw = esd_test(decomp.residual, EsdConfig(max_anomalies=40))
        assert 500 in [d[0] for d in raw]

    def test_all_detections_excluded(self):
        decomp, _ = self._decomp_with_spike(spikes=[(600, 40.0)])
        run = CollectiveAnomaly(0, 1999, peak_trend=0.0, label="everything")
        assert seasonal_esd(decomp, [run], EsdConfig(max_anomalies=20)) == []

    def test_ranking_descends_in_residual(self):
        decomp, _ = self._decomp_with_spike(
            spikes=[(300, 20.0), (900, 35.0), (1600, 27.0)]
        )
        points = seasonal_esd(decomp, [], EsdConfig(max_anomalies=40))
        residuals = [p.residual for p in points]
        assert residuals == sorted(residuals, reverse=True)
        assert [p.rank for p in points] == list(range(1, len(points) + 1))
