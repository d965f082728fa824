import math
from datetime import timedelta

import numpy as np
import pytest
from scipy import stats as scipy_stats

from conftest import utc
from crowdseries.augment import (
    SLOTS_PER_WEEK,
    GroupedStats,
    GroupKey,
    SeriesSample,
    extend_backward,
    grouped_stats,
    gumbel_ppf,
    laplace_ppf,
    partition_for_stats,
)
from crowdseries.errors import InsufficientDataError, ValidationError
from crowdseries.series import IntervalSeries

MONDAY = utc(2023, 9, 4)  # weekday 0, 00:00


def count_series_of(values, start=MONDAY):
    return IntervalSeries(start, np.asarray(values, dtype=float), "count")


class TestPartition:
    def test_fraction_one_is_identity(self):
        s = count_series_of(np.arange(10))
        sample = partition_for_stats(s, fraction=1.0, seed=0)
        np.testing.assert_array_equal(sample.values, s.values)

    def test_half_of_100(self):
        s = count_series_of(np.arange(100))
        sample = partition_for_stats(s, fraction=0.5, seed=1)
        assert len(sample.values) == 50
        assert set(sample.values) <= set(range(100))

    def test_ceil_cardinality(self):
        s = count_series_of(np.arange(7))
        assert len(partition_for_stats(s, fraction=0.5, seed=0).values) == 4

    def test_deterministic_under_seed(self):
        s = count_series_of(np.arange(50))
        a = partition_for_stats(s, seed=42)
        b = partition_for_stats(s, seed=42)
        assert a.timestamps == b.timestamps
        np.testing.assert_array_equal(a.values, b.values)

    def test_empty_series_rejected(self):
        s = count_series_of([])
        with pytest.raises(InsufficientDataError):
            partition_for_stats(s)


class TestGroupedStats:
    def test_hand_computed_median_iqr(self):
        # five Mondays at 00:00 with values 1..5 -> median 3, IQR 2
        timestamps = [MONDAY + timedelta(weeks=w) for w in range(5)]
        sample = SeriesSample(timestamps, np.array([1.0, 2, 3, 4, 5]))
        stats = grouped_stats(sample)
        assert stats.table[GroupKey(0, 0, 0)] == (3.0, 2.0)

    def test_single_value_group(self):
        sample = SeriesSample([MONDAY], np.array([4.0]))
        stats = grouped_stats(sample)
        assert stats.table[GroupKey(0, 0, 0)] == (4.0, 0.0)

    def test_constant_series(self):
        s = count_series_of(np.full(2 * SLOTS_PER_WEEK, 7.0))
        stats = grouped_stats(partition_for_stats(s, 1.0, seed=0))
        assert all(v == (7.0, 0.0) for v in stats.table.values())

    def test_fallback_pools_same_time_of_day(self):
        # only Monday 00:00 observed; Tuesday 00:00 pools across weekdays
        sample = SeriesSample([MONDAY, MONDAY + timedelta(weeks=1)], np.array([2.0, 4.0]))
        stats = grouped_stats(sample)
        assert stats.table[GroupKey(1, 0, 0)] == (3.0, 1.0)

    def test_fallback_global_for_unseen_time_of_day(self):
        sample = SeriesSample([MONDAY], np.array([5.0]))
        stats = grouped_stats(sample)
        assert stats.table[GroupKey(3, 12, 30)] == (5.0, 0.0)

    def test_complete_table(self):
        sample = SeriesSample([MONDAY], np.array([1.0]))
        assert len(grouped_stats(sample).table) == 672

    def test_negative_iqr_rejected(self):
        table = {k: (1.0, 0.0) for k in GroupKey.all_keys()}
        table[GroupKey(2, 8, 45)] = (1.0, -0.5)
        with pytest.raises(ValidationError):
            GroupedStats(table)


class TestSamplers:
    def test_gumbel_fixed_u_at_mu(self):
        # u = 1/e maps to the location parameter: CDF(mu) = exp(-1)
        assert gumbel_ppf(1 / math.e, mu=3.0, beta=2.0) == pytest.approx(3.0)

    def test_laplace_median(self):
        assert laplace_ppf(0.5, mu=-1.5, beta=0.7) == -1.5

    def test_gumbel_empirical_median(self):
        mu, beta, n = 5.0, 2.0, 100_000
        rng = np.random.default_rng(11)
        samples = np.array([gumbel_ppf(rng.uniform(), mu, beta) for _ in range(n)])
        expected = mu - beta * math.log(math.log(2))
        se = beta / (math.log(2) * math.sqrt(n))
        assert abs(np.median(samples) - expected) < 3 * se

    def test_gumbel_variance_shrinks_with_beta(self):
        rng = np.random.default_rng(12)
        variances = []
        for beta in (3.0, 2.0, 1.0, 0.5):
            samples = np.array([gumbel_ppf(rng.uniform(), 0.0, beta) for _ in range(100_000)])
            variances.append(samples.var())
            # analytic variance is pi^2 beta^2 / 6
            assert samples.var() == pytest.approx(math.pi**2 * beta**2 / 6, rel=0.05)
        assert variances == sorted(variances, reverse=True)

    def test_laplace_empirical_iqr(self):
        mu, beta, n = 1.0, 0.5, 100_000
        rng = np.random.default_rng(13)
        samples = np.array([laplace_ppf(rng.uniform(), mu, beta) for _ in range(n)])
        expected = 2 * beta * math.log(2)
        se = math.sqrt(6) * beta / math.sqrt(n)
        q1, q3 = np.percentile(samples, [25, 75])
        assert abs((q3 - q1) - expected) < 3 * se

    def test_laplace_empirical_mean(self):
        mu, beta, n = -2.0, 1.5, 100_000
        rng = np.random.default_rng(14)
        samples = np.array([laplace_ppf(rng.uniform(), mu, beta) for _ in range(n)])
        se = math.sqrt(2) * beta / math.sqrt(n)  # Laplace SD is sqrt(2)*beta
        assert abs(samples.mean() - mu) < 3 * se

    def test_gumbel_ks_against_analytic_cdf(self):
        rng = np.random.default_rng(15)
        samples = [gumbel_ppf(rng.uniform(), 2.0, 1.5) for _ in range(100_000)]
        cdf = lambda x: np.exp(-np.exp(-(np.asarray(x) - 2.0) / 1.5))
        assert scipy_stats.kstest(samples, cdf).pvalue > 0.01

    def test_laplace_ks_against_analytic_cdf(self):
        rng = np.random.default_rng(16)
        samples = [laplace_ppf(rng.uniform(), -1.0, 0.8) for _ in range(100_000)]
        assert scipy_stats.kstest(samples, scipy_stats.laplace(-1.0, 0.8).cdf).pvalue > 0.01


class TestExtendBackward:
    def test_prepends_8_weeks_of_15_min_slots(self):
        s = count_series_of(np.arange(100) % 5)
        stats = grouped_stats(partition_for_stats(s, seed=0))
        extended = extend_backward(s, stats, weeks=8, seed=0)
        assert len(extended) == 8 * SLOTS_PER_WEEK + 100
        assert 8 * SLOTS_PER_WEEK == 5376

    def test_tail_is_untouched(self):
        s = count_series_of(np.arange(200) % 7)
        stats = grouped_stats(partition_for_stats(s, seed=1))
        extended = extend_backward(s, stats, weeks=2, seed=1)
        np.testing.assert_array_equal(extended.values[-200:], s.values)
        assert extended.timestamp(2 * SLOTS_PER_WEEK) == s.start

    def test_all_zero_stats_give_zero_synthetics(self):
        s = count_series_of(np.zeros(50))
        stats = grouped_stats(partition_for_stats(s, 1.0, seed=0))
        extended = extend_backward(s, stats, weeks=1, seed=0)
        assert not extended.values[:SLOTS_PER_WEEK].any()

    def test_count_values_are_non_negative_integers(self):
        s = count_series_of(np.arange(300) % 9)
        stats = grouped_stats(partition_for_stats(s, seed=2))
        extended = extend_backward(s, stats, weeks=3, seed=2)
        synth = extended.values[: 3 * SLOTS_PER_WEEK]
        assert (synth >= 0).all()
        np.testing.assert_array_equal(synth, np.round(synth))

    def test_saturation_values_clamped(self):
        rng = np.random.default_rng(3)
        s = IntervalSeries(MONDAY, rng.uniform(0, 0.01, 400), "saturation")
        stats = grouped_stats(partition_for_stats(s, seed=3))
        extended = extend_backward(s, stats, weeks=2, seed=3)
        assert (extended.values >= 0).all() and (extended.values <= 1).all()

    def test_deterministic_under_seed(self):
        s = count_series_of(np.arange(100) % 4)
        stats = grouped_stats(partition_for_stats(s, seed=5))
        a = extend_backward(s, stats, weeks=1, seed=9)
        b = extend_backward(s, stats, weeks=1, seed=9)
        np.testing.assert_array_equal(a.values, b.values)

    def test_synthetic_groups_track_stats_medians(self):
        # constant per-group stats: pooled synthetic median must sit near the
        # analytic Gumbel median of that (mu, beta)
        mu, iqr = 50.0, 8.0
        table = {k: (mu, iqr) for k in GroupKey.all_keys()}
        stats = GroupedStats(table)
        s = count_series_of(np.full(10, mu))
        extended = extend_backward(s, stats, weeks=8, seed=21)
        synth = extended.values[: 8 * SLOTS_PER_WEEK]
        beta = iqr / 2
        expected = mu - beta * math.log(math.log(2))
        # rounding to integers adds at most 0.5 of bias
        assert abs(np.median(synth) - expected) < 0.5 + 3 * beta / (
            math.log(2) * math.sqrt(len(synth))
        )

    def test_default_family_follows_kind(self):
        # count draws through the Gumbel, saturation through the Laplace
        # inverse CDF: one uniform per synthetic point, in grid order
        for kind, ppf, mu, iqr in (
            ("count", gumbel_ppf, 50.0, 8.0),
            ("saturation", laplace_ppf, 0.5, 0.2),
        ):
            stats = GroupedStats({k: (mu, iqr) for k in GroupKey.all_keys()})
            s = IntervalSeries(MONDAY, np.full(10, mu), kind)
            extended = extend_backward(s, stats, weeks=1, seed=4)
            rng = np.random.default_rng(4)
            draws = np.array([ppf(rng.uniform(), mu, iqr / 2) for _ in range(SLOTS_PER_WEEK)])
            if kind == "count":
                expected = np.maximum(0, np.round(draws))
            else:
                expected = np.clip(draws, 0.0, 1.0)
            np.testing.assert_array_equal(extended.values[:SLOTS_PER_WEEK], expected)
