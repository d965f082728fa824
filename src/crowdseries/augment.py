"""Backward extension of the observed series via extreme-value sampling.

Half of the observed points (seed-controlled) are grouped by
(weekday, hour, minute); each of the 672 groups yields a median and IQR.
Synthetic history is then drawn per slot from a Gumbel (count series) or
Laplace (saturation series) distribution with location = group median and
scale = quartile deviation IQR/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import ConfigurationError, InsufficientDataError, ValidationError
from .series import KIND_COUNT, STEP_15_MIN, IntervalSeries

SLOTS_PER_WEEK = 7 * 24 * 4  # 672 fifteen-minute slots


@dataclass(frozen=True)
class GroupKey:
    """One (weekday, hour, minute) slot of the weekly grid; Monday=0."""

    weekday: int
    hour: int
    minute: int

    @classmethod
    def of(cls, ts: datetime) -> "GroupKey":
        return cls(ts.weekday(), ts.hour, ts.minute)

    @classmethod
    def all_keys(cls):
        return [
            cls(w, h, m) for w in range(7) for h in range(24) for m in (0, 15, 30, 45)
        ]


@dataclass
class GroupedStats:
    """median/IQR per weekly slot; complete over all 672 keys."""

    table: dict

    def __post_init__(self):
        missing = [k for k in GroupKey.all_keys() if k not in self.table]
        if missing:
            raise ValidationError(f"{len(missing)} group keys missing", field="table")
        if any(iqr < 0 for _, iqr in self.table.values()):
            raise ValidationError("IQR must be >= 0", field="table")


@dataclass
class SeriesSample:
    """Unordered-grid sample of (timestamp, value) points from one series."""

    timestamps: list
    values: np.ndarray


def partition_for_stats(series: IntervalSeries, fraction=0.5, seed=0) -> SeriesSample:
    """Uniform without-replacement sample of ceil(fraction*n) points."""
    n = len(series)
    if n == 0:
        raise InsufficientDataError("cannot partition an empty series")
    if not 0 < fraction <= 1:
        raise ConfigurationError(f"fraction {fraction} outside (0, 1]")
    k = math.ceil(fraction * n)
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=k, replace=False))
    return SeriesSample(
        timestamps=[series.timestamp(int(i)) for i in idx],
        values=series.values[idx].copy(),
    )


def grouped_stats(subset: SeriesSample) -> GroupedStats:
    """Per-slot median and IQR (linear-interpolation quantiles).

    Slots never observed in the subset fall back to the same (hour, minute)
    pooled across weekdays, then to the global median/IQR.
    """
    if len(subset.values) == 0:
        raise InsufficientDataError("cannot compute stats on an empty sample")
    by_key = {}
    by_time_of_day = {}
    for ts, v in zip(subset.timestamps, subset.values):
        key = GroupKey.of(ts)
        by_key.setdefault(key, []).append(v)
        by_time_of_day.setdefault((key.hour, key.minute), []).append(v)

    def stats_of(values):
        arr = np.asarray(values, dtype=float)
        q1, q3 = np.percentile(arr, [25, 75])
        return float(np.median(arr)), float(q3 - q1)

    global_stats = stats_of(subset.values)
    table = {}
    for key in GroupKey.all_keys():
        if key in by_key:
            table[key] = stats_of(by_key[key])
        elif (key.hour, key.minute) in by_time_of_day:
            table[key] = stats_of(by_time_of_day[(key.hour, key.minute)])
        else:
            table[key] = global_stats
    return GroupedStats(table)


def gumbel_ppf(u: float, mu: float, beta: float) -> float:
    """Inverse of the Gumbel CDF exp(-exp(-(x-mu)/beta))."""
    return mu - beta * math.log(-math.log(u))


def laplace_ppf(u: float, mu: float, beta: float) -> float:
    """Inverse of the Laplace CDF; density (1/(2*beta))*exp(-|x-mu|/beta)."""
    half = u - 0.5
    return mu - beta * math.copysign(1.0, half) * math.log(1.0 - 2.0 * abs(half))


def extend_backward(
    series: IntervalSeries, stats: GroupedStats, weeks=8, seed=0
) -> IntervalSeries:
    """Prepend ``weeks`` weeks of synthetic history; the tail is untouched.

    Count series draw from the Gumbel, saturation series from the Laplace
    inverse CDF, one uniform per point whose slot has a positive IQR; a
    slot with zero IQR yields its median. Count values are rounded to the
    nearest integer and clamped at 0; saturation values are clamped to [0, 1].
    """
    if weeks < 1:
        raise ConfigurationError("weeks must be >= 1")
    ppf = gumbel_ppf if series.kind == KIND_COUNT else laplace_ppf
    n_synth = weeks * SLOTS_PER_WEEK
    rng = np.random.default_rng(seed)
    new_start = series.start - n_synth * STEP_15_MIN
    synth = np.empty(n_synth)
    for i in range(n_synth):
        median, iqr = stats.table[GroupKey.of(new_start + i * STEP_15_MIN)]
        beta = iqr / 2.0
        synth[i] = ppf(rng.uniform(), median, beta) if beta > 0 else median
    if series.kind == KIND_COUNT:
        synth = np.maximum(0, np.round(synth))
    else:
        synth = np.clip(synth, 0.0, 1.0)
    gaps = tuple(i + n_synth for i in series.gaps)
    return IntervalSeries(
        new_start, np.concatenate([synth, series.values]), series.kind, gaps=gaps
    )
