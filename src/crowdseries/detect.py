"""Collective and point anomaly detection on the decomposed series.

Collective anomalies are maximal runs where the trend exceeds
delta = median + sigma of the original series. Point anomalies come from
the generalized extreme studentized deviate test on the decomposition
residual, with detections inside collective runs discarded and survivors
ranked by residual, descending.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InsufficientDataError
from .ingest import format_timestamp
from .series import IntervalSeries
from .stl import StlDecomposition
from .studentt import t_ppf


@dataclass
class ThresholdSpec:
    """Trend threshold derived from the original series' statistics.

    Only the upper bound triggers detections; the lower bound is kept for
    plotting context bands.
    """

    median: float
    sigma: float
    upper: float = field(init=False)
    lower: float = field(init=False)
    degenerate: bool = field(init=False)

    def __post_init__(self):
        self.upper = self.median + self.sigma
        self.lower = self.median - self.sigma
        self.degenerate = self.sigma == 0


@dataclass
class CollectiveAnomaly:
    start_index: int
    end_index: int  # inclusive
    peak_trend: float
    label: str

    def covers(self, index: int) -> bool:
        return self.start_index <= index <= self.end_index


@dataclass
class PointAnomaly:
    index: int
    residual: float
    test_statistic: float
    critical_value: float
    rank: int


@dataclass
class EsdConfig:
    max_anomalies: int
    alpha: float = 0.05
    robust: bool = False  # median/MAD location-scale instead of mean/SD

    def __post_init__(self):
        if self.max_anomalies < 1:
            raise ConfigurationError("max_anomalies must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError("alpha must be in (0, 1)")

    @classmethod
    def default_for(cls, n: int, alpha: float = 0.05) -> "EsdConfig":
        return cls(max_anomalies=max(1, math.ceil(0.05 * n)), alpha=alpha)


def compute_threshold(original: IntervalSeries) -> ThresholdSpec:
    """median (linear-interpolation quantile) + population SD of the series."""
    values = np.asarray(original.values, dtype=float)
    if len(values) == 0:
        raise InsufficientDataError("cannot compute threshold on an empty series")
    return ThresholdSpec(
        median=float(np.median(values)), sigma=float(np.std(values))
    )


def collective_anomalies(trend, spec: ThresholdSpec):
    """Maximal consecutive runs with trend strictly above the upper bound."""
    trend = np.asarray(trend, dtype=float)
    above = trend > spec.upper
    runs = []
    i = 0
    n = len(above)
    while i < n:
        if not above[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and above[j + 1]:
            j += 1
        runs.append(
            CollectiveAnomaly(
                start_index=i,
                end_index=j,
                peak_trend=float(trend[i : j + 1].max()),
                label=f"collective-{len(runs) + 1}",
            )
        )
        i = j + 1
    return runs


@functools.lru_cache(maxsize=1 << 14)
def rosner_critical_value(n: int, i: int, alpha: float) -> float:
    """Two-sided lambda_i of the generalized ESD test at step i (1-based).

    Cached: both series kinds of a run share ``n`` and ``alpha``, so the
    second kind's steps reuse the first kind's Student-t quantiles.
    """
    df = n - i - 1
    tail = alpha / (n - i + 1) / 2.0
    t = t_ppf(1.0 - tail, df)
    return (n - i) * t / math.sqrt((df + t * t) * (n - i + 1))


def esd_test(values, config: EsdConfig):
    """Generalized extreme studentized deviate test (iterative removal).

    Returns the detections as (index, R_i, lambda_i) triples for the first
    k steps, where k is the largest step whose statistic exceeds its
    critical value.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n <= config.max_anomalies + 2:
        raise InsufficientDataError(
            f"need more than max_anomalies + 2 = {config.max_anomalies + 2} points"
        )
    remaining = np.ones(n, dtype=bool)
    candidates = []
    last_exceeding = 0
    for i in range(1, config.max_anomalies + 1):
        subset = values[remaining]
        if config.robust:
            center = np.median(subset)
            spread = 1.4826 * np.median(np.abs(subset - center))
        else:
            center = subset.mean()
            spread = subset.std(ddof=1)
        if spread == 0:
            break
        deviations = np.abs(values - center)
        deviations[~remaining] = -np.inf
        idx = int(np.argmax(deviations))
        statistic = deviations[idx] / spread
        critical = rosner_critical_value(n, i, config.alpha)
        candidates.append((idx, float(statistic), float(critical)))
        if statistic > critical:
            last_exceeding = i
        remaining[idx] = False
    return candidates[:last_exceeding]


def seasonal_esd(decomp: StlDecomposition, exclusions, config: EsdConfig):
    """ESD on the residual, minus points inside collective runs, ranked.

    Ranking is by signed residual, descending; ties break toward the
    earlier index.
    """
    detections = esd_test(decomp.residual, config)
    survivors = [
        (idx, stat, crit)
        for idx, stat, crit in detections
        if not any(run.covers(idx) for run in exclusions)
    ]
    survivors.sort(key=lambda item: (-decomp.residual[item[0]], item[0]))
    return [
        PointAnomaly(
            index=idx,
            residual=float(decomp.residual[idx]),
            test_statistic=stat,
            critical_value=crit,
            rank=rank,
        )
        for rank, (idx, stat, crit) in enumerate(survivors, start=1)
    ]


def build_report(
    series: IntervalSeries, spec: ThresholdSpec, collectives, points, config_echo=None
) -> dict:
    """JSON-compatible anomaly report for one series."""
    return {
        "series_kind": series.kind,
        "threshold": {
            "median": spec.median,
            "sigma": spec.sigma,
            "upper": spec.upper,
            "lower": spec.lower,
            "degenerate": spec.degenerate,
        },
        "collective": [
            {
                "start_index": run.start_index,
                "end_index": run.end_index,
                "start_timestamp": format_timestamp(series.timestamp(run.start_index)),
                "end_timestamp": format_timestamp(series.timestamp(run.end_index)),
                "peak_trend": run.peak_trend,
                "label": run.label,
            }
            for run in collectives
        ],
        "points": [
            {
                "index": p.index,
                "timestamp": format_timestamp(series.timestamp(p.index)),
                "residual": p.residual,
                "test_statistic": p.test_statistic,
                "critical_value": p.critical_value,
                "rank": p.rank,
            }
            for p in points
        ],
        "config_echo": config_echo or {},
    }
