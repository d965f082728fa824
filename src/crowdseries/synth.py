"""Synthetic detection-log generator for pipeline fixtures.

Emits per-interval segment CSVs whose aggregated series realize a known
scenario: a baseline daily profile with optional Poisson jitter, elevated
plateaus (collective-anomaly templates) and single-interval spikes
(point-anomaly templates). The intended per-interval counts are returned
alongside, so tests can recount the emitted files against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ValidationError
from .ingest import (
    DetectionRecord,
    FrameGeometry,
    MaskGeometry,
    serialize_records,
)
from .series import STEP_15_MIN

SLOTS_PER_DAY = 96


@dataclass
class SyntheticScenario:
    start: datetime
    weeks: int
    daily_profile: list  # 96 baseline counts, one per 15-minute slot
    planted_plateaus: list = field(default_factory=list)  # (start, end, multiplier)
    planted_spikes: list = field(default_factory=list)  # (timestamp, magnitude)
    noise_seed: int | None = None  # None: no jitter, counts are exact
    geometry: FrameGeometry = field(
        default_factory=lambda: FrameGeometry(width=64, height=36, fps=1.0)
    )

    def __post_init__(self):
        if self.weeks < 1:
            raise ConfigurationError("weeks must be >= 1")
        if len(self.daily_profile) != SLOTS_PER_DAY:
            raise ConfigurationError(
                f"daily_profile needs {SLOTS_PER_DAY} values, got {len(self.daily_profile)}"
            )
        end = self.end
        for p_start, p_end, _ in self.planted_plateaus:
            if not (self.start <= p_start < p_end <= end):
                raise ValidationError(
                    f"plateau ({p_start}, {p_end}) outside horizon", field="planted_plateaus"
                )
        for ts, _ in self.planted_spikes:
            if not self.start <= ts < end:
                raise ValidationError(
                    f"spike at {ts} outside horizon", field="planted_spikes"
                )

    @property
    def n_intervals(self) -> int:
        return self.weeks * 7 * SLOTS_PER_DAY

    @property
    def end(self) -> datetime:
        return self.start + self.n_intervals * STEP_15_MIN

    def intended_counts(self) -> np.ndarray:
        """Per-interval counts the emitted files will realize."""
        rng = None if self.noise_seed is None else np.random.default_rng(self.noise_seed)
        counts = np.empty(self.n_intervals, dtype=int)
        for i in range(self.n_intervals):
            ts = self.start + i * STEP_15_MIN
            slot = i % SLOTS_PER_DAY
            base = float(self.daily_profile[slot])
            count = int(rng.poisson(base)) if rng is not None else int(round(base))
            for p_start, p_end, multiplier in self.planted_plateaus:
                if p_start <= ts < p_end:
                    count = int(round(count * multiplier))
            for spike_ts, magnitude in self.planted_spikes:
                if ts == spike_ts:
                    count += int(magnitude)
            counts[i] = count
        return counts


def _box_mask(k: int, geometry: FrameGeometry) -> MaskGeometry:
    # disjoint 2x2 boxes tiled across the frame, so saturation tracks count;
    # the last row/column stays free so vertices remain inside the frame
    per_row = (geometry.width - 1) // 2
    capacity = per_row * ((geometry.height - 1) // 2)
    if k >= capacity:
        raise ValidationError(
            f"interval count exceeds frame capacity {capacity}", field="daily_profile"
        )
    x = (k % per_row) * 2
    y = (k // per_row) * 2
    return MaskGeometry(((x, y), (x + 2, y), (x + 2, y + 2), (x, y + 2)))


def segment_file_name(ts: datetime) -> str:
    return ts.strftime("%Y%m%d_%H%M") + ".csv"


def generate_fixture(scenario: SyntheticScenario, output_dir) -> np.ndarray:
    """Write one segment CSV per interval; returns the intended counts."""
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    counts = scenario.intended_counts()
    for i, count in enumerate(counts):
        ts = scenario.start + i * STEP_15_MIN
        records = []
        for k in range(count):
            mask = _box_mask(k, scenario.geometry)
            (x, y) = mask.polygon[0]
            records.append(
                DetectionRecord(
                    timestamp=ts,
                    class_id=0,
                    class_name="person",
                    confidence=0.9,
                    bbox=(x, y, x + 2, y + 2),
                    mask=mask,
                )
            )
        (output_dir / segment_file_name(ts)).write_text(serialize_records(records))
    return counts
