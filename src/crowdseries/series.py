"""Aggregation of detection records into 15-minute interval series.

Two series are produced per input directory: the per-interval maximum of
the per-frame people counts, and the heatmap saturation percentage (sum of
the interval's normalized occupancy map over its theoretical maximum).

Masks are rasterized and accumulated inside their own bounding boxes; only
the final saturation sum visits the whole frame. That sum is taken over the
frame-sized grid of ``raw * (255 / frames)``, not as the cell-count total
times ``255 / frames``: the two round differently whenever the scale is not
a dyadic fraction (900 frames at 1 fps), and the grid-sum order keeps the
stored saturation series byte-identical to earlier releases.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from .errors import AlignmentError, DegenerateMaskError, ValidationError
from .ingest import FrameGeometry, rasterize_mask

STEP_15_MIN = timedelta(minutes=15)

KIND_COUNT = "count"
KIND_SATURATION = "saturation"


@dataclass
class IntervalSeries:
    """Series on the 15-minute grid; t_i = start + i * STEP_15_MIN, no gaps in the grid.

    Intervals with no data are zero-filled and listed in ``gaps``.
    """

    start: datetime
    values: np.ndarray
    kind: str
    gaps: tuple = ()

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("series values must be finite", field="values")
        if self.kind == KIND_COUNT:
            if np.any(self.values < 0) or np.any(self.values != np.round(self.values)):
                raise ValidationError(
                    "count series must hold non-negative integers", field="values"
                )
        elif self.kind == KIND_SATURATION:
            if np.any(self.values < 0) or np.any(self.values > 1):
                raise ValidationError(
                    "saturation series must lie in [0, 1]", field="values"
                )
        else:
            raise ValidationError(f"unknown series kind {self.kind!r}", field="kind")

    def __len__(self):
        return len(self.values)

    def timestamp(self, i: int) -> datetime:
        return self.start + i * STEP_15_MIN

    def index_of(self, ts: datetime) -> int:
        delta = ts - self.start
        if delta % STEP_15_MIN != timedelta(0):
            raise AlignmentError(f"{ts} not aligned to {STEP_15_MIN} grid")
        return delta // STEP_15_MIN


def per_frame_counts(records):
    """Number of detections per distinct frame timestamp."""
    return dict(Counter(r.timestamp for r in records))


def _check_window(window):
    start, end = window
    if (end - start) % STEP_15_MIN != timedelta(0) or end <= start:
        raise AlignmentError(f"window {window} not aligned to step {STEP_15_MIN}")


def count_series(records, window) -> IntervalSeries:
    """Max per-frame detection count in each interval of the window.

    The maximum (rather than mean or median) absorbs frames where the
    detector missed people. Intervals without detections get 0 and a gap
    flag.
    """
    _check_window(window)
    start, end = window
    n = (end - start) // STEP_15_MIN
    frame_counts = per_frame_counts(records)
    values = np.zeros(n)
    seen = np.zeros(n, dtype=bool)
    for ts, count in frame_counts.items():
        if ts < start or ts >= end:
            continue
        i = (ts - start) // STEP_15_MIN
        values[i] = max(values[i], count)
        seen[i] = True
    gaps = tuple(int(i) for i in np.nonzero(~seen)[0])
    return IntervalSeries(start, values, KIND_COUNT, gaps=gaps)


def accumulate_heatmap(records, geometry: FrameGeometry, frames: int) -> np.ndarray:
    """Count, per cell, the frames of one interval that occupy it.

    Returns the float64 ``raw`` grid of the frame's shape. Masks of the same
    frame are unioned first, so a cell can contribute at most once per
    frame and a cell occupied in every frame reaches ``frames``. Each mask
    touches the map only inside its own bounding box; ``seen`` marks the
    cells the current frame has already counted and is cleared box by box
    before the next frame.
    """
    if frames <= 0:
        raise ValidationError("frames must be positive", field="frames")
    raw = np.zeros((geometry.height, geometry.width), dtype=float)
    seen = np.zeros(raw.shape, dtype=bool)
    by_frame = defaultdict(list)
    for r in records:
        by_frame[r.timestamp].append(r)
    for frame_records in by_frame.values():
        boxes = []
        for r in frame_records:
            row0, col0, cells = rasterize_mask(r.mask, geometry)
            box = (
                slice(row0, row0 + cells.shape[0]),
                slice(col0, col0 + cells.shape[1]),
            )
            raw[box] += cells & ~seen[box]
            seen[box] |= cells
            boxes.append(box)
        for box in boxes:
            seen[box] = False
    return raw


def saturation_value(raw, frames: int, geometry: FrameGeometry) -> float:
    """Sum of the map normalized to [0, 255] over its maximum w*h*255."""
    return float((raw * (255.0 / frames)).sum() / (geometry.width * geometry.height * 255.0))


def nominal_frames(fps: float) -> int:
    # dropouts do not reduce the normalization denominator
    return max(1, round(STEP_15_MIN.total_seconds() * fps))


def heatmap_series(interval_records, window, geometry: FrameGeometry) -> IntervalSeries:
    """Saturation series over the window.

    ``interval_records`` maps interval-start timestamps to the records of
    that interval; missing intervals are zero-filled and flagged as gaps.
    A mask that covers no cell raises DegenerateMaskError with its
    interval start in ``interval``.
    """
    _check_window(window)
    start, end = window
    n = (end - start) // STEP_15_MIN
    frames = nominal_frames(geometry.fps)
    values = np.zeros(n)
    gaps = []
    for i in range(n):
        ts = start + i * STEP_15_MIN
        records = interval_records.get(ts)
        if not records:
            gaps.append(i)
            continue
        try:
            raw = accumulate_heatmap(records, geometry, frames)
        except DegenerateMaskError as exc:
            exc.interval = ts
            raise
        values[i] = saturation_value(raw, frames, geometry)
    return IntervalSeries(start, values, KIND_SATURATION, gaps=tuple(gaps))

