"""Aggregation of detection records into 15-minute interval series.

Two series are produced per input directory: the per-interval maximum of
the per-frame people counts, and the heatmap saturation percentage (sum of
the interval's normalized occupancy map over its theoretical maximum).
Both are assembled from per-interval reductions, the per-frame counts and
one saturation value, so each segment file can be reduced on its own.

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

from .errors import AlignmentError, ValidationError
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


def count_series(frame_counts, window) -> IntervalSeries:
    """Max per-frame detection count in each interval of the window.

    ``frame_counts`` maps frame timestamps to their number of detections
    (``per_frame_counts``); frames outside the window are ignored. The
    maximum (rather than mean or median) absorbs frames where the detector
    missed people. Intervals without detections get 0 and a gap flag.
    """
    _check_window(window)
    start, end = window
    n = (end - start) // STEP_15_MIN
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


class HeatmapGrids:
    """Frame-sized grids that one interval after another reuses.

    ``raw`` holds the per-cell frame counts, ``seen`` the cells the current
    frame has already counted, and ``scaled`` the normalized map whose sum
    is the saturation. Reusing them spares a fresh frame-sized allocation,
    and its page faults, per interval.
    """

    def __init__(self, geometry: FrameGeometry):
        shape = (geometry.height, geometry.width)
        self.raw = np.zeros(shape)
        self.seen = np.zeros(shape, dtype=bool)
        self.scaled = np.empty(shape)


def accumulate_heatmap(
    records, geometry: FrameGeometry, frames: int, grids: HeatmapGrids | None = None
) -> np.ndarray:
    """Count, per cell, the frames of one interval that occupy it.

    Returns the float64 ``raw`` grid of the frame's shape, ``grids.raw``
    when ``grids`` is given. Masks of the same frame are unioned first, so
    a cell can contribute at most once per frame and a cell occupied in
    every frame reaches ``frames``. Each mask touches the map only inside
    its own bounding box; ``seen`` marks the cells the current frame has
    already counted and is cleared box by box before the next frame.
    """
    if frames <= 0:
        raise ValidationError("frames must be positive", field="frames")
    if grids is None:
        grids = HeatmapGrids(geometry)
    else:
        grids.raw.fill(0.0)
    raw, seen = grids.raw, grids.seen
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


def saturation_value(raw, frames: int, geometry: FrameGeometry, out=None) -> float:
    """Sum of the map normalized to [0, 255] over its maximum w*h*255.

    ``out``, a float64 grid of ``raw``'s shape, receives the normalized map.
    """
    scaled = np.multiply(raw, 255.0 / frames, out=out)
    return float(scaled.sum() / (geometry.width * geometry.height * 255.0))


def interval_saturation(records, geometry: FrameGeometry, grids: HeatmapGrids | None = None):
    """Saturation of one interval's records; None, a gap, when there are none."""
    if not records:
        return None
    frames = nominal_frames(geometry.fps)
    grids = grids or HeatmapGrids(geometry)
    return saturation_value(
        accumulate_heatmap(records, geometry, frames, grids), frames, geometry, grids.scaled
    )


def nominal_frames(fps: float) -> int:
    # dropouts do not reduce the normalization denominator
    return max(1, round(STEP_15_MIN.total_seconds() * fps))


def heatmap_series(saturation, window) -> IntervalSeries:
    """Saturation series over the window.

    ``saturation`` maps interval-start timestamps to the interval's
    saturation (``interval_saturation``); intervals it lacks or maps to
    None are zero-filled and flagged as gaps.
    """
    _check_window(window)
    start, end = window
    n = (end - start) // STEP_15_MIN
    values = np.zeros(n)
    gaps = []
    for i in range(n):
        value = saturation.get(start + i * STEP_15_MIN)
        if value is None:
            gaps.append(i)
        else:
            values[i] = value
    return IntervalSeries(start, values, KIND_SATURATION, gaps=tuple(gaps))
