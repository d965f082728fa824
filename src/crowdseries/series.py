"""Aggregation of detection records into 15-minute interval series.

Two series are produced per input directory: the per-interval maximum of
the per-frame people counts, and the heatmap saturation percentage (sum of
the interval's normalized occupancy map over its theoretical maximum).
Both are assembled from per-interval reductions, the per-frame counts and
one saturation value, so each segment file can be reduced on its own.

Masks are rasterized as row spans and accumulated run by run; only the
final saturation sum visits the whole frame. That sum is taken over the
frame-sized grid of ``raw * (255 / frames)``, not as the cell-count total
times ``255 / frames``: the two round differently whenever the scale is not
a dyadic fraction (900 frames at 1 fps), and the grid-sum order keeps the
stored saturation series byte-identical to earlier releases.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from .errors import AlignmentError, DegenerateMaskError, ValidationError
from .ingest import FrameGeometry, mask_spans
from .ingest import rasterize_mask  # noqa: F401  perfbench/tracing.py times series.rasterize_mask

STEP_15_MIN = timedelta(minutes=15)

# raw_heatmaps expands the runs of covered cells into at most about this
# many cell indices at a time.
_CELL_BLOCK = 1 << 16

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


def per_frame_counts(timestamps):
    """Number of detections per distinct frame timestamp, one timestamp per detection."""
    return dict(Counter(timestamps))


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
    """The frame-sized grid that one interval after another reuses.

    ``raw`` holds the per-cell frame counts, and then the normalized map
    whose sum is the saturation. Reusing it spares a fresh frame-sized
    allocation, and its page faults, per interval.
    """

    def __init__(self, geometry: FrameGeometry):
        self.raw = np.zeros((geometry.height, geometry.width))


def raw_heatmaps(segments, geometry: FrameGeometry, grids: HeatmapGrids):
    """Yield, segment by segment, ``grids.raw`` counting the frames that occupy each cell.

    The masks of all segments are rasterized together (``mask_spans``).
    Masks of the same frame are unioned first, so a cell counts at most
    once per frame and a cell occupied in every frame reaches the frame
    count: per frame and row, the spans are sorted by start and merged into
    disjoint runs, and each run adds 1 to its cells.

    Raises DegenerateMaskError, before the first grid, for a mask that
    covers no cell. Of several, it names the first by segment, then by
    frame in order of first appearance, then by row; its ``segment`` is the
    index of the segment holding it.
    """
    if not segments:
        return
    h, w = geometry.height, geometry.width
    frame = []  # per mask, its frame, numbered across segments
    frame_ends = []  # per segment, the number of frames up to its end
    for segment in segments:
        first = frame_ends[-1] if frame_ends else 0
        ids = {}
        frame += [first + ids.setdefault(ts, len(ids)) for ts in segment.timestamps]
        frame_ends.append(first + len(ids))
    frame = np.array(frame, dtype=np.int64)
    vertices = np.concatenate([s.vertices for s in segments])
    counts = np.concatenate([s.vertex_counts for s in segments])
    mask, row, x0, x1 = mask_spans(vertices, counts, geometry)

    covered = np.zeros(len(frame), dtype=bool)
    covered[mask] = True
    if not covered.all():
        bad = np.flatnonzero(~covered)
        m = int(bad[np.lexsort((bad, frame[bad]))[0]])
        end = int(counts[: m + 1].sum())
        polygon = tuple(map(tuple, vertices[end - counts[m]:end].tolist()))
        raise DegenerateMaskError(
            f"polygon {polygon} covers no cell on a {w}x{h} frame",
            segment=int(np.searchsorted(frame_ends, frame[m], side="right")),
        )

    # one key per (frame, row, column); x0 and x1 lie in [0, w], so the
    # keys of different frame rows never overlap
    base = (frame[mask] * h + row) * (w + 1)
    order = np.argsort(base + x0)
    start = (base + x0)[order]
    reach = np.maximum.accumulate((base + x1)[order])
    opens = np.ones(len(start), dtype=bool)
    opens[1:] = start[1:] > reach[:-1]
    closes = np.ones(len(start), dtype=bool)
    closes[:-1] = opens[1:]
    run_start, run_end = start[opens], reach[closes]

    # Add each run's cells to raw, expanding at most _CELL_BLOCK of them at
    # a time (a run holds at most w); a segment's grid is complete, and
    # yielded, once its last run is added.
    group = run_start // (w + 1)
    length = run_end - run_start
    first_cell = (group % h) * w + run_start - group * (w + 1)  # in the flattened frame
    segment_ends = np.searchsorted(group // h, frame_ends).tolist()  # runs are sorted by frame
    flat = grids.raw.reshape(-1)
    grids.raw.fill(0.0)
    done = 0  # segments yielded
    per_block = max(1, _CELL_BLOCK // w)
    for b in range(0, len(length), per_block):
        n = length[b:b + per_block]
        offsets = np.concatenate(([0], np.cumsum(n))).tolist()  # of each run's cells
        cells = np.repeat(first_cell[b:b + per_block] - offsets[:-1], n) + np.arange(offsets[-1])
        added = b
        while done < len(segment_ends) and segment_ends[done] <= b + len(n):
            np.add.at(flat, cells[offsets[added - b]:offsets[segment_ends[done] - b]], 1.0)
            added = segment_ends[done]
            done += 1
            yield grids.raw
            grids.raw.fill(0.0)
        np.add.at(flat, cells[offsets[added - b]:], 1.0)
    for _ in range(done, len(segment_ends)):  # segments without runs after the last run
        yield grids.raw


def saturation_value(raw, frames: int, geometry: FrameGeometry, out=None) -> float:
    """Sum of the map normalized to [0, 255] over its maximum w*h*255.

    ``out``, a float64 grid of ``raw``'s shape or ``raw`` itself, receives
    the normalized map.
    """
    scaled = np.multiply(raw, 255.0 / frames, out=out)
    return float(scaled.sum() / (geometry.width * geometry.height * 255.0))


def interval_saturations(segments, geometry: FrameGeometry, grids: HeatmapGrids):
    """Saturation of each segment's interval; None, a gap, for a segment without rows."""
    frames = nominal_frames(geometry.fps)
    return [
        saturation_value(raw, frames, geometry, out=raw) if len(segment) else None
        for segment, raw in zip(segments, raw_heatmaps(segments, geometry, grids))
    ]


def nominal_frames(fps: float) -> int:
    # dropouts do not reduce the normalization denominator
    return max(1, round(STEP_15_MIN.total_seconds() * fps))


def heatmap_series(saturation, window) -> IntervalSeries:
    """Saturation series over the window.

    ``saturation`` maps interval-start timestamps to the interval's
    saturation; intervals it lacks or maps to None are zero-filled and
    flagged as gaps.
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
