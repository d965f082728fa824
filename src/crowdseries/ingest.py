"""Parsing and validation of per-segment detection CSV files, and the mask kernel.

Each 15-minute video segment produces one CSV with the columns
``timestamp,class_id,class_name,confidence,x_min,y_min,x_max,y_max,mask``.
The mask column holds the detection's segmentation polygon as a quoted
vertex list ``[(x1,y1),(x2,y2),...]`` in pixel coordinates.

A file parses into a columnar ``Segment``. ``mask_spans`` rasterizes any
number of masks in one vectorized pass, as row spans of covered cells.
"""

from __future__ import annotations

import ast
import csv
import io
import logging
import math
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import compress

import numpy as np

from .errors import DegenerateMaskError, SchemaError, ValidationError

log = logging.getLogger(__name__)

CSV_COLUMNS = (
    "timestamp",
    "class_id",
    "class_name",
    "confidence",
    "x_min",
    "y_min",
    "x_max",
    "y_max",
    "mask",
)

# mask_spans rasterizes whole masks in batches of about this many (edge,
# row) pairs; one pair costs about 0.5 KB of temporary arrays.
_PAIR_BATCH = 1 << 15

# An unsigned decimal number whose float() is the value ast.literal_eval
# gives: no sign (-0 would keep it), no leading zeros or underscores, and an
# integer too short for float(int) to overflow.
_NUMBER = r"(?:0|[1-9][0-9]{0,15})(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
_VERTEX = rf"\({_NUMBER},{_NUMBER}\)"
# the mask form format_mask writes, with at least three vertices
_CANONICAL_MASK = re.compile(rf"\[{_VERTEX}(?:,{_VERTEX}){{2,}}\]")


@dataclass(frozen=True)
class FrameGeometry:
    """Frame dimensions and capture rate of the source video."""

    width: int
    height: int
    fps: float

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValidationError("frame dimensions must be positive", field="width/height")
        if self.fps <= 0:
            raise ValidationError("fps must be positive", field="fps")


@dataclass(frozen=True)
class MaskGeometry:
    """Segmentation mask stored as a closed polygon (implicit last edge)."""

    polygon: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.polygon) < 3:
            raise ValidationError("polygon needs at least 3 vertices", field="mask")


@dataclass(frozen=True)
class DetectionRecord:
    """One detector hit from a segment CSV."""

    timestamp: datetime
    class_id: int
    class_name: str
    confidence: float
    bbox: tuple[float, float, float, float]
    mask: MaskGeometry


@dataclass(frozen=True, eq=False)
class Segment:
    """The detections of one segment CSV, column by column.

    Row ``k`` was seen in the frame taken at ``timestamps[k]``; rows with
    equal timestamps are one frame (a parsed file gives them one datetime
    object). Its mask polygon is the next ``vertex_counts[k]`` rows of
    ``vertices``, after those of rows ``< k``.
    """

    timestamps: list
    class_ids: list
    class_names: list
    confidence: np.ndarray  # (rows,)
    bbox: np.ndarray  # (rows, 4): x_min, y_min, x_max, y_max
    vertices: np.ndarray  # (total vertices, 2)
    vertex_counts: np.ndarray  # (rows,)

    def __len__(self):
        return len(self.timestamps)

    @classmethod
    def from_records(cls, records) -> "Segment":
        polygons = [r.mask.polygon for r in records]
        return cls(
            timestamps=[r.timestamp for r in records],
            class_ids=[r.class_id for r in records],
            class_names=[r.class_name for r in records],
            confidence=np.array([r.confidence for r in records], dtype=float),
            bbox=np.array([r.bbox for r in records], dtype=float).reshape(-1, 4),
            vertices=np.array([v for p in polygons for v in p], dtype=float).reshape(-1, 2),
            vertex_counts=np.array([len(p) for p in polygons], dtype=np.int64),
        )

    def records(self) -> list[DetectionRecord]:
        """The rows as DetectionRecords, in order."""
        points = list(map(tuple, self.vertices.tolist()))
        ends = np.cumsum(self.vertex_counts).tolist()
        masks = [
            MaskGeometry(tuple(points[end - n:end]))
            for n, end in zip(self.vertex_counts.tolist(), ends)
        ]
        return list(
            map(
                DetectionRecord,
                self.timestamps,
                self.class_ids,
                self.class_names,
                self.confidence.tolist(),
                map(tuple, self.bbox.tolist()),
                masks,
            )
        )

    def select(self, keep) -> "Segment":
        """The rows where ``keep`` is true, in order."""
        keep = np.asarray(keep, dtype=bool)
        if keep.all():
            return self
        return Segment(
            timestamps=list(compress(self.timestamps, keep)),
            class_ids=list(compress(self.class_ids, keep)),
            class_names=list(compress(self.class_names, keep)),
            confidence=self.confidence[keep],
            bbox=self.bbox[keep],
            vertices=self.vertices[np.repeat(keep, self.vertex_counts)],
            vertex_counts=self.vertex_counts[keep],
        )


def _parse_timestamp(text: str) -> datetime:
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def format_timestamp(ts: datetime) -> str:
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc).isoformat()


def _parse_mask(text: str) -> list[float]:
    """The mask's vertices as flat coordinates ``[x1, y1, x2, y2, ...]``.

    The canonical form is read by a strict numeric scan; any other text
    goes through ast.literal_eval, so both accept the same masks and give
    the same floats.
    """
    if _CANONICAL_MASK.fullmatch(text):
        return list(map(float, text[2:-2].replace("),(", ",").split(",")))
    try:
        vertices = ast.literal_eval(text)
        polygon = tuple((float(x), float(y)) for x, y in vertices)
    except (ValueError, SyntaxError, TypeError) as exc:
        raise ValidationError(f"unparseable mask {text!r}", field="mask") from exc
    return [v for vertex in MaskGeometry(polygon).polygon for v in vertex]


def _num(v) -> str:
    return str(int(v)) if float(v).is_integer() else repr(v)


def format_mask(mask: MaskGeometry) -> str:
    return "[" + ",".join(f"({_num(x)},{_num(y)})" for x, y in mask.polygon) + "]"


def parse_segment_csv(content, geometry: FrameGeometry, skip_bad_rows: bool = False) -> Segment:
    """Parse one segment CSV into a validated Segment.

    ``content`` is a byte string, text string, or readable stream. Rows
    violating an invariant raise ValidationError with the 1-based data row
    number in its message and ``row``, unless ``skip_bad_rows`` is set, in
    which case they are logged and dropped.
    """
    if isinstance(content, bytes):
        stream = io.StringIO(content.decode("utf-8"))
    elif isinstance(content, str):
        stream = io.StringIO(content)
    else:
        stream = content
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty file, missing header row") from None
    if tuple(h.strip() for h in header) != CSV_COLUMNS:
        raise SchemaError(
            f"header {header!r} does not match expected columns {list(CSV_COLUMNS)}"
        )

    stamps = {}  # timestamp text -> datetime, so each distinct text is parsed once
    timestamps, class_ids, names, confidence, bbox, counts, coords = [], [], [], [], [], [], []
    for row_num, row in enumerate(reader, start=1):
        if not row:
            continue
        try:
            ts, class_id, conf, box, xy = _parse_row(row, geometry, stamps)
        except ValidationError as exc:
            if skip_bad_rows:
                log.warning("dropping bad row %d: %s", row_num, exc)
                continue
            raise ValidationError(f"row {row_num}: {exc}", field=exc.field, row=row_num) from exc
        timestamps.append(ts)
        class_ids.append(class_id)
        names.append(row[2])
        confidence.append(conf)
        bbox.extend(box)
        counts.append(len(xy) // 2)
        coords.extend(xy)
    return Segment(
        timestamps=timestamps,
        class_ids=class_ids,
        class_names=names,
        confidence=np.array(confidence, dtype=float),
        bbox=np.array(bbox, dtype=float).reshape(-1, 4),
        vertices=np.array(coords, dtype=float).reshape(-1, 2),
        vertex_counts=np.array(counts, dtype=np.int64),
    )


def _parse_row(row, geometry: FrameGeometry, stamps):
    """One data row as ``(timestamp, class_id, confidence, bbox, flat vertex coordinates)``.

    Raises ValidationError, without the row number, on the row's first
    violated invariant.
    """
    if len(row) != len(CSV_COLUMNS):
        raise ValidationError(f"expected {len(CSV_COLUMNS)} fields, got {len(row)}")
    text = row[0]
    timestamp = stamps.get(text)
    if timestamp is None:
        try:
            timestamp = stamps[text] = _parse_timestamp(text)
        except ValueError as exc:
            raise ValidationError(f"bad timestamp {text!r}", field="timestamp") from exc
    try:
        class_id = int(row[1])
        confidence = float(row[3])
        bbox = tuple(map(float, row[4:8]))
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    xy = _parse_mask(row[8])
    if not 0.0 <= confidence <= 1.0:
        raise ValidationError(f"confidence {confidence} outside [0, 1]", field="confidence")
    x_min, y_min, x_max, y_max = bbox
    if not (x_min < x_max and y_min < y_max):
        raise ValidationError(f"degenerate bbox {bbox}", field="bbox")
    if class_id < 0:
        raise ValidationError(f"negative class_id {class_id}", field="class_id")
    w, h = geometry.width, geometry.height
    if x_min < 0 or y_min < 0 or x_max > w or y_max > h:
        raise ValidationError(f"bbox {bbox} outside frame {w}x{h}", field="bbox")
    for x, y in zip(xy[0::2], xy[1::2]):
        if not (0 <= x < w and 0 <= y < h):
            raise ValidationError(f"mask vertex ({x}, {y}) outside frame {w}x{h}", field="mask")
    return timestamp, class_id, confidence, bbox, xy


def serialize_records(records) -> str:
    """Inverse of parse_segment_csv; emits the canonical CSV text."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(
            [
                format_timestamp(r.timestamp),
                r.class_id,
                r.class_name,
                repr(r.confidence),
                *(_num(v) for v in r.bbox),
                format_mask(r.mask),
            ]
        )
    return out.getvalue()


def filter_by_class(segment: Segment, allowed_class_names) -> Segment:
    """Order-preserving subset of the segment's rows whose class_name is allowed."""
    allowed = set(allowed_class_names)
    return segment.select([name in allowed for name in segment.class_names])


def mask_spans(vertices, counts, geometry: FrameGeometry):
    """Rasterize polygon masks, in vectorized batches, into row spans of covered cells.

    ``vertices`` stacks the polygons' vertices as an (n, 2) float array:
    mask ``m`` owns the next ``counts[m]`` of them, closed by an implicit
    last edge. Returns int arrays ``(mask, row, x0, x1)``: mask ``mask[k]``
    covers the frame cells ``x0[k] <= col < x1[k]`` of row ``row[k]``. A
    cell is covered iff its centre lies strictly inside the polygon under
    the even-odd rule, or exactly on the polygon boundary. One mask's spans
    may overlap; a mask without spans covers no cell.
    """
    h, w = geometry.height, geometry.width
    counts = np.asarray(counts, dtype=np.int64)
    p1 = np.asarray(vertices, dtype=float).reshape(-1, 2)
    ends = np.cumsum(counts)
    following = np.arange(1, len(p1) + 1)
    following[ends - 1] = ends - counts
    p2 = p1[following]  # edge k runs from p1[k] to p2[k]
    lo = np.minimum(p1, p2)
    hi = np.maximum(p1, p2)
    # Each edge's window: the cells around its bounding box, clipped to the
    # frame. Every row where the edge can cross a row centre, or hold a cell
    # centre, is a window row.
    win_lo = np.maximum(np.floor(lo - 0.5).astype(np.int64), 0)
    win_n = np.maximum(np.minimum(np.ceil(hi).astype(np.int64), (w - 1, h - 1)) - win_lo + 1, 0)
    edges = (p1, p2 - p1, lo, hi, win_lo, win_n, np.repeat(np.arange(len(counts)), counts))

    # Whole masks go into batches of about _PAIR_BATCH (edge, window row)
    # pairs, which bounds the memory of a pass.
    pairs = np.concatenate(([0], np.cumsum(win_n[:, 1])))[np.append(ends - counts, len(p1))]
    targets = np.arange(0, pairs[-1], _PAIR_BATCH)
    bounds = np.append(np.unique(np.searchsorted(pairs, targets, side="right") - 1), len(counts))
    spans = [
        _edge_spans(*(a[ends[m0] - counts[m0]:ends[m1 - 1]] for a in edges), geometry)
        for m0, m1 in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    ]
    if not spans:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(4))
    return tuple(np.concatenate(parts) for parts in zip(*spans))


def _edge_spans(p1, d, lo, hi, win_lo, win_n, owner, geometry: FrameGeometry):
    """``mask_spans`` of whole masks' edges: edge k runs from ``p1[k]`` by ``d[k]``."""
    h, w = geometry.height, geometry.width
    n_rows = win_n[:, 1]
    edge = np.repeat(np.arange(len(p1)), n_rows)  # the (edge, window row) pairs
    row = np.arange(len(edge)) - np.repeat(np.cumsum(n_rows) - n_rows - win_lo[:, 1], n_rows)
    yc = row + 0.5
    x1, y1 = p1[edge].T
    dx, dy = d[edge].T
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        xc = x1 + (yc - y1) * dx / dy  # where the edge's line meets the row centre

    # Scanline even-odd fill at cell centres: a cell is inside iff an odd
    # number of crossings lie at or left of its centre. The half-open span
    # [min, max) avoids double-counting shared vertices, and each (mask,
    # row) has an even number of crossings, so the sorted crossings of a
    # row pair up into the spans [1st, 2nd), [3rd, 4th), ...
    crossing = np.flatnonzero((lo[edge, 1] <= yc) & (yc < hi[edge, 1]))
    # the first column whose centre lies at or right of the crossing; a
    # crossing lies within its edge's x-range, so clipping to the frame
    # leaves the spans inside the mask's bounding box
    first = np.clip(np.ceil(xc[crossing] - 0.5), 0, w).astype(np.int64)
    # sort by (mask, row, column) in one key
    key = np.sort((owner[edge[crossing]] * h + row[crossing]) * (w + 1) + first)
    span_start, span_end = key[0::2], key[1::2]
    nonempty = span_start < span_end
    span_start, span_end = span_start[nonempty], span_end[nonempty]
    group = span_start // (w + 1)
    fill = (group // h, group % h, span_start - group * (w + 1), span_end - group * (w + 1))

    # Cell centres lying exactly on an edge count as covered. The exact
    # test runs only where it can hold: in each window row at the three
    # columns around a sloped edge's crossing of the row centre, and at
    # every window column of a horizontal or zero-length edge.
    sloped = dy != 0
    lo_col, n_col = win_lo[edge, 0], win_n[edge, 0]
    near = np.floor(np.clip(np.where(sloped, xc, 0.0), lo_col - 1, lo_col + n_col))
    start = np.where(sloped, near - 1, lo_col).astype(np.int64)
    n_tests = np.where(sloped, 3, n_col)
    pair = np.repeat(np.arange(len(edge)), n_tests)
    col = np.arange(len(pair)) - np.repeat(np.cumsum(n_tests) - n_tests - start, n_tests)
    in_window = (lo_col[pair] <= col) & (col < lo_col[pair] + n_col[pair])
    pair, col = pair[in_window], col[in_window]
    a = (col + 0.5) - x1[pair]
    b = yc[pair] - y1[pair]
    dx, dy = dx[pair], dy[pair]
    cross = a * dy - b * dx
    dot = a * dx + b * dy
    seg_len2 = dx * dx + dy * dy
    on_edge = np.where(
        seg_len2 == 0,
        (a == 0) & (b == 0),
        (cross == 0) & (dot >= 0) & (dot <= seg_len2),
    )
    col = col[on_edge]
    pair = pair[on_edge]
    boundary = (owner[edge[pair]], row[pair], col, col + 1)
    return tuple(np.concatenate(parts) for parts in zip(fill, boundary))


def rasterize_mask(
    mask: MaskGeometry, geometry: FrameGeometry
) -> tuple[int, int, np.ndarray]:
    """Rasterize one polygon mask inside its bounding box (``mask_spans``).

    Returns ``(row0, col0, cells)``: ``cells`` is a bool grid over the
    polygon's bounding box clipped to the frame, and ``cells[j, i]`` is
    frame cell ``(row0 + j, col0 + i)``. No covered cell lies outside the
    box. Raises DegenerateMaskError when no cell is covered.
    """
    h, w = geometry.height, geometry.width
    p = np.asarray(mask.polygon, dtype=float)
    _, rows, x0, x1 = mask_spans(p, [len(p)], geometry)
    if not len(rows):
        raise DegenerateMaskError(
            f"polygon {mask.polygon} covers no cell on a {w}x{h} frame"
        )
    (x_min, y_min), (x_max, y_max) = p.min(axis=0).tolist(), p.max(axis=0).tolist()
    row0 = max(0, math.floor(y_min - 0.5))
    col0 = max(0, math.floor(x_min - 0.5))
    n_rows = max(0, min(h - 1, math.ceil(y_max)) - row0 + 1)
    n_cols = max(0, min(w - 1, math.ceil(x_max)) - col0 + 1)
    # +1 where a span starts and -1 where it ends; a running sum along each
    # row then counts the spans holding a cell
    steps = np.zeros((n_rows, n_cols + 1), dtype=np.int32)
    np.add.at(steps, (rows - row0, x0 - col0), 1)
    np.add.at(steps, (rows - row0, x1 - col0), -1)
    return row0, col0, steps.cumsum(axis=1)[:, :n_cols] > 0
