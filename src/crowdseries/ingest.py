"""Parsing and validation of per-segment detection CSV files.

Each 15-minute video segment produces one CSV with the columns
``timestamp,class_id,class_name,confidence,x_min,y_min,x_max,y_max,mask``.
The mask column holds the detection's segmentation polygon as a quoted
vertex list ``[(x1,y1),(x2,y2),...]`` in pixel coordinates.
"""

from __future__ import annotations

import ast
import csv
import io
import logging
import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import DegenerateMaskError, SchemaError, ValidationError

log = logging.getLogger(__name__)

# rasterize_mask tests the edge windows in batches of about this many cells
# (one window may exceed it), which bounds its memory on long edges.
_EDGE_BATCH_CELLS = 1 << 16

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

    def validate_bounds(self, geometry: FrameGeometry, row=None):
        for x, y in self.polygon:
            if not (0 <= x < geometry.width and 0 <= y < geometry.height):
                raise ValidationError(
                    f"mask vertex ({x}, {y}) outside frame "
                    f"{geometry.width}x{geometry.height}",
                    field="mask",
                    row=row,
                )


@dataclass(frozen=True)
class DetectionRecord:
    """One detector hit from a segment CSV."""

    timestamp: datetime
    class_id: int
    class_name: str
    confidence: float
    bbox: tuple[float, float, float, float]
    mask: MaskGeometry

    def validate(self, geometry: FrameGeometry | None = None, row=None):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValidationError(
                f"confidence {self.confidence} outside [0, 1]",
                field="confidence",
                row=row,
            )
        x_min, y_min, x_max, y_max = self.bbox
        if not (x_min < x_max and y_min < y_max):
            raise ValidationError(
                f"degenerate bbox {self.bbox}", field="bbox", row=row
            )
        if self.class_id < 0:
            raise ValidationError(
                f"negative class_id {self.class_id}", field="class_id", row=row
            )
        if geometry is not None:
            if x_min < 0 or y_min < 0 or x_max > geometry.width or y_max > geometry.height:
                raise ValidationError(
                    f"bbox {self.bbox} outside frame "
                    f"{geometry.width}x{geometry.height}",
                    field="bbox",
                    row=row,
                )
            self.mask.validate_bounds(geometry, row=row)


def _parse_timestamp(text: str) -> datetime:
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def format_timestamp(ts: datetime) -> str:
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc).isoformat()


def _parse_mask(text: str, row=None) -> MaskGeometry:
    try:
        vertices = ast.literal_eval(text)
        polygon = tuple((float(x), float(y)) for x, y in vertices)
    except (ValueError, SyntaxError, TypeError) as exc:
        raise ValidationError(f"unparseable mask {text!r}", field="mask", row=row) from exc
    return MaskGeometry(polygon)


def _num(v) -> str:
    return str(int(v)) if float(v).is_integer() else repr(v)


def format_mask(mask: MaskGeometry) -> str:
    return "[" + ",".join(f"({_num(x)},{_num(y)})" for x, y in mask.polygon) + "]"


def parse_segment_csv(content, geometry: FrameGeometry, skip_bad_rows: bool = False):
    """Parse one segment CSV into validated DetectionRecords.

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

    records = []
    for row_num, row in enumerate(reader, start=1):
        if not row:
            continue
        try:
            record = _parse_row(row, row_num)
            record.validate(geometry, row=row_num)
        except ValidationError as exc:
            if skip_bad_rows:
                log.warning("dropping bad row %d: %s", row_num, exc)
                continue
            raise ValidationError(f"row {row_num}: {exc}", field=exc.field, row=row_num) from exc
        records.append(record)
    return records


def _parse_row(row, row_num) -> DetectionRecord:
    if len(row) != len(CSV_COLUMNS):
        raise ValidationError(
            f"expected {len(CSV_COLUMNS)} fields, got {len(row)}", row=row_num
        )
    try:
        timestamp = _parse_timestamp(row[0])
    except ValueError as exc:
        raise ValidationError(
            f"bad timestamp {row[0]!r}", field="timestamp", row=row_num
        ) from exc
    try:
        class_id = int(row[1])
        confidence = float(row[3])
        bbox = tuple(float(v) for v in row[4:8])
    except ValueError as exc:
        raise ValidationError(str(exc), row=row_num) from exc
    mask = _parse_mask(row[8], row=row_num)
    return DetectionRecord(
        timestamp=timestamp,
        class_id=class_id,
        class_name=row[2],
        confidence=confidence,
        bbox=bbox,
        mask=mask,
    )


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


def filter_by_class(records, allowed_class_names):
    """Order-preserving subset of records whose class_name is allowed."""
    allowed = set(allowed_class_names)
    return [r for r in records if r.class_name in allowed]


def rasterize_mask(
    mask: MaskGeometry, geometry: FrameGeometry
) -> tuple[int, int, np.ndarray]:
    """Rasterize a polygon mask inside its bounding box.

    Returns ``(row0, col0, cells)``: ``cells`` is a bool grid over the
    polygon's bounding box clipped to the frame, and ``cells[j, i]`` is
    frame cell ``(row0 + j, col0 + i)``. No covered cell lies outside the
    box. A cell is covered iff its centre lies strictly inside the polygon
    under the even-odd rule, or exactly on the polygon boundary. Raises
    DegenerateMaskError when no cell is covered.
    """
    h, w = geometry.height, geometry.width
    p1 = np.asarray(mask.polygon, dtype=float)
    p2 = np.concatenate((p1[1:], p1[:1]))  # edge k runs from p1[k] to p2[k]
    (x_min, y_min), (x_max, y_max) = p1.min(axis=0).tolist(), p1.max(axis=0).tolist()
    row0 = max(0, math.floor(y_min - 0.5))
    col0 = max(0, math.floor(x_min - 0.5))
    n_rows = max(0, min(h - 1, math.ceil(y_max)) - row0 + 1)
    n_cols = max(0, min(w - 1, math.ceil(x_max)) - col0 + 1)
    lo = np.minimum(p1, p2)
    hi = np.maximum(p1, p2)
    d = p2 - p1

    # Scanline even-odd fill at cell centres (row centre y = j + 0.5), all
    # rows at once: a cell is inside iff an odd number of crossings lie at
    # or left of its centre. The half-open span [min, max) avoids
    # double-counting shared vertices.
    yc = np.arange(row0, row0 + n_rows) + 0.5
    ycol = yc[:, None]
    rows, edges = np.nonzero((lo[:, 1] <= ycol) & (ycol < hi[:, 1]))
    (x1, y1), (dx, dy) = p1[edges].T, d[edges].T
    xc = x1 + (yc[rows] - y1) * dx / dy
    first = np.searchsorted(np.arange(col0, col0 + n_cols) + 0.5, xc)
    toggles = np.bincount(rows * (n_cols + 1) + first, minlength=n_rows * (n_cols + 1))
    parity = toggles.reshape(n_rows, n_cols + 1)[:, :n_cols].cumsum(axis=1) & 1
    cells = parity.astype(bool)

    # Cell centres lying exactly on an edge count as covered. Each edge is
    # tested inside its own window, the cells around its bounding box
    # clipped to the frame. The windows of all edges are enumerated
    # together, in batches.
    win_lo = np.maximum(np.floor(lo - 0.5).astype(int), 0)
    win_n = np.maximum(np.minimum(np.ceil(hi).astype(int), (w - 1, h - 1)) - win_lo + 1, 0)
    size = win_n[:, 0] * win_n[:, 1]
    ends = np.cumsum(size)
    # per edge: window origin in box coordinates, window width, first
    # vertex, direction and squared length
    per_edge = (
        *(win_lo - (col0, row0)).T,
        win_n[:, 0],
        *p1.T,
        *d.T,
        d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1],
    )
    start = 0
    while start < len(size):
        base = ends[start] - size[start]
        stop = max(start + 1, int(np.searchsorted(ends, base + _EDGE_BATCH_CELLS, "right")))
        n = size[start:stop]
        lo_i, lo_j, n_i, ex1, ey1, dx, dy, seg_len2 = (
            np.repeat(v[start:stop], n) for v in per_edge
        )
        # k numbers the cells of each window row by row
        k = np.arange(len(n_i)) - np.repeat(ends[start:stop] - n - base, n)
        li = lo_i + k % n_i
        lj = lo_j + k // n_i
        a = (li + (col0 + 0.5)) - ex1
        b = (lj + (row0 + 0.5)) - ey1
        cross = a * dy - b * dx
        dot = a * dx + b * dy
        on_edge = np.where(
            seg_len2 == 0,
            (a == 0) & (b == 0),
            (cross == 0) & (dot >= 0) & (dot <= seg_len2),
        )
        cells[lj[on_edge], li[on_edge]] = True
        start = stop

    if not cells.any():
        raise DegenerateMaskError(
            f"polygon {mask.polygon} covers no cell on a {w}x{h} frame"
        )
    return row0, col0, cells
