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
from dataclasses import dataclass
from datetime import datetime, timezone

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
    number, unless ``skip_bad_rows`` is set, in which case they are logged
    and dropped.
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
            raise
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


def rasterize_mask(mask: MaskGeometry, geometry: FrameGeometry) -> np.ndarray:
    """Rasterize a polygon mask to a binary height x width occupancy grid.

    A cell is set iff its center lies strictly inside the polygon under the
    even-odd rule, or exactly on the polygon boundary. Raises
    DegenerateMaskError when no cell is covered.
    """
    h, w = geometry.height, geometry.width
    grid = np.zeros((h, w), dtype=np.uint8)
    verts = np.asarray(mask.polygon, dtype=float)
    x1 = verts[:, 0]
    y1 = verts[:, 1]
    x2 = np.roll(x1, -1)
    y2 = np.roll(y1, -1)

    # Scanline even-odd fill at cell centers (row center y = j + 0.5).
    ymin = max(0, int(np.floor(verts[:, 1].min() - 0.5)))
    ymax = min(h - 1, int(np.ceil(verts[:, 1].max())))
    centers_x = np.arange(w) + 0.5
    for j in range(ymin, ymax + 1):
        yc = j + 0.5
        # half-open span [min, max) avoids double-counting shared vertices
        lo = np.minimum(y1, y2)
        hi = np.maximum(y1, y2)
        crossing = (lo <= yc) & (yc < hi)
        if not crossing.any():
            continue
        xc = x1[crossing] + (yc - y1[crossing]) * (x2[crossing] - x1[crossing]) / (
            y2[crossing] - y1[crossing]
        )
        xc.sort()
        inside = np.zeros(w, dtype=bool)
        for k in range(0, len(xc) - 1, 2):
            inside |= (centers_x >= xc[k]) & (centers_x < xc[k + 1])
        grid[j, inside] = 1

    _mark_boundary_cells(grid, x1, y1, x2, y2, w, h)

    if not grid.any():
        raise DegenerateMaskError(
            f"polygon {mask.polygon} covers no cell on a {w}x{h} frame"
        )
    return grid


def _mark_boundary_cells(grid, x1, y1, x2, y2, w, h):
    # Cell centers lying exactly on an edge count as covered.
    for ex1, ey1, ex2, ey2 in zip(x1, y1, x2, y2):
        lo_i = max(0, int(np.floor(min(ex1, ex2) - 0.5)))
        hi_i = min(w - 1, int(np.ceil(max(ex1, ex2))))
        lo_j = max(0, int(np.floor(min(ey1, ey2) - 0.5)))
        hi_j = min(h - 1, int(np.ceil(max(ey1, ey2))))
        if lo_i > hi_i or lo_j > hi_j:
            continue
        cx = np.arange(lo_i, hi_i + 1) + 0.5
        cy = np.arange(lo_j, hi_j + 1) + 0.5
        gx, gy = np.meshgrid(cx, cy)
        dx, dy = ex2 - ex1, ey2 - ey1
        cross = (gx - ex1) * dy - (gy - ey1) * dx
        dot = (gx - ex1) * dx + (gy - ey1) * dy
        seg_len2 = dx * dx + dy * dy
        on_edge = (cross == 0) & (dot >= 0) & (dot <= seg_len2)
        if seg_len2 == 0:
            on_edge = (gx == ex1) & (gy == ey1)
        jj, ii = np.nonzero(on_edge)
        grid[jj + lo_j, ii + lo_i] = 1
