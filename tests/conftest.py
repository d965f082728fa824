"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately re-derive results from first principles
(per-cell point-in-polygon scans, dense nearest-neighbour local fits,
scipy-based critical values) so the fast implementations are checked
against code that shares nothing with them.
"""

from datetime import datetime, timezone

import numpy as np
import pytest

from crowdseries.ingest import DetectionRecord, FrameGeometry, MaskGeometry


def point_in_polygon(px, py, polygon):
    """Scalar even-odd test; points exactly on an edge count as inside."""
    n = len(polygon)
    inside = False
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        cross = (px - x1) * (y2 - y1) - (py - y1) * (x2 - x1)
        if (
            cross == 0
            and min(x1, x2) <= px <= max(x1, x2)
            and min(y1, y2) <= py <= max(y1, y2)
        ):
            return True
        if (y1 > py) != (y2 > py):
            x_at = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if px < x_at:
                inside = not inside
    return inside


def brute_force_rasterize(polygon, width, height, rows=None, cols=None):
    """Frame grid of the cells whose centre the polygon covers.

    Only the cells in ``rows`` x ``cols`` (default: the whole frame) are
    scanned; the others stay 0.
    """
    grid = np.zeros((height, width), dtype=np.uint8)
    for j in range(height) if rows is None else rows:
        for i in range(width) if cols is None else cols:
            if point_in_polygon(i + 0.5, j + 0.5, polygon):
                grid[j, i] = 1
    return grid


def embed(raster, width, height):
    """Frame grid of a box-local ``(row0, col0, cells)`` raster."""
    row0, col0, cells = raster
    grid = np.zeros((height, width), dtype=np.uint8)
    grid[row0:row0 + cells.shape[0], col0:col0 + cells.shape[1]] = cells
    return grid


def brute_force_loess(x, y, eval_points, window, degree, robustness_weights=None):
    """Dense reference local regression: sort all distances, weighted lstsq."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rho = np.ones(len(x)) if robustness_weights is None else np.asarray(robustness_weights)
    window = min(window, len(x))
    out = []
    for xe in eval_points:
        d = np.abs(x - xe)
        idx = np.argsort(d, kind="stable")[:window]
        h = d[idx].max()
        u = d[idx] / h if h > 0 else np.zeros(window)
        w = (1 - np.clip(u, 0, 1) ** 3) ** 3 * rho[idx]
        design = np.vander(x[idx] - xe, degree + 1, increasing=True)
        sw = np.sqrt(w)
        beta, *_ = np.linalg.lstsq(sw[:, None] * design, sw * y[idx], rcond=None)
        out.append(beta[0])
    return np.array(out)


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


def make_record(ts, count_index=0, geometry=None, class_name="person"):
    """A 2x2 box detection; distinct count_index values get disjoint boxes."""
    geometry = geometry or FrameGeometry(16, 16, 1.0)
    per_row = (geometry.width - 1) // 2
    x = (count_index % per_row) * 2
    y = (count_index // per_row) * 2
    return DetectionRecord(
        timestamp=ts,
        class_id=0,
        class_name=class_name,
        confidence=0.9,
        bbox=(x, y, x + 2, y + 2),
        mask=MaskGeometry(((x, y), (x + 2, y), (x + 2, y + 2), (x, y + 2))),
    )


@pytest.fixture
def small_geometry():
    return FrameGeometry(width=16, height=16, fps=1.0)
