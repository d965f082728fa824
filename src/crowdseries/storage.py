"""Plain-text persistence for intermediate artifacts.

Everything is CSV plus small key=value sidecar files so every pipeline
stage stays diffable and inspectable.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .augment import GroupedStats, GroupKey
from .errors import SchemaError
from .ingest import FrameGeometry, format_timestamp
from .series import STEP_15_MIN, IntervalSeries
from .stl import StlDecomposition

STEP_SECONDS = str(int(STEP_15_MIN.total_seconds()))  # the only grid a .meta may name


def _fmt(value: float) -> str:
    return repr(float(value))


def write_series(series: IntervalSeries, path, geometry: FrameGeometry | None = None):
    """Write `timestamp,value` CSV plus a `.meta` sidecar."""
    path = Path(path)
    lines = ["timestamp,value"]
    for i, v in enumerate(series.values):
        lines.append(f"{format_timestamp(series.timestamp(i))},{_fmt(v)}")
    path.write_text("\n".join(lines) + "\n")

    meta = {
        "kind": series.kind,
        "start": format_timestamp(series.start),
        "step_seconds": STEP_SECONDS,
        "gaps": ",".join(str(i) for i in series.gaps),
    }
    if geometry is not None:
        meta.update(
            width=str(geometry.width),
            height=str(geometry.height),
            fps=repr(geometry.fps),
        )
    sidecar = path.with_suffix(path.suffix + ".meta")
    sidecar.write_text("".join(f"{k}={v}\n" for k, v in meta.items()))


def _read_meta(path) -> dict:
    sidecar = path.with_suffix(path.suffix + ".meta")
    meta = {}
    for line in sidecar.read_text().splitlines():
        if line.strip():
            k, _, v = line.partition("=")
            meta[k] = v
    return meta


def read_series(path) -> IntervalSeries:
    path = Path(path)
    meta = _read_meta(path)
    for key in ("start", "kind", "gaps"):
        if key not in meta:
            raise SchemaError(f"{path}.meta: missing key {key!r}")
    if meta.get("step_seconds") != STEP_SECONDS:
        raise SchemaError(
            f"{path}.meta: step_seconds={meta.get('step_seconds')}, "
            f"but the interval grid is fixed at {STEP_SECONDS}"
        )
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "timestamp,value":
        raise SchemaError(f"{path}: expected 'timestamp,value' header")
    values = []
    for line in lines[1:]:
        _, _, v = line.partition(",")
        values.append(float(v))
    gaps = tuple(int(i) for i in meta["gaps"].split(",") if i != "")
    return IntervalSeries(
        start=datetime.fromisoformat(meta["start"]).astimezone(timezone.utc),
        values=np.array(values),
        kind=meta["kind"],
        gaps=gaps,
    )


def read_series_geometry(path) -> FrameGeometry | None:
    """Frame geometry recorded in a series' `.meta` sidecar; None if absent."""
    meta = _read_meta(Path(path))
    if "width" not in meta:
        return None
    return FrameGeometry(int(meta["width"]), int(meta["height"]), float(meta["fps"]))


def write_grouped_stats(stats: GroupedStats, path):
    lines = ["weekday,hour,minute,median,iqr"]
    for key in GroupKey.all_keys():
        median, iqr = stats.table[key]
        lines.append(f"{key.weekday},{key.hour},{key.minute},{_fmt(median)},{_fmt(iqr)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_grouped_stats(path) -> GroupedStats:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "weekday,hour,minute,median,iqr":
        raise SchemaError(f"{path}: bad grouped-stats header")
    table = {}
    for line in lines[1:]:
        w, h, m, median, iqr = line.split(",")
        table[GroupKey(int(w), int(h), int(m))] = (float(median), float(iqr))
    return GroupedStats(table)


def write_decomposition(series: IntervalSeries, decomp: StlDecomposition, path):
    lines = ["timestamp,observed,trend,seasonal,residual"]
    for i in range(len(series)):
        lines.append(
            f"{format_timestamp(series.timestamp(i))},"
            f"{_fmt(series.values[i])},{_fmt(decomp.trend[i])},"
            f"{_fmt(decomp.seasonal[i])},{_fmt(decomp.residual[i])}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_decomposition(path) -> StlDecomposition:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "timestamp,observed,trend,seasonal,residual":
        raise SchemaError(f"{path}: bad decomposition header")
    trend, seasonal, residual = [], [], []
    for line in lines[1:]:
        _, _, t, s, r = line.split(",")
        trend.append(float(t))
        seasonal.append(float(s))
        residual.append(float(r))
    return StlDecomposition(
        np.array(trend), np.array(seasonal), np.array(residual)
    )


def write_report(report: dict, path):
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def read_report(path) -> dict:
    return json.loads(Path(path).read_text())
