"""Seeded segment-CSV fixtures for the benchmark workloads, and their oracles.

Every fixture is made from the workload seed alone and comes with what a
correct pipeline must make of it: the intended count of each observed
interval and the occupied-cell total of each emitted frame, computed once
per mask shape by a scalar point-in-polygon scan that shares no code with
the package's rasterizer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from crowdseries.ingest import (
    DetectionRecord,
    FrameGeometry,
    MaskGeometry,
    serialize_records,
)
from crowdseries.synth import SyntheticScenario, generate_fixture

MONDAY = datetime(2023, 7, 3, tzinfo=timezone.utc)
STEP = timedelta(minutes=15)
SMALL = FrameGeometry(64, 36, 1.0)
CAMERA = FrameGeometry(1280, 720, 1.0)
# the daily profile of acceptance criterion 8
PROFILE = [2 + round(6 * math.exp(-(((s - 44) / 12) ** 2))) for s in range(96)]
# synth tiles disjoint 2x2 boxes at even offsets, one frame per interval
BOX = ((0, 0), (2, 0), (2, 2), (0, 2))


@dataclass
class Fixture:
    """Segment CSVs on disk plus what a correct pipeline must make of them."""

    input_dir: Path
    geometry: FrameGeometry
    start: datetime
    counts: list  # intended count per observed interval
    frame_cells: list  # per interval, the occupied cells of each emitted frame
    planted: dict | None = None  # criterion-8 plateau and spikes, by timestamp
    extra_segment: Path | None = None  # append-one: the next segment, not yet in input_dir


def point_in_polygon(px, py, polygon):
    """Scalar even-odd test; a point exactly on an edge counts as inside."""
    inside = False
    n = len(polygon)
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        cross = (px - x1) * (y2 - y1) - (py - y1) * (x2 - x1)
        if cross == 0 and min(x1, x2) <= px <= max(x1, x2) and min(y1, y2) <= py <= max(y1, y2):
            return True
        if (y1 > py) != (y2 > py) and px < x1 + (py - y1) * (x2 - x1) / (y2 - y1):
            inside = not inside
    return inside


def shape_cells(polygon):
    """Cells whose centre the polygon covers; invariant under integer shifts."""
    xs = [x for x, _ in polygon]
    ys = [y for _, y in polygon]
    return sum(
        point_in_polygon(i + 0.5, j + 0.5, polygon)
        for j in range(math.floor(min(ys)) - 1, math.ceil(max(ys)) + 1)
        for i in range(math.floor(min(xs)) - 1, math.ceil(max(xs)) + 1)
    )


def _person(ts, polygon):
    xs = [x for x, _ in polygon]
    ys = [y for _, y in polygon]
    return DetectionRecord(
        timestamp=ts,
        class_id=0,
        class_name="person",
        confidence=0.9,
        bbox=(min(xs), min(ys), max(xs), max(ys)),
        mask=MaskGeometry(tuple(polygon)),
    )


def acceptance_fixture(directory, seed, weeks=12, planted=True):
    """The criterion-8 scenario (or its profile alone) with seeded jitter."""
    plateaus, spikes, marks = [], [], None
    if planted:
        plateau_start = MONDAY + timedelta(days=60)
        plateau_end = plateau_start + timedelta(days=2)
        spike = MONDAY + timedelta(days=30, hours=10, minutes=15)
        inside = plateau_start + timedelta(hours=11)
        plateaus = [(plateau_start, plateau_end, 5)]
        spikes = [(spike, 9 * PROFILE[41]), (inside, 9 * PROFILE[41])]
        marks = {"plateau": (plateau_start, plateau_end), "spike": spike, "inside": inside}
    scenario = SyntheticScenario(
        start=MONDAY,
        weeks=weeks,
        daily_profile=PROFILE,
        planted_plateaus=plateaus,
        planted_spikes=spikes,
        noise_seed=seed,
        geometry=SMALL,
    )
    counts = [int(c) for c in generate_fixture(scenario, directory)]
    cells = shape_cells(BOX)
    return Fixture(
        input_dir=Path(directory),
        geometry=SMALL,
        start=MONDAY,
        counts=counts,
        frame_cells=[[cells * c] if c else [] for c in counts],
        planted=marks,
    )


def append_fixture(directory, seed, weeks=12, planted=True):
    """The acceptance fixture plus the next segment, kept outside the input.

    The oracle already covers the next segment: it describes the outputs of
    the re-run after that segment is added.
    """
    fixture = acceptance_fixture(directory, seed, weeks=weeks, planted=planted)
    ts = MONDAY + len(fixture.counts) * STEP
    count = int(np.random.default_rng([seed, 1]).poisson(PROFILE[0]))
    per_row = (SMALL.width - 1) // 2
    records = [
        _person(ts, [(x + (k % per_row) * 2, y + (k // per_row) * 2) for x, y in BOX])
        for k in range(count)
    ]
    extra = Path(directory).parent / (ts.strftime("%Y%m%d_%H%M") + ".csv")
    extra.write_text(serialize_records(records))
    fixture.extra_segment = extra
    fixture.counts.append(count)
    fixture.frame_cells.append([shape_cells(BOX) * count] if count else [])
    return fixture


# Person-sized silhouettes: about 40x110 px, 16 vertices on quarter pixels,
# so integer shifts are exact and no cell centre sits within rounding
# distance of an edge.
SHAPE_W, SHAPE_H, VERTICES = 40, 110, 16
SLOT_W, SLOT_H = 56, 128  # one person per slot keeps a frame's masks disjoint


def person_library(rng, size=16):
    shapes = []
    for _ in range(size):
        jitter = rng.uniform(-0.3, 0.3, VERTICES)
        angles = (np.arange(VERTICES) + jitter) * (2 * math.pi / VERTICES)
        radius = rng.uniform(0.75, 1.0, VERTICES)
        xs = np.round((SHAPE_W / 2) * (1 + radius * np.cos(angles)) * 4) / 4
        ys = np.round((SHAPE_H / 2) * (1 + radius * np.sin(angles)) * 4) / 4
        polygon = []
        for x, y in zip(xs.tolist(), ys.tolist()):
            if not polygon or polygon[-1] != (x, y):
                polygon.append((x, y))
        shapes.append((polygon, shape_cells(polygon)))
    return shapes


def camera_fixture(directory, seed, intervals=96, frames=3):
    """1280x720 @ 1 fps: several frames per interval, several people each."""
    rng = np.random.default_rng([seed, 720])
    library = person_library(rng)
    cols, rows = CAMERA.width // SLOT_W, CAMERA.height // SLOT_H
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    counts, frame_cells = [], []
    for i in range(intervals):
        ts = MONDAY + i * STEP
        # counts follow the daily profile alone, so every seed does the same work
        base = 2 + round(4 * math.exp(-(((i % 96) - 52) / 16) ** 2))
        records, cells, most = [], [], 0
        for f in range(frames):
            frame_ts = ts + timedelta(seconds=300 * f)
            n = base + (f == i % frames)
            total = 0
            for slot in rng.choice(cols * rows, size=n, replace=False).tolist():
                polygon, covered = library[int(rng.integers(len(library)))]
                ox = (slot % cols) * SLOT_W + int(rng.integers(1, SLOT_W - SHAPE_W - 1))
                oy = (slot // cols) * SLOT_H + int(rng.integers(1, SLOT_H - SHAPE_H - 1))
                records.append(_person(frame_ts, [(x + ox, y + oy) for x, y in polygon]))
                total += covered
            cells.append(total)
            most = max(most, n)
        counts.append(most)
        frame_cells.append(cells)
        (directory / ts.strftime("%Y%m%d_%H%M.csv")).write_text(serialize_records(records))
    return Fixture(
        input_dir=directory,
        geometry=CAMERA,
        start=MONDAY,
        counts=counts,
        frame_cells=frame_cells,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    augment_weeks: int
    make: object  # (directory, seed) -> Fixture
    tiny_augment_weeks: int
    tiny: object
    append: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "acceptance-12w",
            "criterion-8 release scenario: 8,064 small files of 2x2 masks stress per-file and "
            "per-row ingest overhead and hold the most records in memory",
            augment_weeks=8,
            make=acceptance_fixture,
            tiny_augment_weeks=1,
            tiny=lambda d, s: acceptance_fixture(d, s, weeks=2, planted=False),
        ),
        Workload(
            "camera-720p",
            "README default geometry 1280x720 @ 1 fps with person-sized polygons: real-scale "
            "rasterize and parse cost per detection, little analysis work",
            augment_weeks=1,
            make=camera_fixture,
            tiny_augment_weeks=1,
            tiny=lambda d, s: camera_fixture(d, s, intervals=8, frames=1),
        ),
        Workload(
            "append-one",
            "incremental use: one new 15-minute segment re-run on a warm output directory, "
            "exercising hashing, manifest and cache reads",
            augment_weeks=8,
            make=append_fixture,
            tiny_augment_weeks=1,
            tiny=lambda d, s: append_fixture(d, s, weeks=2, planted=False),
            append=True,
        ),
        Workload(
            "deep-history",
            "2 observed weeks with 52 augmented weeks: the only workload where augment, Loess, "
            "STL, Student-t and ESD do most of the work",
            augment_weeks=52,
            make=lambda d, s: acceptance_fixture(d, s, weeks=2, planted=False),
            tiny_augment_weeks=2,
            tiny=lambda d, s: acceptance_fixture(d, s, weeks=1, planted=False),
        ),
    )
}


def _read_series(path):
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "timestamp,value":
        raise ValueError(f"{path.name}: bad header")
    rows = []
    for line in lines[1:]:
        ts, _, value = line.partition(",")
        rows.append((datetime.fromisoformat(ts), float(value)))
    return rows


def _intervals(first, last_inclusive):
    out = set()
    ts = first
    while ts <= last_inclusive:
        out.add(ts)
        ts += STEP
    return out


def check_outputs(fixture, output_dir):
    """Problems found in a run's outputs; an empty list means correct.

    Raises OSError or ValueError when an output is missing or malformed.

    Reports are matched by timestamp, never by index, and no artifact digest
    is pinned, so any correct implementation passes.
    """
    counts, frame_cells = fixture.counts, fixture.frame_cells
    out = Path(output_dir)
    problems = []
    expected_ts = [fixture.start + i * STEP for i in range(len(counts))]

    series = _read_series(out / "series_count.csv")
    if [ts for ts, _ in series] != expected_ts:
        problems.append("count series does not cover the observed intervals")
    elif [v for _, v in series] != [float(c) for c in counts]:
        wrong = sum(v != c for (_, v), c in zip(series, counts))
        problems.append(f"count series differs from intended counts at {wrong} intervals")

    geometry = fixture.geometry
    # nominal frames, not emitted ones: dropped frames still count as empty
    denominator = round(STEP.total_seconds() * geometry.fps) * geometry.width * geometry.height
    series = _read_series(out / "series_saturation.csv")
    if [ts for ts, _ in series] != expected_ts:
        problems.append("saturation series does not cover the observed intervals")
    else:
        wrong = 0
        for (_, value), cells in zip(series, frame_cells):
            expected = sum(cells) / denominator
            if abs(value - expected) > 1e-9 * expected or (expected == 0 and value != 0):
                wrong += 1
        if wrong:
            problems.append(f"saturation differs from the cell-count oracle at {wrong} intervals")

    reports = {
        kind: json.loads((out / f"report_{kind}.json").read_text())
        for kind in ("count", "saturation")
    }
    if fixture.planted:
        problems.extend(check_recovery(fixture.planted, reports["count"]))
    return problems


def check_recovery(planted, report):
    problems = []
    plateau_start, plateau_end = planted["plateau"]
    planted_ts = _intervals(plateau_start, plateau_end - STEP)
    detected = set()
    for run in report["collective"]:
        detected |= _intervals(
            datetime.fromisoformat(run["start_timestamp"]),
            datetime.fromisoformat(run["end_timestamp"]),
        )
    jaccard = len(detected & planted_ts) / len(detected | planted_ts)
    if jaccard < 0.7:
        problems.append(f"plateau Jaccard {jaccard:.3f} < 0.7")
    points = sorted(report["points"], key=lambda p: p["rank"])
    if not points or datetime.fromisoformat(points[0]["timestamp"]) != planted["spike"]:
        problems.append("planted spike is not ranked first")
    if any(datetime.fromisoformat(p["timestamp"]) == planted["inside"] for p in points):
        problems.append("in-plateau spike was not excluded")
    return problems
