"""End-to-end orchestration: ingest -> series -> augment -> decompose -> detect.

Every stage persists plain-text artifacts into the output directory and
records input hashes in a manifest; a re-run skips stages whose inputs are
unchanged and whose outputs are still present and hash-valid. Within the
series stage, each segment file's reduction is cached by content hash in
``segment_cache.json``, so appending one segment parses only that file.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

from . import augment as aug
from . import detect, storage
from .errors import ConfigurationError, CrowdSeriesError, DegenerateMaskError, InsufficientDataError
from .ingest import FrameGeometry, filter_by_class, format_timestamp, parse_segment_csv
from .series import (
    KIND_COUNT,
    KIND_SATURATION,
    STEP_15_MIN,
    HeatmapGrids,
    count_series,
    heatmap_series,
    interval_saturation,
    per_frame_counts,
)
from .stl import StlConfig, stl_decompose

log = logging.getLogger(__name__)

KINDS = (KIND_COUNT, KIND_SATURATION)

SEGMENT_CACHE = "segment_cache.json"
_SEGMENT_CACHE_FORMAT = 1
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


class StageError(CrowdSeriesError):
    """Failure inside one pipeline stage, tagged with the stage name."""

    def __init__(self, stage, cause, input_file=None):
        where = f" ({input_file})" if input_file else ""
        super().__init__(f"stage {stage!r}{where}: {cause}")
        self.stage = stage
        self.cause = cause
        self.input_file = input_file


@dataclass
class PipelineConfig:
    input_dir: Path
    output_dir: Path
    geometry: FrameGeometry = field(
        default_factory=lambda: FrameGeometry(width=1280, height=720, fps=1.0)
    )
    allowed_classes: tuple = ("person",)
    augment_weeks: int = 8
    augment_fraction: float = 0.5
    seed: int = 0
    stl: dict = field(default_factory=dict)  # kind -> StlConfig
    esd_alpha: float = 0.05
    esd_max_anomalies: int | None = None  # None: 5% of the series length
    skip_bad_rows: bool = False
    workers: int = 1  # accepted and validated; segment files are reduced in one thread

    def __post_init__(self):
        self.input_dir = Path(self.input_dir)
        self.output_dir = Path(self.output_dir)
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if not 0 < self.augment_fraction <= 1:
            raise ConfigurationError(f"augment_fraction {self.augment_fraction} outside (0, 1]")
        unknown = sorted(set(self.stl) - set(KINDS))
        if unknown:
            raise ConfigurationError(f"stl: unknown series kind(s) {unknown}")
        for kind in KINDS:
            self.stl.setdefault(kind, StlConfig())

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        """Load a JSON config; bad JSON, keys or value types raise ConfigurationError."""
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: malformed JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigurationError(f"{path}: expected a JSON object")
        geometry = raw.pop("geometry", None)
        try:  # an unknown or missing key, a value of the wrong type or range
            # (a non-object "stl" raises AttributeError on .items())
            if "allowed_classes" in raw:
                raw["allowed_classes"] = tuple(raw["allowed_classes"])
            if geometry is not None:
                raw["geometry"] = FrameGeometry(**geometry)
            if "stl" in raw:
                raw["stl"] = {kind: StlConfig(**p) for kind, p in raw["stl"].items()}
            return cls(**raw)
        except (TypeError, AttributeError, ConfigurationError) as exc:
            raise ConfigurationError(f"{path}: {exc}") from exc

    def echo(self) -> dict:
        return {
            "input_dir": str(self.input_dir),
            "geometry": {
                "width": self.geometry.width,
                "height": self.geometry.height,
                "fps": self.geometry.fps,
            },
            "step_seconds": STEP_15_MIN.total_seconds(),
            "allowed_classes": sorted(self.allowed_classes),
            "augment_weeks": self.augment_weeks,
            "augment_fraction": self.augment_fraction,
            "seed": self.seed,
            "esd_alpha": self.esd_alpha,
            "esd_max_anomalies": self.esd_max_anomalies,
        }


def discover_segments(input_dir: Path):
    """Map interval-start timestamps to segment files, from file names; none is an error."""
    segments = {}
    for path in sorted(Path(input_dir).glob("*.csv")):
        try:
            ts = datetime.strptime(path.stem, "%Y%m%d_%H%M").replace(
                tzinfo=timezone.utc
            )
        except ValueError:
            log.warning("ignoring non-segment file %s", path.name)
            continue
        segments[ts] = path
    if not segments:
        raise InsufficientDataError(f"no segment files in {input_dir} to build a series from")
    return segments


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _Manifest:
    """Per-stage input/output hashes; drives stage skipping on re-runs.

    Outputs are keyed by file name, so a moved output directory stays current.
    """

    def __init__(self, output_dir: Path):
        self.dir = output_dir
        self.path = output_dir / "manifest.json"
        self.data = {}
        if self.path.exists():
            try:
                self.data = json.loads(self.path.read_text())
            except json.JSONDecodeError:
                self.data = {}

    def stage_is_current(self, stage, input_hash, outputs) -> bool:
        entry = self.data.get(stage)
        if not entry or entry.get("input_hash") != input_hash:
            return False
        recorded = entry.get("outputs", {})
        if set(recorded) != {Path(p).name for p in outputs}:
            return False
        for name, digest in recorded.items():
            p = self.dir / name
            if not p.exists() or _sha256_file(p) != digest:
                return False
        return True

    def record(self, stage, input_hash, outputs):
        self.data[stage] = {
            "input_hash": input_hash,
            "outputs": {Path(p).name: _sha256_file(Path(p)) for p in outputs},
        }
        self.path.write_text(json.dumps(self.data, indent=2, sort_keys=True) + "\n")


def _hash_inputs(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(str(part).encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _run_stage(manifest, stage, input_hash, outputs, compute):
    """Run ``compute`` unless the stage is already current; clean up on error."""
    if manifest.stage_is_current(stage, input_hash, outputs):
        log.info("stage %s is current, skipping", stage)
        return False
    try:
        compute()
    except Exception as exc:
        for p in outputs:
            Path(p).unlink(missing_ok=True)
        if isinstance(exc, (CrowdSeriesError, OSError)):
            raise
        raise StageError(stage, exc) from exc
    manifest.record(stage, input_hash, outputs)
    return True


def parse_segment_file(path: Path, geometry, skip_bad_rows, stage):
    """Parse one segment CSV; a bad file raises StageError naming it."""
    try:
        with path.open("r", encoding="utf-8") as fh:
            return parse_segment_csv(fh, geometry, skip_bad_rows=skip_bad_rows)
    except CrowdSeriesError as exc:
        raise StageError(stage, exc, input_file=path.name) from exc


class _SegmentCache:
    """Per-file reductions, ``(saturation or None, {frame timestamp: count})``.

    Kept in ``segment_cache.json`` and keyed by each file's SHA-256, under
    one key for everything else a reduction depends on: the cache format,
    the geometry, the allowed classes and ``skip_bad_rows``. A file with
    another key, or one that is not valid JSON of the expected shape, is
    ignored and rewritten. Frame timestamps are stored as integer
    microseconds since the epoch.
    """

    def __init__(self, path: Path, config: PipelineConfig):
        self.path = path
        geometry = config.geometry
        self.key = {
            "format": _SEGMENT_CACHE_FORMAT,
            "geometry": [geometry.width, geometry.height, geometry.fps],
            "allowed_classes": sorted(config.allowed_classes),
            "skip_bad_rows": config.skip_bad_rows,
        }
        self.stored = {}
        try:
            data = json.loads(path.read_text())
            if data["key"] == self.key:
                self.stored = dict(data["segments"])
        except FileNotFoundError:
            pass
        except (ValueError, KeyError, TypeError) as exc:  # not JSON, or not the shape written
            log.warning("ignoring unreadable %s: %s", path.name, exc)

    def get(self, digest):
        """The stored reduction of the file with ``digest``; None if absent or malformed."""
        try:
            saturation, frames = self.stored[digest]
            return (
                None if saturation is None else float(saturation),
                {_EPOCH + us * _MICROSECOND: int(count) for us, count in frames},
            )
        except KeyError:
            return None
        except (ValueError, TypeError) as exc:
            log.warning("ignoring malformed %s entry %s: %s", self.path.name, digest, exc)
            return None

    def write(self, reductions):
        """Store ``reductions`` (digest -> reduction), and only those, atomically."""
        segments = {
            digest: [
                saturation,
                sorted([(ts - _EPOCH) // _MICROSECOND, n] for ts, n in counts.items()),
            ]
            for digest, (saturation, counts) in reductions.items()
        }
        text = json.dumps(
            {"key": self.key, "segments": segments}, sort_keys=True, separators=(",", ":")
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(text + "\n")
        os.replace(tmp, self.path)


def reduce_segment_file(path: Path, config: PipelineConfig, grids: HeatmapGrids):
    """Parse one segment file into ``(saturation or None, {frame timestamp: count})``.

    Only records of the allowed classes count. A file without any has no
    saturation, which marks a gap. A bad file raises StageError naming it.
    """
    records = parse_segment_file(path, config.geometry, config.skip_bad_rows, "series")
    kept = filter_by_class(records, config.allowed_classes)
    try:
        saturation = interval_saturation(kept, config.geometry, grids)
    except DegenerateMaskError as exc:
        raise StageError("series", exc, input_file=path.name) from exc
    return saturation, per_frame_counts(kept)


def build_series(config: PipelineConfig, digests=None):
    """Reduce every segment file, reusing cached reductions, and aggregate both series.

    ``digests`` maps segment file names to their SHA-256; a file it lacks
    is hashed here. Per-frame counts are summed across files before the
    per-interval maximum, so a frame named in two files counts once with
    all its detections.
    """
    segments = discover_segments(config.input_dir)
    starts = sorted(segments)
    window = (starts[0], starts[-1] + STEP_15_MIN)
    digests = digests or {}
    cache = _SegmentCache(config.output_dir / SEGMENT_CACHE, config)
    grids = HeatmapGrids(config.geometry)
    reductions = {}  # digest -> reduction, for this run's files
    saturation = {}
    frame_counts = Counter()
    for ts in starts:
        path = segments[ts]
        digest = digests.get(path.name) or _sha256_file(path)
        reduction = cache.get(digest) or reduce_segment_file(path, config, grids)
        reductions[digest] = reduction
        saturation[ts], counts = reduction
        frame_counts.update(counts)
    cache.write(reductions)
    return {
        KIND_COUNT: count_series(frame_counts, window),
        KIND_SATURATION: heatmap_series(saturation, window),
    }


def _artifact(out, stem, kind, suffix=".csv") -> Path:
    return Path(out) / f"{stem}_{kind}{suffix}"


def series_stage(config: PipelineConfig, digests=None):
    """Build and write both interval series; returns ``[(path, series)]`` per kind.

    ``digests`` is as for ``build_series``.
    """
    config.output_dir.mkdir(parents=True, exist_ok=True)
    built = build_series(config, digests)
    written = []
    for kind in KINDS:
        path = _artifact(config.output_dir, "series", kind)
        storage.write_series(built[kind], path, config.geometry)
        written.append((path, built[kind]))
    return written


def augment_stage(series, output_dir, *, weeks, fraction, seed, geometry):
    """Write grouped stats and the backward-extended series; returns ``(path, extended)``."""
    Path(output_dir).mkdir(parents=True, exist_ok=True)
    subset = aug.partition_for_stats(series, fraction, seed=seed)
    stats = aug.grouped_stats(subset)
    storage.write_grouped_stats(stats, _artifact(output_dir, "grouped_stats", series.kind))
    extended = aug.extend_backward(series, stats, weeks=weeks, seed=seed)
    path = _artifact(output_dir, "augmented", series.kind)
    storage.write_series(extended, path, geometry)
    return path, extended


def decompose_stage(series, stl_config: StlConfig, output_dir):
    """STL-decompose and write ``series``; returns ``(path, decomposition)``."""
    Path(output_dir).mkdir(parents=True, exist_ok=True)
    decomp = stl_decompose(series, stl_config)
    path = _artifact(output_dir, "decomposition", series.kind)
    storage.write_decomposition(series, decomp, path)
    return path, decomp


def detect_stage(series, decomp, output_dir, *, alpha, max_anomalies, config_echo):
    """Find and report collective and point anomalies; returns ``(path, report)``."""
    Path(output_dir).mkdir(parents=True, exist_ok=True)
    spec = detect.compute_threshold(series)
    collectives = detect.collective_anomalies(decomp.trend, spec)
    esd_config = detect.EsdConfig(
        max_anomalies=max_anomalies
        or detect.EsdConfig.default_for(len(series), alpha).max_anomalies,
        alpha=alpha,
    )
    points = detect.seasonal_esd(decomp, collectives, esd_config)
    report = detect.build_report(series, spec, collectives, points, config_echo=config_echo)
    path = _artifact(output_dir, "report", series.kind, ".json")
    storage.write_report(report, path)
    return path, report


def run_pipeline(config: PipelineConfig, emit_plots: bool = False):
    """Run all stages; returns {kind: report dict} for both series."""
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest(out)
    segments = discover_segments(config.input_dir)
    digests = {p.name: _sha256_file(p) for p in segments.values()}
    segment_hash = _hash_inputs(
        [config.echo()] + [f"{name}:{digest}" for name, digest in sorted(digests.items())]
    )

    series_files = {kind: _artifact(out, "series", kind) for kind in KINDS}
    series_outputs = [p for f in series_files.values() for p in (f, f.with_suffix(".csv.meta"))]

    _run_stage(
        manifest, "series", segment_hash, series_outputs, lambda: series_stage(config, digests)
    )
    series = {kind: storage.read_series(series_files[kind]) for kind in KINDS}

    analyzed_files = dict(series_files)
    if config.augment_weeks >= 1:
        stats_files = {kind: _artifact(out, "grouped_stats", kind) for kind in KINDS}
        augmented_files = {kind: _artifact(out, "augmented", kind) for kind in KINDS}
        augment_hash = _hash_inputs(
            [segment_hash, config.augment_weeks, config.augment_fraction, config.seed]
        )
        aug_outputs = list(stats_files.values()) + [
            p
            for f in augmented_files.values()
            for p in (f, f.with_suffix(".csv.meta"))
        ]

        def compute_augment():
            for kind in KINDS:
                augment_stage(
                    series[kind],
                    out,
                    weeks=config.augment_weeks,
                    fraction=config.augment_fraction,
                    seed=config.seed,
                    geometry=config.geometry,
                )

        _run_stage(manifest, "augment", augment_hash, aug_outputs, compute_augment)
        analyzed_files = augmented_files

    analyzed = {kind: storage.read_series(analyzed_files[kind]) for kind in KINDS}

    decomp_files = {kind: _artifact(out, "decomposition", kind) for kind in KINDS}
    decomp_hash = _hash_inputs(
        [_sha256_file(analyzed_files[k]) for k in KINDS]
        + [repr(config.stl[k]) for k in KINDS]
    )

    def compute_decompose():
        for kind in KINDS:
            decompose_stage(analyzed[kind], config.stl[kind], out)

    _run_stage(manifest, "decompose", decomp_hash, list(decomp_files.values()), compute_decompose)
    decomps = {kind: storage.read_decomposition(decomp_files[kind]) for kind in KINDS}

    report_files = {kind: _artifact(out, "report", kind, ".json") for kind in KINDS}
    detect_hash = _hash_inputs(
        [decomp_hash, config.esd_alpha, config.esd_max_anomalies]
    )

    def compute_detect():
        for kind in KINDS:
            detect_stage(
                analyzed[kind],
                decomps[kind],
                out,
                alpha=config.esd_alpha,
                max_anomalies=config.esd_max_anomalies,
                config_echo=config.echo(),
            )

    _run_stage(manifest, "detect", detect_hash, list(report_files.values()), compute_detect)
    reports = {kind: storage.read_report(report_files[kind]) for kind in KINDS}

    if emit_plots:
        for kind in KINDS:
            emit_plot_data(reports[kind], decomps[kind], analyzed[kind], out)
    return reports


def emit_plot_data(report, decomp, series, output_dir):
    """Plot-ready CSVs: threshold bands and flagged residuals.

    The decomposition panel is ``decomposition_{kind}.csv`` itself.
    """
    out = Path(output_dir)
    fmt = storage._fmt
    kind = report["series_kind"]
    threshold = report["threshold"]
    in_run = set()
    for run in report["collective"]:
        in_run.update(range(run["start_index"], run["end_index"] + 1))
    lines = ["timestamp,value,trend,upper,lower,collective_flag"]
    for i in range(len(series)):
        lines.append(
            f"{format_timestamp(series.timestamp(i))},{fmt(series.values[i])},"
            f"{fmt(decomp.trend[i])},{fmt(threshold['upper'])},{fmt(threshold['lower'])},"
            f"{int(i in in_run)}"
        )
    (out / f"plot_threshold_{kind}.csv").write_text("\n".join(lines) + "\n")

    flagged = {p["index"]: p["rank"] for p in report["points"]}
    lines = ["timestamp,residual,flagged,rank"]
    for i in range(len(series)):
        rank = flagged.get(i, 0)
        lines.append(
            f"{format_timestamp(series.timestamp(i))},{fmt(decomp.residual[i])},"
            f"{int(i in flagged)},{rank}"
        )
    (out / f"plot_residual_{kind}.csv").write_text("\n".join(lines) + "\n")
