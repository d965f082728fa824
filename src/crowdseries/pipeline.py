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
    interval_saturations,
    per_frame_counts,
)
from .stl import StlConfig, stl_decompose

log = logging.getLogger(__name__)

KINDS = (KIND_COUNT, KIND_SATURATION)

SEGMENT_CACHE = "segment_cache.json"
_SEGMENT_CACHE_FORMAT = 1
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
# Cache-missing files are reduced in chunks of about this many frame cells
# (at least one file): 455 files of 64x36, one of 1280x720.
_CHUNK_CELLS = 1 << 20


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
        if not 0 < self.esd_alpha < 1:
            raise ConfigurationError(f"esd_alpha {self.esd_alpha} outside (0, 1)")
        if self.esd_max_anomalies is not None and self.esd_max_anomalies < 1:
            raise ConfigurationError(
                f"esd_max_anomalies must be >= 1 or null, got {self.esd_max_anomalies}"
            )
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
    for path in sorted(Path(input_dir).glob("*.csv"), key=lambda p: p.name):
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
        try:
            data = json.loads(self.path.read_text())
            if not isinstance(data, dict) or not all(
                isinstance(entry, dict) and isinstance(entry.get("outputs"), dict)
                for entry in data.values()
            ):
                raise ValueError("not an object of stage entries")
            self.data = data
        except FileNotFoundError:
            pass
        except ValueError as exc:  # not JSON, or not the shape written
            log.warning("ignoring unreadable %s: %s", self.path.name, exc)

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
        text = json.dumps(self.data, indent=2, sort_keys=True)
        storage.write_text_atomic(self.path, text + "\n")


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


def _reduction_key(config: PipelineConfig) -> dict:
    """Everything but a segment file's bytes that its reduction depends on."""
    geometry = config.geometry
    return {
        "format": _SEGMENT_CACHE_FORMAT,
        "geometry": [geometry.width, geometry.height, geometry.fps],
        "allowed_classes": sorted(config.allowed_classes),
        "skip_bad_rows": config.skip_bad_rows,
    }


class _SegmentCache:
    """Per-file reductions, ``(saturation or None, {frame timestamp: count})``.

    Kept in ``segment_cache.json`` and keyed by each file's SHA-256, under
    one key for everything else a reduction depends on (``_reduction_key``).
    A file with another key, or one that is not valid JSON of the expected
    shape, is ignored and rewritten. Frame timestamps are stored as integer
    microseconds since the epoch.
    """

    def __init__(self, path: Path, config: PipelineConfig):
        self.path = path
        self.key = _reduction_key(config)
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
        storage.write_text_atomic(self.path, text + "\n")


def reduce_segment_files(paths, config: PipelineConfig, grids: HeatmapGrids):
    """Reduce segment files to ``(saturation or None, {frame timestamp: count})`` each.

    Each file is parsed on its own, then the masks of all of them are
    rasterized together. Only records of the allowed classes count; a file
    without any has no saturation, which marks a gap. A bad file raises
    StageError naming it; of several, the first in ``paths``.
    """
    kept = []
    try:
        for path in paths:
            segment = parse_segment_file(path, config.geometry, config.skip_bad_rows, "series")
            kept.append(filter_by_class(segment, config.allowed_classes))
    finally:
        # also when a file fails to parse: a bad mask in an earlier file is
        # the earlier error
        try:
            saturations = interval_saturations(kept, config.geometry, grids)
        except DegenerateMaskError as exc:
            raise StageError("series", exc, input_file=paths[exc.segment].name) from exc
    return [(s, per_frame_counts(segment.timestamps)) for s, segment in zip(saturations, kept)]


def build_series(config: PipelineConfig, digests=None, segments=None):
    """Reduce every segment file, reusing cached reductions, and aggregate both series.

    ``segments`` is the map of ``discover_segments``, found here when not
    given. ``digests`` maps segment file names to their SHA-256; a file it
    lacks is hashed here. Files without a cached reduction are reduced in
    chunks, in timestamp order. Per-frame counts are summed across files
    before the per-interval maximum, so a frame named in two files counts
    once with all its detections.
    """
    segments = segments or discover_segments(config.input_dir)
    starts = sorted(segments)
    window = (starts[0], starts[-1] + STEP_15_MIN)
    digests = digests or {}
    cache = _SegmentCache(config.output_dir / SEGMENT_CACHE, config)
    reduced = {}  # interval start -> (digest, reduction)
    misses = []  # (interval start, digest, path) of files without a cached reduction
    for ts in starts:
        path = segments[ts]
        digest = digests.get(path.name) or _sha256_file(path)
        reduction = cache.get(digest)
        if reduction is None:
            misses.append((ts, digest, path))
        else:
            reduced[ts] = digest, reduction
    grids = HeatmapGrids(config.geometry)
    per_chunk = max(1, _CHUNK_CELLS // (config.geometry.width * config.geometry.height))
    for i in range(0, len(misses), per_chunk):
        chunk = misses[i : i + per_chunk]
        paths = [path for _, _, path in chunk]
        for (ts, digest, _), reduction in zip(chunk, reduce_segment_files(paths, config, grids)):
            reduced[ts] = digest, reduction
    saturation = {}
    frame_counts = Counter()
    for ts, (_, (value, counts)) in reduced.items():
        saturation[ts] = value
        frame_counts.update(counts)
    cache.write(dict(reduced.values()))
    return {
        KIND_COUNT: count_series(frame_counts, window),
        KIND_SATURATION: heatmap_series(saturation, window),
    }


def _artifact(out, stem, kind, suffix=".csv") -> Path:
    return Path(out) / f"{stem}_{kind}{suffix}"


def _outputs(out, stem, suffix=".csv", meta=False):
    """The artifacts ``stem`` of both kinds, each followed by its ``.meta`` sidecar if ``meta``."""
    paths = [_artifact(out, stem, kind, suffix) for kind in KINDS]
    return [q for p in paths for q in (p, p.with_suffix(suffix + ".meta"))] if meta else paths


def series_stage(config: PipelineConfig, digests=None, segments=None):
    """Build and write both interval series; returns ``[(path, series)]`` per kind.

    ``digests`` and ``segments`` are as for ``build_series``.
    """
    config.output_dir.mkdir(parents=True, exist_ok=True)
    built = build_series(config, digests, segments)
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
    if max_anomalies is None:
        max_anomalies = detect.EsdConfig.default_for(len(series), alpha).max_anomalies
    esd_config = detect.EsdConfig(max_anomalies=max_anomalies, alpha=alpha)
    Path(output_dir).mkdir(parents=True, exist_ok=True)
    spec = detect.compute_threshold(series)
    collectives = detect.collective_anomalies(decomp.trend, spec)
    points = detect.seasonal_esd(decomp, collectives, esd_config)
    report = detect.build_report(series, spec, collectives, points, config_echo=config_echo)
    path = _artifact(output_dir, "report", series.kind, ".json")
    storage.write_report(report, path)
    return path, report


def run_pipeline(config: PipelineConfig, emit_plots: bool = False):
    """Run all stages; returns {kind: report dict} for both series.

    Each stage's key hashes the previous stage's key and the settings that
    stage reads, so a stage re-runs exactly when one of its inputs changed.
    """
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest(out)
    segments = discover_segments(config.input_dir)
    digests = {p.name: _sha256_file(p) for p in segments.values()}
    key = _hash_inputs(
        [_reduction_key(config)] + [f"{name}:{digest}" for name, digest in sorted(digests.items())]
    )
    outputs = _outputs(out, "series", meta=True)
    _run_stage(manifest, "series", key, outputs, lambda: series_stage(config, digests, segments))
    analyzed_paths = _outputs(out, "series")
    if config.augment_weeks >= 1:
        key = _hash_inputs([key, config.augment_weeks, config.augment_fraction, config.seed])

        def compute_augment():
            for kind in KINDS:
                augment_stage(
                    storage.read_series(_artifact(out, "series", kind)),
                    out,
                    weeks=config.augment_weeks,
                    fraction=config.augment_fraction,
                    seed=config.seed,
                    geometry=config.geometry,
                )

        outputs = _outputs(out, "grouped_stats") + _outputs(out, "augmented", meta=True)
        _run_stage(manifest, "augment", key, outputs, compute_augment)
        analyzed_paths = _outputs(out, "augmented")
    analyzed = {kind: storage.read_series(path) for kind, path in zip(KINDS, analyzed_paths)}

    key = _hash_inputs([key] + [repr(config.stl[kind]) for kind in KINDS])

    def compute_decompose():
        for kind in KINDS:
            decompose_stage(analyzed[kind], config.stl[kind], out)

    outputs = _outputs(out, "decomposition")
    _run_stage(manifest, "decompose", key, outputs, compute_decompose)
    decomps = {kind: storage.read_decomposition(path) for kind, path in zip(KINDS, outputs)}

    key = _hash_inputs([key, config.echo()])

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

    outputs = _outputs(out, "report", ".json")
    _run_stage(manifest, "detect", key, outputs, compute_detect)
    reports = {kind: storage.read_report(path) for kind, path in zip(KINDS, outputs)}

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
    storage.write_text_atomic(out / f"plot_threshold_{kind}.csv", "\n".join(lines) + "\n")

    flagged = {p["index"]: p["rank"] for p in report["points"]}
    lines = ["timestamp,residual,flagged,rank"]
    for i in range(len(series)):
        rank = flagged.get(i, 0)
        lines.append(
            f"{format_timestamp(series.timestamp(i))},{fmt(decomp.residual[i])},"
            f"{int(i in flagged)},{rank}"
        )
    storage.write_text_atomic(out / f"plot_residual_{kind}.csv", "\n".join(lines) + "\n")
