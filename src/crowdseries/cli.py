"""Command-line entry point.

Subcommands mirror the pipeline stages (`ingest`, `series`, `augment`,
`decompose`, `detect`), plus `run` for the whole chain, `synth` for the
fixture generator, and `plot-data` for figure-ready CSV export.

Exit codes: 0 success, 2 validation error, 3 insufficient data, 4 I/O.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import sys
from datetime import datetime, timezone
from pathlib import Path

import click

from . import pipeline, storage
from .errors import ConfigurationError, CrowdSeriesError, InsufficientDataError
from .ingest import FrameGeometry, filter_by_class
from .stl import StlConfig
from .synth import SyntheticScenario, generate_fixture

EXIT_VALIDATION = 2
EXIT_INSUFFICIENT = 3
EXIT_IO = 4


class _ExitCodeGroup(click.Group):
    """Reports a subcommand's package or I/O error as `error: ...` and exits 2, 3 or 4."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (CrowdSeriesError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            if isinstance(exc, InsufficientDataError):
                sys.exit(EXIT_INSUFFICIENT)
            sys.exit(EXIT_IO if isinstance(exc, OSError) else EXIT_VALIDATION)


def _parse_geometry(text: str) -> FrameGeometry:
    # "1280x720@1" -> width, height, fps
    dims, _, fps = text.partition("@")
    width, _, height = dims.partition("x")
    try:
        return FrameGeometry(int(width), int(height), float(fps or 1.0))
    except ValueError as exc:
        raise ConfigurationError(f"bad geometry {text!r}, expected WIDTHxHEIGHT@FPS") from exc


def _config_from_options(config_path, overrides) -> pipeline.PipelineConfig:
    if config_path:
        config = pipeline.PipelineConfig.from_json(config_path)
    else:
        config = pipeline.PipelineConfig(input_dir=".", output_dir="out")
    changes = {
        attr: overrides[key]
        for key, attr in (
            ("input", "input_dir"),
            ("output", "output_dir"),
            ("seed", "seed"),
            ("weeks", "augment_weeks"),
            ("alpha", "esd_alpha"),
            ("max_anoms", "esd_max_anomalies"),
        )
        if overrides.get(key) is not None
    }
    if overrides.get("geometry"):
        changes["geometry"] = _parse_geometry(overrides["geometry"])
    if overrides.get("classes"):
        changes["allowed_classes"] = tuple(overrides["classes"].split(","))
    if overrides.get("skip_bad_rows"):
        changes["skip_bad_rows"] = True
    return dataclasses.replace(config, **changes)  # validated like the config file


@click.group(cls=_ExitCodeGroup)
@click.option("-v", "--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose):
    logging.basicConfig(level=logging.DEBUG if verbose else logging.WARNING)


pipeline_options = [
    click.option("--config", "config_path", type=click.Path(exists=True)),
    click.option("--input", "input", type=click.Path()),
    click.option("--output", "output", type=click.Path()),
    click.option("--geometry", help="WIDTHxHEIGHT@FPS, e.g. 1280x720@1"),
    click.option("--classes", help="Comma-separated allowed class names."),
    click.option("--alpha", type=float),
    click.option("--max-anoms", "max_anoms", type=int),
    click.option(
        "--skip-bad-rows", is_flag=True, help="Drop rows that fail validation, with a warning."
    ),
]


def _with_options(options):
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn

    return wrap


@main.command()
@_with_options(pipeline_options)
@click.option("--seed", type=int)
@click.option("--weeks", type=int)
def run(config_path, **overrides):
    """Run the full pipeline over a directory of segment CSVs."""
    config = _config_from_options(config_path, overrides)
    reports = pipeline.run_pipeline(config, emit_plots=True)
    for kind, report in reports.items():
        click.echo(
            f"{kind}: {len(report['collective'])} collective run(s), "
            f"{len(report['points'])} point anomaly(ies)"
        )


@main.command()
@click.option("--input", "input_dir", type=click.Path(exists=True), required=True)
@click.option("--geometry", default="1280x720@1")
@click.option("--classes", default=None)
@click.option("--skip-bad-rows", is_flag=True)
def ingest(input_dir, geometry, classes, skip_bad_rows):
    """Parse and validate segment CSVs; print per-file record counts."""
    geo = _parse_geometry(geometry)
    segments = pipeline.discover_segments(Path(input_dir))
    total = 0
    for ts, path in sorted(segments.items()):
        records = pipeline.parse_segment_file(path, geo, skip_bad_rows, "ingest")
        if classes:
            records = filter_by_class(records, classes.split(","))
        click.echo(f"{path.name}: {len(records)} record(s)")
        total += len(records)
    click.echo(f"total: {total} record(s) in {len(segments)} segment(s)")


@main.command()
@_with_options(pipeline_options)
def series(config_path, **overrides):
    """Aggregate segment CSVs into the count and saturation series."""
    config = _config_from_options(config_path, overrides)
    for path, s in pipeline.series_stage(config):
        click.echo(f"{path.name}: {len(s)} interval(s), {len(s.gaps)} gap(s)")


@main.command()
@click.option("--series", "series_path", type=click.Path(exists=True), required=True)
@click.option("--output", type=click.Path(), required=True)
@click.option("--seed", type=int, required=True)
@click.option("--weeks", type=int, default=8, show_default=True)
@click.option("--fraction", type=float, default=0.5, show_default=True)
def augment(series_path, output, seed, weeks, fraction):
    """Extend a stored series backwards with synthetic history."""
    path, extended = pipeline.augment_stage(
        storage.read_series(series_path),
        output,
        weeks=weeks,
        fraction=fraction,
        seed=seed,
        geometry=storage.read_series_geometry(series_path),
    )
    click.echo(f"{path.name}: {len(extended)} interval(s)")


@main.command()
@click.option("--series", "series_path", type=click.Path(exists=True), required=True)
@click.option("--output", type=click.Path(), required=True)
@click.option("--period", type=int, default=96, show_default=True)
@click.option("--seasonal-window", type=int, default=673, show_default=True)
@click.option("--trend-window", type=int, default=None)
@click.option("--inner", type=int, default=2, show_default=True)
@click.option("--outer", type=int, default=1, show_default=True)
def decompose(series_path, output, period, seasonal_window, trend_window, inner, outer):
    """STL-decompose a stored series into trend, seasonal and residual."""
    config = StlConfig(
        period=period,
        seasonal_window=seasonal_window,
        trend_window=trend_window,
        inner_iterations=inner,
        outer_iterations=outer,
    )
    path, decomp = pipeline.decompose_stage(storage.read_series(series_path), config, output)
    click.echo(f"{path.name}: {len(decomp.trend)} interval(s)")


@main.command()
@click.option("--series", "series_path", type=click.Path(exists=True), required=True)
@click.option("--decomposition", type=click.Path(exists=True), required=True)
@click.option("--output", type=click.Path(), required=True)
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--max-anoms", type=int, default=None)
def detect(series_path, decomposition, output, alpha, max_anoms):
    """Detect collective and point anomalies; write the JSON report."""
    path, report = pipeline.detect_stage(
        storage.read_series(series_path),
        storage.read_decomposition(decomposition),
        output,
        alpha=alpha,
        max_anomalies=max_anoms,
        config_echo={"esd_alpha": alpha, "esd_max_anomalies": max_anoms},
    )
    click.echo(
        f"{path.name}: {len(report['collective'])} collective run(s), "
        f"{len(report['points'])} point anomaly(ies)"
    )


@main.command()
@click.option("--scenario", type=click.Path(exists=True), required=True)
@click.option("--output", type=click.Path(), required=True)
@click.option("--seed", type=int, required=True)
def synth(scenario, output, seed):
    """Generate synthetic segment CSVs from a scenario JSON file."""
    try:
        raw = json.loads(Path(scenario).read_text())

        def ts(text):
            t = datetime.fromisoformat(text)
            return t.replace(tzinfo=timezone.utc) if t.tzinfo is None else t

        try:
            geometry = FrameGeometry(**raw["geometry"]) if raw.get("geometry") else None
        except TypeError as exc:  # unknown, missing or mistyped geometry keys
            raise CrowdSeriesError(f"bad scenario file: geometry: {exc}") from exc
        sc = SyntheticScenario(
            start=ts(raw["start"]),
            weeks=raw["weeks"],
            daily_profile=raw["daily_profile"],
            planted_plateaus=[
                (ts(a), ts(b), m) for a, b, m in raw.get("planted_plateaus", [])
            ],
            planted_spikes=[(ts(a), m) for a, m in raw.get("planted_spikes", [])],
            noise_seed=seed if raw.get("jitter", True) else None,
            geometry=geometry or FrameGeometry(64, 36, 1.0),
        )
        counts = generate_fixture(sc, output)
    except (KeyError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise CrowdSeriesError(f"bad scenario file: {exc}") from exc
    click.echo(f"wrote {len(counts)} segment file(s) to {output}")


@main.command("plot-data")
@click.option("--report", "report_path", type=click.Path(exists=True), required=True)
@click.option("--series", "series_path", type=click.Path(exists=True), required=True)
@click.option("--decomposition", type=click.Path(exists=True), required=True)
@click.option("--output", type=click.Path(), required=True)
def plot_data(report_path, series_path, decomposition, output):
    """Emit figure-ready CSVs for a stored report and decomposition."""
    report = storage.read_report(report_path)
    s = storage.read_series(series_path)
    decomp = storage.read_decomposition(decomposition)
    out = Path(output)
    out.mkdir(parents=True, exist_ok=True)
    pipeline.emit_plot_data(report, decomp, s, out)
    click.echo(f"plot data written to {output}")


if __name__ == "__main__":
    main()
