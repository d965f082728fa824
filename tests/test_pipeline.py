import errno
import json
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest

from conftest import utc
from crowdseries import pipeline, storage
from crowdseries.errors import InsufficientDataError
from crowdseries.ingest import FrameGeometry
from crowdseries.pipeline import (
    PipelineConfig,
    build_series,
    discover_segments,
    emit_plot_data,
    run_pipeline,
)
from crowdseries.series import STEP_15_MIN
from crowdseries.storage import (
    read_decomposition,
    read_grouped_stats,
    read_report,
    read_series,
    write_series,
)
from crowdseries.synth import SyntheticScenario, generate_fixture

MONDAY = utc(2023, 9, 4)
GEO = FrameGeometry(16, 16, 1.0)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("segments")
    profile = [1 + (3 if 40 <= s < 56 else 0) for s in range(96)]
    plateau = (MONDAY + timedelta(days=8), MONDAY + timedelta(days=10), 5)
    spike = (MONDAY + timedelta(days=3, hours=11), 20)
    sc = SyntheticScenario(
        start=MONDAY,
        weeks=3,
        daily_profile=profile,
        planted_plateaus=[plateau],
        planted_spikes=[spike],
        noise_seed=None,
        geometry=GEO,
    )
    generate_fixture(sc, path)
    return path, sc


def make_config(fixture_dir, out, **overrides):
    defaults = dict(
        input_dir=fixture_dir,
        output_dir=out,
        geometry=GEO,
        augment_weeks=2,
        seed=1,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def test_discover_segments_ignores_foreign_files(tmp_path):
    (tmp_path / "20230904_0000.csv").write_text("x\n")
    (tmp_path / "notes.csv").write_text("x\n")
    (tmp_path / "readme.txt").write_text("x\n")
    segments = discover_segments(tmp_path)
    assert list(segments) == [MONDAY]


def test_empty_input_dir_raises_insufficient_data(tmp_path):
    config = make_config(tmp_path / "none", tmp_path / "out")
    (tmp_path / "none").mkdir()
    with pytest.raises(InsufficientDataError, match="series"):
        run_pipeline(config)


def test_moved_output_dir_skips_every_stage(fixture_dir, tmp_path, monkeypatch):
    path, _ = fixture_dir
    first = run_pipeline(make_config(path, tmp_path / "out"))
    (tmp_path / "out").rename(tmp_path / "moved")

    def recompute(*args, **kwargs):
        raise AssertionError("a stage ran again after its output directory moved")

    for stage in ("series_stage", "augment_stage", "decompose_stage", "detect_stage"):
        monkeypatch.setattr(pipeline, stage, recompute)
    assert run_pipeline(make_config(path, tmp_path / "moved")) == first


def test_build_series_produces_both_kinds(fixture_dir, tmp_path):
    path, sc = fixture_dir
    built = build_series(make_config(path, tmp_path / "out"))
    assert built["count"].kind == "count"
    assert built["saturation"].kind == "saturation"
    assert len(built["count"]) == sc.n_intervals
    np.testing.assert_array_equal(built["count"].values, sc.intended_counts())


def test_run_pipeline_end_to_end(fixture_dir, tmp_path):
    path, sc = fixture_dir
    out = tmp_path / "out"
    reports = run_pipeline(make_config(path, out), emit_plots=True)

    for kind in ("count", "saturation"):
        report = reports[kind]
        assert report["series_kind"] == kind
        assert set(report) == {
            "series_kind",
            "threshold",
            "collective",
            "points",
            "config_echo",
        }
        assert (out / f"report_{kind}.json").exists()
        assert (out / f"series_{kind}.csv").exists()
        assert (out / f"grouped_stats_{kind}.csv").exists()
        assert (out / f"augmented_{kind}.csv").exists()
        assert (out / f"decomposition_{kind}.csv").exists()

    plateau_start, plateau_end, _ = sc.planted_plateaus[0]
    runs = reports["count"]["collective"]
    assert runs, "plateau not detected"
    detected = set()
    augmented = read_series(out / "augmented_count.csv")
    for run in runs:
        detected |= set(range(run["start_index"], run["end_index"] + 1))
    planted = {
        augmented.index_of(plateau_start + i * STEP_15_MIN)
        for i in range((plateau_end - plateau_start) // STEP_15_MIN)
    }
    jaccard = len(detected & planted) / len(detected | planted)
    assert jaccard >= 0.7

    spike_ts, _ = sc.planted_spikes[0]
    top = reports["count"]["points"][0]
    assert top["rank"] == 1
    assert top["timestamp"] == spike_ts.isoformat()


def test_decomposition_artifact_reconstructs(fixture_dir, tmp_path):
    path, _ = fixture_dir
    out = tmp_path / "out"
    run_pipeline(make_config(path, out))
    series = read_series(out / "augmented_count.csv")
    decomp = read_decomposition(out / "decomposition_count.csv")
    np.testing.assert_allclose(
        decomp.trend + decomp.seasonal + decomp.residual, series.values, atol=1e-9
    )


def test_grouped_stats_artifact_complete(fixture_dir, tmp_path):
    path, _ = fixture_dir
    out = tmp_path / "out"
    run_pipeline(make_config(path, out))
    stats = read_grouped_stats(out / "grouped_stats_count.csv")
    assert len(stats.table) == 672


def test_determinism_byte_identical(fixture_dir, tmp_path):
    path, _ = fixture_dir
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_pipeline(make_config(path, out_a))
    run_pipeline(make_config(path, out_b))
    for name in sorted(p.name for p in out_a.iterdir()):
        if name == "manifest.json":
            continue
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_stage_caching_skips_unchanged_stages(fixture_dir, tmp_path):
    path, _ = fixture_dir
    out = tmp_path / "out"
    config = make_config(path, out)
    run_pipeline(config)
    series_mtime = (out / "series_count.csv").stat().st_mtime_ns
    decomp_mtime = (out / "decomposition_count.csv").stat().st_mtime_ns

    # downstream-only invalidation: delete the reports, re-run
    (out / "report_count.json").unlink()
    reports = run_pipeline(config)
    assert (out / "series_count.csv").stat().st_mtime_ns == series_mtime
    assert (out / "decomposition_count.csv").stat().st_mtime_ns == decomp_mtime
    assert (out / "report_count.json").exists()
    assert reports["count"]["series_kind"] == "count"


def test_os_error_removes_stage_outputs(fixture_dir, tmp_path, monkeypatch):
    path, _ = fixture_dir
    out = tmp_path / "out"
    real_write_series = storage.write_series
    calls = []

    def disk_full_on_second_call(series, target, geometry=None):
        calls.append(target)
        if len(calls) == 2:
            Path(target).write_text("timestamp,va")  # a truncated write
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write_series(series, target, geometry)

    monkeypatch.setattr(storage, "write_series", disk_full_on_second_call)
    with pytest.raises(OSError) as info:
        run_pipeline(make_config(path, out))
    assert info.value.errno == errno.ENOSPC
    assert len(calls) == 2
    assert not list(out.glob("series_*"))


def test_cache_invalidated_by_config_change(fixture_dir, tmp_path):
    path, _ = fixture_dir
    out = tmp_path / "out"
    run_pipeline(make_config(path, out))
    detect_before = read_report(out / "report_count.json")
    run_pipeline(make_config(path, out, esd_alpha=0.01))
    detect_after = read_report(out / "report_count.json")
    assert detect_after["config_echo"]["esd_alpha"] == 0.01
    assert detect_before["config_echo"]["esd_alpha"] == 0.05


def test_workers_do_not_change_results(fixture_dir, tmp_path):
    path, _ = fixture_dir
    a = build_series(make_config(path, tmp_path / "x", workers=1))
    b = build_series(make_config(path, tmp_path / "y", workers=4))
    np.testing.assert_array_equal(a["count"].values, b["count"].values)
    np.testing.assert_array_equal(a["saturation"].values, b["saturation"].values)


def test_plot_data_cross_checks_report(fixture_dir, tmp_path):
    path, _ = fixture_dir
    out = tmp_path / "out"
    run_pipeline(make_config(path, out), emit_plots=True)
    report = read_report(out / "report_count.json")

    lines = (out / "plot_threshold_count.csv").read_text().splitlines()
    assert lines[0] == "timestamp,value,trend,upper,lower,collective_flag"
    upper = {line.split(",")[3] for line in lines[1:]}
    assert upper == {repr(report["threshold"]["upper"])}

    lines = (out / "plot_residual_count.csv").read_text().splitlines()
    flagged = {
        line.split(",")[0]: int(line.split(",")[3])
        for line in lines[1:]
        if line.split(",")[2] == "1"
    }
    reported = {p["timestamp"]: p["rank"] for p in report["points"]}
    assert flagged == reported


def test_plot_data_without_anomalies(tmp_path):
    # constant series: no collective runs, no point anomalies
    from crowdseries.detect import build_report, compute_threshold
    from crowdseries.series import IntervalSeries
    from crowdseries.stl import StlDecomposition

    n = 40
    series = IntervalSeries(MONDAY, np.full(n, 2.0), "count")
    decomp = StlDecomposition(np.full(n, 2.0), np.zeros(n), np.zeros(n))
    report = build_report(series, compute_threshold(series), [], [])
    emit_plot_data(report, decomp, series, tmp_path)
    lines = (tmp_path / "plot_residual_count.csv").read_text().splitlines()
    assert all(line.split(",")[2] == "0" for line in lines[1:])


def test_config_round_trip_from_json(tmp_path):
    raw = {
        "input_dir": "segments",
        "output_dir": "out",
        "geometry": {"width": 32, "height": 18, "fps": 1.0},
        "augment_weeks": 3,
        "seed": 9,
        "allowed_classes": ["person"],
        "stl": {"count": {"period": 48, "seasonal_window": 337}},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    config = PipelineConfig.from_json(config_path)
    assert config.geometry.width == 32
    assert config.augment_weeks == 3
    assert config.stl["count"].period == 48
    assert config.stl["saturation"].period == 96  # default preserved
