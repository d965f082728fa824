import errno
import json
import shutil
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest

from conftest import make_record, utc
from crowdseries import detect, pipeline, storage
from crowdseries.errors import InsufficientDataError
from crowdseries.ingest import CSV_COLUMNS, FrameGeometry, serialize_records
from crowdseries.pipeline import (
    SEGMENT_CACHE,
    PipelineConfig,
    StageError,
    build_series,
    discover_segments,
    emit_plot_data,
    run_pipeline,
    series_stage,
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


def test_rosner_critical_values_computed_once_per_step(fixture_dir, tmp_path, monkeypatch):
    # both series kinds share n and alpha, so the second kind's Student-t
    # quantiles come from the first kind's
    path, _ = fixture_dir
    steps, quantiles = [], []
    cached = detect.rosner_critical_value
    real_t_ppf = detect.t_ppf

    def record_step(n, i, alpha):
        steps.append((n, i, alpha))
        return cached(n, i, alpha)

    def count_t_ppf(p, df):
        quantiles.append((p, df))
        return real_t_ppf(p, df)

    cached.cache_clear()
    monkeypatch.setattr(detect, "rosner_critical_value", record_step)
    monkeypatch.setattr(detect, "t_ppf", count_t_ppf)
    run_pipeline(make_config(path, tmp_path / "out"))
    assert len(steps) > len(set(steps)) > 0
    assert len(quantiles) == len(set(steps))


# --- the per-segment reduction cache ------------------------------------


@pytest.fixture
def segment_copy(fixture_dir, tmp_path):
    """A private copy of the fixture's first week, and the segment after it."""
    source, _ = fixture_dir
    segments, held = tmp_path / "segments", tmp_path / "held"
    segments.mkdir()
    held.mkdir()
    files = sorted(source.glob("*.csv"))
    for path in files[:672]:
        shutil.copy(path, segments)
    return segments, Path(shutil.copy(files[672], held))


def count_parses(monkeypatch):
    calls = []
    real = pipeline.parse_segment_csv

    def parse(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "parse_segment_csv", parse)
    return calls


def next_segment(segments):
    last = max(discover_segments(segments))
    return segments / (last + STEP_15_MIN).strftime("%Y%m%d_%H%M.csv")


def cached_digests(out):
    return set(json.loads((out / SEGMENT_CACHE).read_text())["segments"])


def test_warm_run_after_append_matches_cold_run(segment_copy, tmp_path):
    segments, held = segment_copy
    warm, cold = tmp_path / "warm", tmp_path / "cold"
    run_pipeline(make_config(segments, warm))
    shutil.copy(held, segments)
    run_pipeline(make_config(segments, warm))
    run_pipeline(make_config(segments, cold))
    names = sorted(p.name for p in cold.iterdir())
    assert sorted(p.name for p in warm.iterdir()) == names
    assert SEGMENT_CACHE in names
    for name in names:
        assert (warm / name).read_bytes() == (cold / name).read_bytes(), name


def test_append_parses_only_the_new_segment(segment_copy, tmp_path, monkeypatch):
    segments, held = segment_copy
    config = make_config(segments, tmp_path / "out")
    series_stage(config)
    calls = count_parses(monkeypatch)
    shutil.copy(held, segments)
    series_stage(config)
    assert len(calls) == 1

    # a header-only segment, then a second one with the same bytes
    header_only = ",".join(CSV_COLUMNS) + "\n"
    next_segment(segments).write_text(header_only)
    series_stage(config)
    assert len(calls) == 2
    gap = next_segment(segments)
    gap.write_text(header_only)
    written = dict((p.name, s) for p, s in series_stage(config))
    assert len(calls) == 2
    saturation = written["series_saturation.csv"]
    assert saturation.gaps[-2:] == (len(saturation) - 2, len(saturation) - 1)


def test_edited_segment_changes_its_interval(segment_copy, tmp_path):
    segments, _ = segment_copy
    config = make_config(segments, tmp_path / "out")
    before = build_series(config)
    ts, path = sorted(discover_segments(segments).items())[5]
    path.write_text(serialize_records([make_record(ts, k, GEO) for k in range(7)]))
    after = build_series(config)
    assert before["count"].values[5] != 7
    assert after["count"].values[5] == 7
    assert after["saturation"].values[5] == pytest.approx(7 * 4 / (16 * 16 * 900), rel=1e-12)
    for kind in ("count", "saturation"):
        changed = np.nonzero(before[kind].values != after[kind].values)[0]
        assert list(changed) == [5]


@pytest.mark.parametrize(
    "change",
    [
        {"geometry": FrameGeometry(16, 16, 2.0)},
        {"allowed_classes": ("person", "car")},
        {"skip_bad_rows": True},
    ],
    ids=["geometry", "allowed-classes", "skip-bad-rows"],
)
def test_reduction_settings_reparse_every_file(segment_copy, tmp_path, monkeypatch, change):
    segments, _ = segment_copy
    out = tmp_path / "out"
    series_stage(make_config(segments, out))
    calls = count_parses(monkeypatch)
    series_stage(make_config(segments, out))
    assert calls == []
    series_stage(make_config(segments, out, **change))
    assert len(calls) == len(list(segments.glob("*.csv")))


@pytest.mark.parametrize(
    "damage",
    [
        lambda text: text[: len(text) // 2],
        lambda text: "\x00\xff garbage",
        lambda text: "[]",
        lambda text: '{"key": {}, "segments": []}',
        lambda text: text.replace('"segments":{"', '"segments":{"0":[],"', 1).replace(
            "]]]", "]],0]", 1
        ),
    ],
    ids=["truncated", "garbage", "not-an-object", "wrong-key", "malformed-entries"],
)
def test_damaged_cache_is_ignored_and_rewritten(segment_copy, tmp_path, monkeypatch, damage):
    segments, _ = segment_copy
    out = tmp_path / "out"
    config = make_config(segments, out)
    reference = build_series(config)
    cache = out / SEGMENT_CACHE
    good = cache.read_bytes()
    damaged = damage(good.decode())
    assert damaged.encode() != good
    cache.write_text(damaged)
    built = build_series(config)
    assert cache.read_bytes() == good
    for kind in ("count", "saturation"):
        np.testing.assert_array_equal(built[kind].values, reference[kind].values)
        assert built[kind].gaps == reference[kind].gaps


def test_deleted_segment_leaves_the_cache(segment_copy, tmp_path):
    segments, _ = segment_copy
    out = tmp_path / "out"
    config = make_config(segments, out)
    build_series(config)
    victim = sorted(segments.glob("*.csv"))[100]
    digest = pipeline._sha256_file(victim)
    assert digest in cached_digests(out)
    victim.unlink()
    build_series(config)
    remaining = {pipeline._sha256_file(p) for p in segments.glob("*.csv")}
    assert cached_digests(out) == remaining
    assert digest not in remaining


def test_degenerate_mask_on_cache_miss_names_the_file(segment_copy, tmp_path):
    segments, _ = segment_copy
    config = make_config(segments, tmp_path / "out")
    build_series(config)
    bad = next_segment(segments)
    row = f"{bad.stem[:4]}-{bad.stem[4:6]}-{bad.stem[6:8]}T00:00:00,0,person,0.5,0,0,1,1,"
    bad.write_text(f'{",".join(CSV_COLUMNS)}\n{row}"[(0.1,0.1),(0.2,0.1),(0.2,0.2)]"\n')
    with pytest.raises(StageError, match=bad.name) as info:
        build_series(config)
    assert "covers no cell" in str(info.value)
