import json
from datetime import timedelta

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import utc
from crowdseries.cli import main
from crowdseries.ingest import CSV_COLUMNS, FrameGeometry
from crowdseries.storage import read_report, read_series
from crowdseries.synth import SyntheticScenario, generate_fixture

MONDAY = utc(2023, 9, 4)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def segments_dir(tmp_path):
    sc = SyntheticScenario(
        start=MONDAY,
        weeks=1,
        daily_profile=[2] * 96,
        planted_spikes=[(MONDAY + timedelta(days=2, hours=12), 9)],
        geometry=FrameGeometry(16, 16, 1.0),
    )
    path = tmp_path / "segments"
    generate_fixture(sc, path)
    return path


def test_ingest_reports_counts(runner, segments_dir):
    result = runner.invoke(
        main, ["ingest", "--input", str(segments_dir), "--geometry", "16x16@1"]
    )
    assert result.exit_code == 0, result.output
    assert "total:" in result.output


def test_ingest_empty_dir_exit_3(runner, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    result = runner.invoke(main, ["ingest", "--input", str(empty)])
    assert result.exit_code == 3


def test_ingest_validation_error_exit_2(runner, tmp_path):
    seg = tmp_path / "segments"
    seg.mkdir()
    (seg / "20230904_0000.csv").write_text("wrong,header\n")
    result = runner.invoke(main, ["ingest", "--input", str(seg)])
    assert result.exit_code == 2


@pytest.mark.parametrize("subcommand", ["ingest", "series"])
def test_bad_row_names_file_and_row(runner, tmp_path, subcommand):
    seg = tmp_path / "segments"
    seg.mkdir()
    good = '2023-09-04T00:00:00,0,person,0.5,0,0,2,2,"[(0,0),(2,0),(2,2)]"'
    (seg / "20230904_0000.csv").write_text(
        f"{','.join(CSV_COLUMNS)}\n{good}\n2023-09-04T00:00:00,0,person,0.5,0,0\n"
    )
    options = ["--input", str(seg), "--geometry", "16x16@1"]
    if subcommand == "series":
        options += ["--output", str(tmp_path / "out")]
    result = runner.invoke(main, [subcommand] + options)
    assert result.exit_code == 2, result.output
    assert "20230904_0000.csv" in result.stderr
    assert "row 2: expected 9 fields, got 6" in result.stderr


def test_series_skip_bad_rows_drops_the_row(runner, tmp_path):
    seg = tmp_path / "segments"
    seg.mkdir()
    good = '2023-09-04T00:00:00,0,person,0.5,0,0,2,2,"[(0,0),(2,0),(2,2)]"'
    (seg / "20230904_0000.csv").write_text(
        f"{','.join(CSV_COLUMNS)}\n{good}\n2023-09-04T00:00:00,0,person,0.5,0,0\n"
    )
    out = tmp_path / "out"
    options = ["series", "--input", str(seg), "--output", str(out), "--geometry", "16x16@1"]
    result = runner.invoke(main, options + ["--skip-bad-rows"])
    assert result.exit_code == 0, result.output
    assert list(read_series(out / "series_count.csv").values) == [1.0]


def test_run_accepts_skip_bad_rows(runner, segments_dir, tmp_path):
    options = ["--input", str(segments_dir), "--output", str(tmp_path / "out")]
    options += ["--geometry", "16x16@1", "--weeks", "2", "--skip-bad-rows"]
    result = runner.invoke(main, ["run"] + options)
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("subcommand", ["series", "run"])
def test_degenerate_mask_names_file(runner, tmp_path, subcommand):
    # the mask covers no cell centre; parsing accepts it, rasterizing does not
    seg = tmp_path / "segments"
    seg.mkdir()
    row = '2023-09-04T00:00:00,0,person,0.5,0,0,1,1,"[(0.1,0.1),(0.2,0.1),(0.2,0.2)]"'
    (seg / "20230904_0000.csv").write_text(f"{','.join(CSV_COLUMNS)}\n{row}\n")
    options = ["--input", str(seg), "--output", str(tmp_path / "out"), "--geometry", "16x16@1"]
    result = runner.invoke(main, [subcommand] + options)
    assert result.exit_code == 2, result.output
    assert "20230904_0000.csv" in result.stderr
    assert "covers no cell" in result.stderr


def test_series_subcommand(runner, segments_dir, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        [
            "series",
            "--input",
            str(segments_dir),
            "--output",
            str(out),
            "--geometry",
            "16x16@1",
        ],
    )
    assert result.exit_code == 0, result.output
    series = read_series(out / "series_count.csv")
    assert len(series) == 672


def test_stagewise_chain(runner, segments_dir, tmp_path):
    # the stage subcommands, given run's geometry, seed and weeks, write run's bytes
    run_out, out = tmp_path / "run", tmp_path / "stages"
    geometry = ("--geometry", "16x16@1")
    seeding = ("--seed", "4", "--weeks", "2")

    def invoke(*args):
        result = runner.invoke(main, [str(a) for a in args])
        assert result.exit_code == 0, result.output

    invoke("run", "--input", segments_dir, "--output", run_out, *geometry, *seeding)
    invoke("series", "--input", segments_dir, "--output", out, *geometry)
    for kind in ("count", "saturation"):
        augmented = out / f"augmented_{kind}.csv"
        decomposition = out / f"decomposition_{kind}.csv"
        invoke("augment", "--series", out / f"series_{kind}.csv", "--output", out, *seeding)
        invoke("decompose", "--series", augmented, "--output", out)
        invoke(
            "detect", "--series", augmented, "--decomposition", decomposition, "--output", out
        )

        for name in (
            f"series_{kind}.csv",
            f"series_{kind}.csv.meta",
            f"grouped_stats_{kind}.csv",
            f"augmented_{kind}.csv",
            f"augmented_{kind}.csv.meta",
            f"decomposition_{kind}.csv",
        ):
            assert (out / name).read_bytes() == (run_out / name).read_bytes(), name
        staged = read_report(out / f"report_{kind}.json")
        full = read_report(run_out / f"report_{kind}.json")
        for key in ("esd_alpha", "esd_max_anomalies"):
            assert staged["config_echo"][key] == full["config_echo"][key]
        del staged["config_echo"], full["config_echo"]
        assert staged == full


def test_augment_rejects_other_step(runner, segments_dir, tmp_path):
    out = tmp_path / "out"
    invoke = ["series", "--input", str(segments_dir), "--output", str(out)]
    assert runner.invoke(main, invoke + ["--geometry", "16x16@1"]).exit_code == 0
    meta = out / "series_count.csv.meta"
    meta.write_text(meta.read_text().replace("step_seconds=900", "step_seconds=300"))
    result = runner.invoke(
        main,
        ["augment", "--series", str(out / "series_count.csv"), "--output", str(out), "--seed", "1"],
    )
    assert result.exit_code == 2, result.output
    assert "series_count.csv.meta" in result.stderr
    assert "step_seconds=300" in result.stderr


@pytest.mark.parametrize("key", ["start", "kind", "gaps"])
def test_augment_names_missing_meta_key(runner, segments_dir, tmp_path, key):
    out = tmp_path / "out"
    invoke = ["series", "--input", str(segments_dir), "--output", str(out)]
    assert runner.invoke(main, invoke + ["--geometry", "16x16@1"]).exit_code == 0
    meta = out / "series_count.csv.meta"
    lines = meta.read_text().splitlines(keepends=True)
    meta.write_text("".join(line for line in lines if not line.startswith(f"{key}=")))
    result = runner.invoke(
        main,
        ["augment", "--series", str(out / "series_count.csv"), "--output", str(out), "--seed", "1"],
    )
    assert result.exit_code == 2, result.output
    assert "series_count.csv.meta" in result.stderr
    assert repr(key) in result.stderr


def test_augment_requires_seed(runner, segments_dir, tmp_path):
    result = runner.invoke(
        main, ["augment", "--series", "x.csv", "--output", str(tmp_path)]
    )
    assert result.exit_code != 0


def test_run_full_pipeline(runner, segments_dir, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        [
            "run",
            "--input",
            str(segments_dir),
            "--output",
            str(out),
            "--geometry",
            "16x16@1",
            "--seed",
            "2",
            "--weeks",
            "2",
        ],
    )
    assert result.exit_code == 0, result.output
    written = {p.name for p in out.iterdir()}
    expected = {"manifest.json", "segment_cache.json"}
    for kind in ("count", "saturation"):
        expected |= {
            f"series_{kind}.csv",
            f"series_{kind}.csv.meta",
            f"grouped_stats_{kind}.csv",
            f"augmented_{kind}.csv",
            f"augmented_{kind}.csv.meta",
            f"decomposition_{kind}.csv",
            f"report_{kind}.json",
            f"plot_threshold_{kind}.csv",
            f"plot_residual_{kind}.csv",
        }
    assert written == expected


def test_run_with_config_file(runner, segments_dir, tmp_path):
    out = tmp_path / "out"
    config = {
        "input_dir": str(segments_dir),
        "output_dir": str(out),
        "geometry": {"width": 16, "height": 16, "fps": 1.0},
        "augment_weeks": 2,
        "seed": 5,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    result = runner.invoke(main, ["run", "--config", str(config_path)])
    assert result.exit_code == 0, result.output
    report = read_report(out / "report_count.json")
    assert report["config_echo"]["seed"] == 5


@pytest.mark.parametrize(
    "config, options",
    [
        ('{"input_dir": "in", "output_dir": "out", "bogus": 1}', []),
        ('{"input_dir": "in", ', []),
        ('{"input_dir": "in", "output_dir": "out", "geometry": {"w": 16}}', []),
        ('{"input_dir": "in", "output_dir": "out", "stl": []}', []),
        (None, ["--geometry", "banana"]),
    ],
    ids=[
        "unknown-key",
        "malformed-json",
        "bad-geometry-key",
        "stl-not-object",
        "bad-geometry-option",
    ],
)
def test_run_misconfiguration_exit_2(runner, tmp_path, config, options):
    if config is None:
        options = ["--input", str(tmp_path), "--output", str(tmp_path / "out")] + options
    else:
        config_path = tmp_path / "config.json"
        config_path.write_text(config)
        options = ["--config", str(config_path)] + options
    result = runner.invoke(main, ["run"] + options)
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error:")


@pytest.mark.parametrize(
    "setting",
    [
        {"workers": 0},
        {"augment_fraction": 0},
        {"stl": {"cuont": {"period": 48}}},
        {"step_seconds": 900},
    ],
    ids=["workers-0", "augment-fraction-0", "stl-kind-typo", "step-seconds"],
)
def test_run_rejects_config_before_any_stage(runner, segments_dir, tmp_path, setting):
    out = tmp_path / "out"
    config = {"input_dir": str(segments_dir), "output_dir": str(out), **setting}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    result = runner.invoke(main, ["run", "--config", str(config_path)])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith(f"error: {config_path}:")
    assert next(iter(setting)) in result.stderr
    assert not out.exists()


def test_run_empty_input_exit_3(runner, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    result = runner.invoke(
        main, ["run", "--input", str(empty), "--output", str(tmp_path / "out")]
    )
    assert result.exit_code == 3


def test_synth_subcommand(runner, tmp_path):
    scenario = {
        "start": "2023-09-04T00:00:00",
        "weeks": 1,
        "daily_profile": [1] * 96,
        "planted_spikes": [["2023-09-06T10:15:00", 5]],
        "jitter": False,
        "geometry": {"width": 16, "height": 16, "fps": 1.0},
    }
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    out = tmp_path / "segments"
    result = runner.invoke(
        main,
        ["synth", "--scenario", str(scenario_path), "--output", str(out), "--seed", "1"],
    )
    assert result.exit_code == 0, result.output
    assert len(list(out.glob("*.csv"))) == 672


def test_synth_requires_seed(runner, tmp_path):
    result = runner.invoke(main, ["synth", "--scenario", "x", "--output", "y"])
    assert result.exit_code != 0


def test_synth_bad_geometry_exit_2(runner, tmp_path):
    scenario = {
        "start": "2023-09-04T00:00:00",
        "weeks": 1,
        "daily_profile": [1] * 96,
        "geometry": {"w": 16},
    }
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(scenario))
    result = runner.invoke(
        main,
        ["synth", "--scenario", str(scenario_path), "--output", str(tmp_path / "out"), "--seed", "1"],
    )
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error:")


def test_plot_data_subcommand(runner, segments_dir, tmp_path):
    out = tmp_path / "out"
    runner.invoke(
        main,
        [
            "run",
            "--input",
            str(segments_dir),
            "--output",
            str(out),
            "--geometry",
            "16x16@1",
            "--seed",
            "2",
            "--weeks",
            "2",
        ],
    )
    plots = tmp_path / "plots"
    result = runner.invoke(
        main,
        [
            "plot-data",
            "--report",
            str(out / "report_count.json"),
            "--series",
            str(out / "augmented_count.csv"),
            "--decomposition",
            str(out / "decomposition_count.csv"),
            "--output",
            str(plots),
        ],
    )
    assert result.exit_code == 0, result.output
    assert (plots / "plot_threshold_count.csv").exists()
    paths = sorted(plots.glob("plot_*.csv"))
    assert len(paths) == 2
    for path in paths:
        for line in path.read_text().splitlines()[1:]:
            for field in line.split(",")[1:]:
                float(field)  # e.g. not "np.float64(2.0)"
