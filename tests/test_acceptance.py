"""Acceptance gate: one test per release criterion, with stated tolerances.

Each test prints a single PASS line on success (run with ``pytest -s`` to
see them); a failed assertion marks the criterion red.
"""

import math
import time
from datetime import timedelta

import numpy as np
import pytest
from scipy import stats as scipy_stats

from conftest import brute_force_loess, brute_force_rasterize, embed, make_record, utc
from crowdseries.augment import (
    extend_backward,
    grouped_stats,
    gumbel_ppf,
    laplace_ppf,
    partition_for_stats,
)
from crowdseries.detect import EsdConfig, esd_test, rosner_critical_value
from crowdseries.ingest import (
    DetectionRecord,
    FrameGeometry,
    MaskGeometry,
    parse_segment_csv,
    rasterize_mask,
    serialize_records,
)
from crowdseries.loess import loess_smooth
from crowdseries.pipeline import PipelineConfig, run_pipeline
from crowdseries.series import (
    STEP_15_MIN,
    IntervalSeries,
    accumulate_heatmap,
    count_series,
    per_frame_counts,
    saturation_value,
)
from crowdseries.stl import StlConfig, stl_decompose_values
from crowdseries.storage import read_series
from crowdseries.synth import SyntheticScenario, generate_fixture

MONDAY = utc(2023, 7, 3)


def report(line):
    print(f"\nACCEPTANCE {line}")


def test_criterion_1_stl_reconstruction_identity():
    rng = np.random.default_rng(101)
    elapsed = 0.0
    worst = 0.0
    for _ in range(20):
        y = rng.normal(size=2688) + 5 * rng.uniform()
        t0 = time.monotonic()
        d = stl_decompose_values(y, StlConfig())
        elapsed += time.monotonic() - t0
        worst = max(worst, np.max(np.abs(y - (d.trend + d.seasonal + d.residual))))
    assert worst <= 1e-9
    assert elapsed < 10.0
    report(f"1 PASS: STL reconstruction, max error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_stl_recovery():
    rng = np.random.default_rng(102)
    n = 2688
    t = np.arange(n)
    seasonal = 10.0 * np.sin(2 * np.pi * t / 96)
    ramp = np.linspace(0.0, 20.0, n)
    y = seasonal + ramp + rng.normal(size=n)
    d = stl_decompose_values(y, StlConfig())
    corr = np.corrcoef(d.seasonal, seasonal)[0, 1]
    rmse = np.sqrt(np.mean((d.trend - ramp) ** 2))
    assert corr > 0.99
    assert rmse < 0.03 * 20.0
    report(f"2 PASS: STL recovery, seasonal corr {corr:.4f}, trend RMSE {rmse:.3f}")


def test_criterion_3_loess_oracle():
    x = np.arange(50, dtype=float)
    y = np.sin(2 * np.pi * x / 25)
    fitted = loess_smooth(x, y, x, window=7, degree=1)
    reference = brute_force_loess(x, y, x, window=7, degree=1)
    max_diff = np.max(np.abs(fitted - reference))
    assert max_diff <= 1e-6

    affine = 2.5 * x - 7.0
    out = loess_smooth(x, affine, x, window=11, degree=1)
    affine_err = np.max(np.abs(out - affine) / np.maximum(np.abs(affine), 1.0))
    assert affine_err <= 1e-9
    report(f"3 PASS: Loess oracle diff {max_diff:.2e}, affine error {affine_err:.2e}")


def test_criterion_4_esd_correctness():
    t0 = time.monotonic()
    for i in (1, 2, 3):
        p = 1 - 0.05 / (2 * (54 - i + 1))
        t_quantile = scipy_stats.t.ppf(p, 54 - i - 1)
        oracle = (54 - i) * t_quantile / math.sqrt(
            (54 - i - 1 + t_quantile**2) * (54 - i + 1)
        )
        assert rosner_critical_value(54, i, 0.05) == pytest.approx(
            oracle, abs=1e-6
        )

    rng = np.random.default_rng(104)
    values = rng.normal(size=1000)
    planted = [77, 250, 488, 660, 912]
    for j, idx in enumerate(planted):
        values[idx] = 8.0 if j % 2 else -8.0
    detections = esd_test(values, EsdConfig(max_anomalies=50, alpha=0.05))
    elapsed = time.monotonic() - t0
    assert sorted(d[0] for d in detections) == planted
    assert elapsed < 5.0
    report(f"4 PASS: ESD criticals match oracle, 5/5 planted outliers, {elapsed:.1f}s")


def test_criterion_5_sampler_statistics():
    n = 100_000
    mu, beta = 3.0, 2.0
    rng = np.random.default_rng(105)
    gumbel = np.array([gumbel_ppf(rng.uniform(), mu, beta) for _ in range(n)])
    expected_median = mu - beta * math.log(math.log(2))
    se_median = beta / (math.log(2) * math.sqrt(n))
    median_err = abs(np.median(gumbel) - expected_median)
    assert median_err < 3 * se_median
    gumbel_cdf = lambda x: np.exp(-np.exp(-(np.asarray(x) - mu) / beta))
    ks_g = scipy_stats.kstest(gumbel, gumbel_cdf)
    assert ks_g.pvalue > 0.01

    rng = np.random.default_rng(106)
    laplace = np.array([laplace_ppf(rng.uniform(), mu, beta) for _ in range(n)])
    q1, q3 = np.percentile(laplace, [25, 75])
    expected_iqr = 2 * beta * math.log(2)
    se_iqr = math.sqrt(6) * beta / math.sqrt(n)
    iqr_err = abs((q3 - q1) - expected_iqr)
    assert iqr_err < 3 * se_iqr
    ks_l = scipy_stats.kstest(laplace, scipy_stats.laplace(mu, beta).cdf)
    assert ks_l.pvalue > 0.01
    report(
        f"5 PASS: Gumbel median err {median_err:.4f} (<{3 * se_median:.4f}), "
        f"Laplace IQR err {iqr_err:.4f} (<{3 * se_iqr:.4f}), "
        f"KS p = {ks_g.pvalue:.3f}/{ks_l.pvalue:.3f}"
    )


def test_criterion_6_augmentation_contract():
    rng = np.random.default_rng(107)
    observed = IntervalSeries(MONDAY, np.round(rng.uniform(0, 9, 2016)), "count")
    stats = grouped_stats(partition_for_stats(observed, seed=7))
    extended = extend_backward(observed, stats, weeks=8, seed=7)
    assert len(extended) - len(observed) == 5376
    assert extended.values[5376:].tobytes() == observed.values.tobytes()
    synth = extended.values[:5376]
    assert (synth >= 0).all()
    np.testing.assert_array_equal(synth, np.round(synth))

    sat = IntervalSeries(MONDAY, rng.uniform(0, 0.02, 2016), "saturation")
    sat_ext = extend_backward(
        sat, grouped_stats(partition_for_stats(sat, seed=7)), weeks=8, seed=7
    )
    assert (sat_ext.values >= 0).all() and (sat_ext.values <= 1).all()
    assert sat_ext.values[5376:].tobytes() == sat.values.tobytes()
    report("6 PASS: 5376 synthetic points prepended, tail byte-identical, ranges hold")


def test_criterion_7_series_aggregation_oracle(tmp_path):
    rng = np.random.default_rng(108)
    geometry = FrameGeometry(12, 10, fps=4 / STEP_15_MIN.total_seconds())
    frames = 4
    checked = 0
    for case in range(50):
        directory = tmp_path / f"case_{case:02d}"
        directory.mkdir()
        n_intervals = int(rng.integers(1, 4))
        parsed = []
        for i in range(n_intervals):
            start = MONDAY + i * STEP_15_MIN
            records = []
            for f in range(frames):
                ts = start + timedelta(seconds=int(f))
                for k in range(int(rng.integers(0, 5))):
                    records.append(make_record(ts, k, geometry))
            path = directory / start.strftime("%Y%m%d_%H%M.csv")
            path.write_text(serialize_records(records))
            parsed.append(parse_segment_csv(path.read_text(), geometry))

        window = (MONDAY, MONDAY + n_intervals * STEP_15_MIN)
        all_records = [r for recs in parsed for r in recs]
        series = count_series(per_frame_counts(all_records), window)
        for i, records in enumerate(parsed):
            frame_counts = {}
            for r in records:
                frame_counts[r.timestamp] = frame_counts.get(r.timestamp, 0) + 1
            assert series.values[i] == (max(frame_counts.values()) if frame_counts else 0)

            accumulated = accumulate_heatmap(records, geometry, frames)
            # brute-force accumulation with the per-cell polygon scan
            raw = np.zeros((geometry.height, geometry.width))
            by_frame = {}
            for r in records:
                by_frame.setdefault(r.timestamp, []).append(r)
            for frame_records in by_frame.values():
                union = np.zeros_like(raw, dtype=bool)
                for r in frame_records:
                    cells = brute_force_rasterize(
                        r.mask.polygon, geometry.width, geometry.height
                    )
                    np.testing.assert_array_equal(
                        embed(rasterize_mask(r.mask, geometry), geometry.width, geometry.height),
                        cells,
                    )
                    union |= cells.astype(bool)
                raw += union
            np.testing.assert_array_equal(accumulated, raw)
            expected = raw.sum() * (255.0 / frames) / (
                geometry.width * geometry.height * 255.0
            )
            assert saturation_value(accumulated, frames, geometry) == expected
            checked += 1

    # full-coverage fixture saturates to exactly 1.0
    cover = MaskGeometry(((0, 0), (11.5, 0), (11.5, 9.5), (0, 9.5)))
    records = [
        DetectionRecord(
            timestamp=MONDAY + timedelta(seconds=f),
            class_id=0,
            class_name="person",
            confidence=0.9,
            bbox=(0, 0, 12, 10),
            mask=cover,
        )
        for f in range(frames)
    ]
    full = accumulate_heatmap(records, geometry, frames)
    assert saturation_value(full, frames, geometry) == 1.0
    report(f"7 PASS: {checked} intervals across 50 fixture dirs match brute force exactly")


@pytest.fixture(scope="module")
def twelve_week_run(tmp_path_factory):
    profile = [2 + round(6 * math.exp(-(((s - 44) / 12) ** 2))) for s in range(96)]
    plateau_start = MONDAY + timedelta(days=60)
    plateau_end = plateau_start + timedelta(days=2)
    spike_ts = MONDAY + timedelta(days=30, hours=10, minutes=15)
    inside_spike_ts = plateau_start + timedelta(hours=11)
    base_at_spike = profile[10 * 4 + 1]
    scenario = SyntheticScenario(
        start=MONDAY,
        weeks=12,
        daily_profile=profile,
        planted_plateaus=[(plateau_start, plateau_end, 5)],
        planted_spikes=[
            (spike_ts, 9 * base_at_spike),
            (inside_spike_ts, 9 * base_at_spike),
        ],
        noise_seed=42,
        geometry=FrameGeometry(64, 36, 1.0),
    )
    input_dir = tmp_path_factory.mktemp("segments12")
    t0 = time.monotonic()
    generate_fixture(scenario, input_dir)
    config = PipelineConfig(
        input_dir=input_dir,
        output_dir=tmp_path_factory.mktemp("out12"),
        geometry=scenario.geometry,
        augment_weeks=8,
        seed=12,
    )
    reports = run_pipeline(config)
    elapsed = time.monotonic() - t0
    return scenario, config, reports, elapsed


def test_criterion_8_end_to_end_planted_recovery(twelve_week_run):
    scenario, config, reports, elapsed = twelve_week_run
    assert elapsed < 60.0
    augmented = read_series(config.output_dir / "augmented_count.csv")
    plateau_start, plateau_end, _ = scenario.planted_plateaus[0]
    spike_ts, _ = scenario.planted_spikes[0]
    inside_spike_ts, _ = scenario.planted_spikes[1]

    detected = set()
    for run in reports["count"]["collective"]:
        detected |= set(range(run["start_index"], run["end_index"] + 1))
    planted = {
        augmented.index_of(plateau_start + i * STEP_15_MIN)
        for i in range((plateau_end - plateau_start) // STEP_15_MIN)
    }
    jaccard = len(detected & planted) / len(detected | planted)
    assert jaccard >= 0.7

    points = reports["count"]["points"]
    assert points[0]["timestamp"] == spike_ts.isoformat()
    assert points[0]["rank"] == 1
    timestamps = {p["timestamp"] for p in points}
    assert inside_spike_ts.isoformat() not in timestamps
    report(
        f"8 PASS: plateau Jaccard {jaccard:.3f}, spike rank 1, "
        f"in-plateau spike excluded, {elapsed:.1f}s"
    )


def test_criterion_9_determinism(twelve_week_run, tmp_path):
    scenario, config, _, _ = twelve_week_run
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        rerun = PipelineConfig(
            input_dir=config.input_dir,
            output_dir=out,
            geometry=scenario.geometry,
            augment_weeks=8,
            seed=12,
        )
        run_pipeline(rerun, emit_plots=True)
    names = sorted(p.name for p in out_a.iterdir() if p.name != "manifest.json")
    assert names == sorted(p.name for p in out_b.iterdir() if p.name != "manifest.json")
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    report(f"9 PASS: {len(names)} artifacts byte-identical across runs")
