from datetime import timedelta

import numpy as np
import pytest

from conftest import utc
from crowdseries.errors import ConfigurationError, ValidationError
from crowdseries.ingest import FrameGeometry, parse_segment_csv
from crowdseries.pipeline import discover_segments
from crowdseries.series import STEP_15_MIN, count_series, per_frame_counts
from crowdseries.synth import SyntheticScenario, generate_fixture

MONDAY = utc(2023, 9, 4)


def scenario(**kwargs):
    defaults = dict(
        start=MONDAY,
        weeks=1,
        daily_profile=[2] * 96,
        geometry=FrameGeometry(16, 16, 1.0),
    )
    defaults.update(kwargs)
    return SyntheticScenario(**defaults)


def test_zero_profile_emits_header_only_files(tmp_path):
    generate_fixture(scenario(daily_profile=[0] * 96), tmp_path)
    files = list(tmp_path.glob("*.csv"))
    assert len(files) == 672
    assert all(len(f.read_text().splitlines()) == 1 for f in files)


def test_constant_profile_without_jitter(tmp_path):
    counts = generate_fixture(scenario(), tmp_path)
    assert (counts == 2).all()
    geo = FrameGeometry(16, 16, 1.0)
    segments = discover_segments(tmp_path)
    records = []
    for path in segments.values():
        records += parse_segment_csv(path.read_text(), geo)
    sc = scenario()
    series = count_series(per_frame_counts(records), (sc.start, sc.end))
    assert (series.values == 2).all()


def test_plateau_recount_matches_intent(tmp_path):
    plateau = (MONDAY + timedelta(days=2), MONDAY + timedelta(days=4), 5)
    sc = scenario(planted_plateaus=[plateau])
    counts = generate_fixture(sc, tmp_path)
    geo = sc.geometry
    records = []
    for path in discover_segments(tmp_path).values():
        records += parse_segment_csv(path.read_text(), geo)
    series = count_series(per_frame_counts(records), (sc.start, sc.end))
    np.testing.assert_array_equal(series.values, counts)
    lo = (plateau[0] - sc.start) // STEP_15_MIN
    hi = (plateau[1] - sc.start) // STEP_15_MIN
    assert (counts[lo:hi] == 10).all()


def test_spike_adds_detections(tmp_path):
    ts = MONDAY + timedelta(days=3, hours=10, minutes=15)
    counts = generate_fixture(scenario(planted_spikes=[(ts, 7)]), tmp_path)
    idx = (ts - MONDAY) // STEP_15_MIN
    assert counts[idx] == 2 + 7


def test_jitter_is_deterministic_under_seed(tmp_path):
    a = scenario(noise_seed=5).intended_counts()
    b = scenario(noise_seed=5).intended_counts()
    np.testing.assert_array_equal(a, b)
    c = scenario(noise_seed=6).intended_counts()
    assert not np.array_equal(a, c)


def test_jitter_recount_matches_emitted_files(tmp_path):
    sc = scenario(noise_seed=5)
    counts = generate_fixture(sc, tmp_path)
    records = []
    for path in discover_segments(tmp_path).values():
        records += parse_segment_csv(path.read_text(), sc.geometry)
    series = count_series(per_frame_counts(records), (sc.start, sc.end))
    np.testing.assert_array_equal(series.values, counts)


def test_out_of_horizon_plants_rejected():
    with pytest.raises(ValidationError):
        scenario(planted_spikes=[(MONDAY - STEP_15_MIN, 3)])
    with pytest.raises(ValidationError):
        scenario(planted_plateaus=[(MONDAY, MONDAY + timedelta(weeks=2), 2)])


def test_profile_length_checked():
    with pytest.raises(ConfigurationError):
        scenario(daily_profile=[1] * 95)


def test_capacity_overflow_rejected(tmp_path):
    with pytest.raises(ValidationError):
        generate_fixture(scenario(daily_profile=[10_000] * 96), tmp_path)
