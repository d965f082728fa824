from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_rasterize, make_record, utc
from crowdseries.errors import AlignmentError, ValidationError
from crowdseries.ingest import FrameGeometry, MaskGeometry
from crowdseries.series import (
    STEP_15_MIN,
    HeatmapGrids,
    accumulate_heatmap,
    count_series,
    heatmap_series,
    interval_saturation,
    nominal_frames,
    per_frame_counts,
    saturation_value,
)

T0 = utc(2023, 10, 2, 10, 0)


class TestPerFrameCounts:
    def test_counts_by_timestamp(self):
        records = [make_record(T0)] * 3 + [make_record(T0 + timedelta(seconds=1))]
        assert per_frame_counts(records) == {T0: 3, T0 + timedelta(seconds=1): 1}

    def test_empty(self):
        assert per_frame_counts([]) == {}

    def test_many_frames(self):
        records = []
        for f in range(900):
            ts = T0 + timedelta(seconds=f)
            records += [make_record(ts, 0), make_record(ts, 1)]
        counts = per_frame_counts(records)
        assert len(counts) == 900
        assert all(c == 2 for c in counts.values())


class TestCountSeries:
    def test_max_within_interval(self):
        records = []
        for f, n in enumerate([1, 4, 2]):
            ts = T0 + timedelta(seconds=f)
            records += [make_record(ts, k) for k in range(n)]
        s = count_series(per_frame_counts(records), (T0, T0 + STEP_15_MIN))
        assert list(s.values) == [4]

    def test_empty_interval_is_zero_and_gap(self):
        s = count_series({}, (T0, T0 + 2 * STEP_15_MIN))
        assert list(s.values) == [0, 0]
        assert s.gaps == (0, 1)

    def test_unaligned_window(self):
        with pytest.raises(AlignmentError):
            count_series({}, (T0, T0 + timedelta(minutes=20)))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3599), st.integers(0, 5)), max_size=40))
    def test_matches_brute_force_max(self, placements):
        records = []
        for offset, k in placements:
            records.append(make_record(T0 + timedelta(seconds=offset), k))
        window = (T0, T0 + 4 * STEP_15_MIN)
        s = count_series(per_frame_counts(records), window)
        # brute force: per-frame recount, then interval max
        for i in range(4):
            lo = T0 + i * STEP_15_MIN
            hi = lo + STEP_15_MIN
            frames = {}
            for r in records:
                if lo <= r.timestamp < hi:
                    frames[r.timestamp] = frames.get(r.timestamp, 0) + 1
            assert s.values[i] == (max(frames.values()) if frames else 0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        records = [
            make_record(T0 + timedelta(seconds=int(o)), int(k))
            for o, k in zip(rng.integers(0, 1800, 30), rng.integers(0, 8, 30))
        ]
        window = (T0, T0 + 2 * STEP_15_MIN)
        base = count_series(per_frame_counts(records), window).values
        for _ in range(5):
            rng.shuffle(records)
            np.testing.assert_array_equal(
                count_series(per_frame_counts(records), window).values, base
            )


class TestHeatmap:
    def test_full_frame_every_frame_saturates(self, small_geometry):
        full = MaskGeometry(((0, 0), (15.5, 0), (15.5, 15.5), (0, 15.5)))
        records = []
        frames = 5
        for f in range(frames):
            r = make_record(T0 + timedelta(seconds=f))
            records.append(type(r)(r.timestamp, 0, "person", 0.9, (0, 0, 16, 16), full))
        raw = accumulate_heatmap(records, small_geometry, frames)
        assert (raw * (255.0 / frames) == 255).all()
        assert saturation_value(raw, frames, small_geometry) == 1.0

    def test_no_records_all_zero(self, small_geometry):
        raw = accumulate_heatmap([], small_geometry, 900)
        assert not raw.any()
        assert saturation_value(raw, 900, small_geometry) == 0.0

    def test_half_coverage_half_frames(self):
        # mask over the left half of an 8x8 frame in 2 of 4 frames -> 127.5
        geo = FrameGeometry(8, 8, 1.0)
        half = MaskGeometry(((0, 0), (4, 0), (4, 7.5), (0, 7.5)))
        records = []
        for f in range(2):
            r = make_record(T0 + timedelta(seconds=f), geometry=geo)
            records.append(type(r)(r.timestamp, 0, "person", 0.9, (0, 0, 4, 7), half))
        normalized = accumulate_heatmap(records, geo, 4) * (255.0 / 4)
        covered = brute_force_rasterize(half.polygon, 8, 8).astype(bool)
        assert (normalized[covered] == 127.5).all()
        assert (normalized[~covered] == 0).all()

    def test_same_frame_overlap_counts_once(self, small_geometry):
        # two identical masks in one frame must not exceed one frame's worth
        r1 = make_record(T0, 0)
        r2 = make_record(T0, 0)
        raw = accumulate_heatmap([r1, r2], small_geometry, 10)
        assert raw.max() == 1

    def test_additivity_of_raw_accumulation(self, small_geometry):
        rng = np.random.default_rng(1)
        records = [
            make_record(T0 + timedelta(seconds=int(o)), int(k))
            for o, k in zip(rng.integers(0, 60, 20), rng.integers(0, 10, 20))
        ]
        whole = accumulate_heatmap(records, small_geometry, 60)
        part_a = accumulate_heatmap(records[:11], small_geometry, 60)
        part_b = accumulate_heatmap(records[11:], small_geometry, 60)
        np.testing.assert_array_equal(whole, part_a + part_b)

    def test_monotone_in_added_mask(self, small_geometry):
        records = [make_record(T0, 0)]
        before = saturation_value(accumulate_heatmap(records, small_geometry, 10), 10, small_geometry)
        records.append(make_record(T0 + timedelta(seconds=1), 1))
        after = saturation_value(accumulate_heatmap(records, small_geometry, 10), 10, small_geometry)
        assert after >= before

    def test_frames_must_be_positive(self, small_geometry):
        with pytest.raises(ValidationError):
            accumulate_heatmap([], small_geometry, 0)


class TestSaturationValue:
    # at 255 frames the scale 255 / frames is 1, so ``raw`` is the
    # normalized map itself
    def test_all_255(self, small_geometry):
        assert saturation_value(np.full((16, 16), 255.0), 255, small_geometry) == 1.0

    def test_half_cells_at_255(self, small_geometry):
        raw = np.zeros((16, 16))
        raw[:8] = 255.0
        assert saturation_value(raw, 255, small_geometry) == 0.5

    def test_sums_the_scaled_grid_at_900_frames(self, small_geometry):
        # Saturation sums raw * (255 / frames) over the grid. At 900 frames
        # the scale is not dyadic, so scaling the cell-count total instead
        # rounds differently; box b is occupied in b + 1 frames, which
        # makes the two differ, and the stored series must not change.
        frames = nominal_frames(small_geometry.fps)
        assert frames == 900
        records = [
            make_record(T0 + timedelta(seconds=f), b) for b in range(4) for f in range(b + 1)
        ]
        raw = accumulate_heatmap(records, small_geometry, frames)
        scale = 255.0 / frames
        denominator = small_geometry.width * small_geometry.height * 255.0
        assert (raw * scale).sum() != raw.sum() * scale
        expected = (raw * scale).sum() / denominator
        assert expected != raw.sum() * scale / denominator
        assert saturation_value(raw, frames, small_geometry) == expected
        assert interval_saturation(records, small_geometry) == expected
        s = heatmap_series({T0: expected}, (T0, T0 + STEP_15_MIN))
        assert s.values[0] == expected


def saturation_by_interval(interval_records, geometry):
    return {ts: interval_saturation(r, geometry) for ts, r in interval_records.items()}


class TestHeatmapSeries:
    def test_empty_and_full_intervals(self, small_geometry):
        full = MaskGeometry(((0, 0), (15.5, 0), (15.5, 15.5), (0, 15.5)))
        frames = round(STEP_15_MIN.total_seconds() * small_geometry.fps)
        records = []
        ts1 = T0 + STEP_15_MIN
        for f in range(frames):
            r = make_record(ts1 + timedelta(seconds=f))
            records.append(type(r)(r.timestamp, 0, "person", 0.9, (0, 0, 16, 16), full))
        buckets = saturation_by_interval({ts1: records}, small_geometry)
        s = heatmap_series(buckets, (T0, T0 + 2 * STEP_15_MIN))
        assert list(s.values) == [0.0, 1.0]
        assert s.gaps == (0,)

    def test_missing_interval_zero_filled(self):
        s = heatmap_series({}, (T0, T0 + 3 * STEP_15_MIN))
        assert list(s.values) == [0.0, 0.0, 0.0]
        assert s.gaps == (0, 1, 2)

    def test_interval_without_records_is_a_gap(self, small_geometry):
        assert interval_saturation([], small_geometry) is None
        s = heatmap_series({T0: None}, (T0, T0 + STEP_15_MIN))
        assert list(s.values) == [0.0]
        assert s.gaps == (0,)

    def test_known_occupancy_fraction(self):
        # one 2x2 box present in 3 of 6 frames: saturation = 4*3 / (6*w*h)
        geo = FrameGeometry(8, 8, fps=6 / STEP_15_MIN.total_seconds())
        records = [make_record(T0 + timedelta(seconds=f), 0, geo) for f in range(3)]
        s = heatmap_series(saturation_by_interval({T0: records}, geo), (T0, T0 + STEP_15_MIN))
        assert s.values[0] == pytest.approx(4 * 3 / (6 * 8 * 8), abs=0)

    def test_saturation_zero_iff_no_mask(self, small_geometry):
        records = [make_record(T0, 0)]
        s = heatmap_series(
            saturation_by_interval({T0: records}, small_geometry), (T0, T0 + STEP_15_MIN)
        )
        assert s.values[0] > 0

    def test_reused_grids_match_fresh_ones(self, small_geometry):
        # one set of grids carried through several intervals, as the
        # pipeline does, gives each interval the value of fresh grids
        rng = np.random.default_rng(5)
        grids = HeatmapGrids(small_geometry)
        for i in range(6):
            records = [
                make_record(T0 + timedelta(seconds=int(o)), int(k))
                for o, k in zip(rng.integers(0, 30, 12), rng.integers(0, 40, 12))
            ]
            fresh = accumulate_heatmap(records, small_geometry, 900).copy()
            np.testing.assert_array_equal(
                accumulate_heatmap(records, small_geometry, 900, grids), fresh
            )
            assert not grids.seen.any()
            assert interval_saturation(records, small_geometry, grids) == interval_saturation(
                records, small_geometry
            )
