from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_rasterize, make_record, utc
from crowdseries import ingest, series
from crowdseries.errors import AlignmentError, DegenerateMaskError
from crowdseries.ingest import DetectionRecord, FrameGeometry, MaskGeometry, Segment, rasterize_mask
from crowdseries.series import (
    STEP_15_MIN,
    HeatmapGrids,
    count_series,
    heatmap_series,
    interval_saturations,
    nominal_frames,
    raw_heatmaps,
    per_frame_counts,
    saturation_value,
)

T0 = utc(2023, 10, 2, 10, 0)


def raw_of(records, geometry, grids=None):
    """The ``raw_heatmaps`` grid of one segment holding ``records``."""
    segments = [Segment.from_records(records)]
    return next(raw_heatmaps(segments, geometry, grids or HeatmapGrids(geometry)))


def saturation_of(records, geometry, grids=None):
    """The ``interval_saturations`` value of one segment holding ``records``."""
    segments = [Segment.from_records(records)]
    return interval_saturations(segments, geometry, grids or HeatmapGrids(geometry))[0]


class TestPerFrameCounts:
    def test_counts_by_timestamp(self):
        records = [make_record(T0)] * 3 + [make_record(T0 + timedelta(seconds=1))]
        counts = per_frame_counts(r.timestamp for r in records)
        assert counts == {T0: 3, T0 + timedelta(seconds=1): 1}

    def test_empty(self):
        assert per_frame_counts([]) == {}

    def test_many_frames(self):
        records = []
        for f in range(900):
            ts = T0 + timedelta(seconds=f)
            records += [make_record(ts, 0), make_record(ts, 1)]
        counts = per_frame_counts(r.timestamp for r in records)
        assert len(counts) == 900
        assert all(c == 2 for c in counts.values())


class TestCountSeries:
    def test_max_within_interval(self):
        records = []
        for f, n in enumerate([1, 4, 2]):
            ts = T0 + timedelta(seconds=f)
            records += [make_record(ts, k) for k in range(n)]
        s = count_series(per_frame_counts(r.timestamp for r in records), (T0, T0 + STEP_15_MIN))
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
        s = count_series(per_frame_counts(r.timestamp for r in records), window)
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
        base = count_series(per_frame_counts(r.timestamp for r in records), window).values
        for _ in range(5):
            rng.shuffle(records)
            np.testing.assert_array_equal(
                count_series(per_frame_counts(r.timestamp for r in records), window).values, base
            )


class TestHeatmap:
    def test_full_frame_every_frame_saturates(self, small_geometry):
        full = MaskGeometry(((0, 0), (15.5, 0), (15.5, 15.5), (0, 15.5)))
        records = []
        frames = 5
        for f in range(frames):
            r = make_record(T0 + timedelta(seconds=f))
            records.append(type(r)(r.timestamp, 0, "person", 0.9, (0, 0, 16, 16), full))
        raw = raw_of(records, small_geometry)
        assert (raw * (255.0 / frames) == 255).all()
        assert saturation_value(raw, frames, small_geometry) == 1.0

    def test_no_records_all_zero(self, small_geometry):
        raw = raw_of([], small_geometry)
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
        normalized = raw_of(records, geo) * (255.0 / 4)
        covered = brute_force_rasterize(half.polygon, 8, 8).astype(bool)
        assert (normalized[covered] == 127.5).all()
        assert (normalized[~covered] == 0).all()

    def test_same_frame_overlap_counts_once(self, small_geometry):
        # two identical masks in one frame must not exceed one frame's worth
        r1 = make_record(T0, 0)
        r2 = make_record(T0, 0)
        raw = raw_of([r1, r2], small_geometry)
        assert raw.max() == 1

    def test_additivity_of_raw_accumulation(self, small_geometry):
        rng = np.random.default_rng(1)
        records = [
            make_record(T0 + timedelta(seconds=int(o)), int(k))
            for o, k in zip(rng.integers(0, 60, 20), rng.integers(0, 10, 20))
        ]
        whole = raw_of(records, small_geometry)
        part_a = raw_of(records[:11], small_geometry)
        part_b = raw_of(records[11:], small_geometry)
        np.testing.assert_array_equal(whole, part_a + part_b)

    def test_monotone_in_added_mask(self, small_geometry):
        records = [make_record(T0, 0)]
        before = saturation_value(raw_of(records, small_geometry), 10, small_geometry)
        records.append(make_record(T0 + timedelta(seconds=1), 1))
        after = saturation_value(raw_of(records, small_geometry), 10, small_geometry)
        assert after >= before


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
        raw = raw_of(records, small_geometry)
        scale = 255.0 / frames
        denominator = small_geometry.width * small_geometry.height * 255.0
        assert (raw * scale).sum() != raw.sum() * scale
        expected = (raw * scale).sum() / denominator
        assert expected != raw.sum() * scale / denominator
        assert saturation_value(raw, frames, small_geometry) == expected
        assert saturation_of(records, small_geometry) == expected
        s = heatmap_series({T0: expected}, (T0, T0 + STEP_15_MIN))
        assert s.values[0] == expected


def saturation_by_interval(interval_records, geometry):
    return {ts: saturation_of(r, geometry) for ts, r in interval_records.items()}


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
        assert saturation_of([], small_geometry) is None
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
            fresh = raw_of(records, small_geometry).copy()
            np.testing.assert_array_equal(raw_of(records, small_geometry, grids), fresh)
            assert saturation_of(records, small_geometry, grids) == saturation_of(
                records, small_geometry
            )


def random_interval(rng, geometry, frames=4, most=6):
    """Records of random quarter-pixel polygons over a few frames; none is degenerate."""
    records = []
    while len(records) < int(rng.integers(0, most + 1)):
        n = int(rng.integers(3, 7))
        points = rng.integers(0, 4 * geometry.width, (n, 2)) / 4
        points[:, 1] = np.minimum(points[:, 1], geometry.height - 0.25)
        mask = MaskGeometry(tuple(map(tuple, points.tolist())))
        try:
            rasterize_mask(mask, geometry)
        except DegenerateMaskError:
            continue
        ts = T0 + timedelta(seconds=int(rng.integers(0, frames)))
        records.append(DetectionRecord(ts, 0, "person", 0.9, (0, 0, 1, 1), mask))
    return records


class TestIntervalSaturations:
    def test_many_intervals_at_once_match_each_alone(self, small_geometry):
        # overlapping masks in one frame, and frames shared by no two segments
        rng = np.random.default_rng(11)
        intervals = [random_interval(rng, small_geometry) for _ in range(60)]
        grids = HeatmapGrids(small_geometry)
        together = interval_saturations(
            [Segment.from_records(r) for r in intervals], small_geometry, grids
        )
        alone = [saturation_of(r, small_geometry) for r in intervals]
        assert [v and v.hex() for v in together] == [v and v.hex() for v in alone]
        assert None in together and len(set(together)) > 10

    @pytest.mark.parametrize("pair_batch, cell_block", [(1, 1), (7, 40), (200, 100)])
    def test_batch_sizes_do_not_change_the_grids(
        self, small_geometry, monkeypatch, pair_batch, cell_block
    ):
        # the kernel's mask batches and the run expansion's cell blocks end
        # inside segments, inside frames and on their boundaries; the last
        # two segments are empty
        rng = np.random.default_rng(13)
        intervals = [random_interval(rng, small_geometry) for _ in range(30)] + [[], []]
        segments = [Segment.from_records(r) for r in intervals]
        grids = HeatmapGrids(small_geometry)
        expected = [raw.copy() for raw in raw_heatmaps(segments, small_geometry, grids)]
        monkeypatch.setattr(ingest, "_PAIR_BATCH", pair_batch)
        monkeypatch.setattr(series, "_CELL_BLOCK", cell_block)
        batched = [raw.copy() for raw in raw_heatmaps(segments, small_geometry, grids)]
        assert len(batched) == len(expected) == 32
        assert not expected[-1].any()
        for got, want in zip(batched, expected):
            np.testing.assert_array_equal(got, want)

    def test_union_per_frame_matches_brute_force(self, small_geometry):
        rng = np.random.default_rng(12)
        for _ in range(20):
            records = random_interval(rng, small_geometry, frames=3, most=8)
            expected = np.zeros((16, 16))
            for ts in {r.timestamp for r in records}:
                union = np.zeros((16, 16), dtype=bool)
                for r in records:
                    if r.timestamp == ts:
                        union |= brute_force_rasterize(r.mask.polygon, 16, 16).astype(bool)
                expected += union
            np.testing.assert_array_equal(raw_of(records, small_geometry), expected)

    def test_degenerate_mask_names_its_segment(self, small_geometry):
        good = [make_record(T0, 0)]
        point = MaskGeometry(((0.1, 0.1), (0.2, 0.1), (0.2, 0.2)))
        bad = [make_record(T0, 1), DetectionRecord(T0, 0, "person", 0.9, (0, 0, 1, 1), point)]
        segments = [Segment.from_records(r) for r in (good, [], bad, bad)]
        with pytest.raises(DegenerateMaskError, match="covers no cell") as err:
            interval_saturations(segments, small_geometry, HeatmapGrids(small_geometry))
        assert err.value.segment == 2

    def test_first_degenerate_mask_by_frame_then_row(self, small_geometry):
        # rows: frame B (good), frame A (bad), frame B (bad); frame B appears
        # first, so its bad mask is the one named
        a = MaskGeometry(((0.1, 0.1), (0.2, 0.1), (0.2, 0.2)))
        b = MaskGeometry(((3.1, 3.1), (3.2, 3.1), (3.2, 3.2)))
        t_b, t_a = T0 + timedelta(seconds=1), T0
        records = [
            make_record(t_b, 0),
            DetectionRecord(t_a, 0, "person", 0.9, (0, 0, 1, 1), a),
            DetectionRecord(t_b, 0, "person", 0.9, (3, 3, 4, 4), b),
        ]
        with pytest.raises(DegenerateMaskError, match=r"\(3\.1, 3\.1\)"):
            saturation_of(records, small_geometry)
