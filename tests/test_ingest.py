import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_rasterize, embed, make_record, utc
from crowdseries.errors import DegenerateMaskError, SchemaError, ValidationError
from crowdseries.ingest import (
    CSV_COLUMNS,
    FrameGeometry,
    MaskGeometry,
    filter_by_class,
    parse_segment_csv,
    rasterize_mask,
    serialize_records,
)

HEADER = ",".join(CSV_COLUMNS)
GEO = FrameGeometry(1280, 720, 1.0)


class TestParseSegmentCsv:
    def test_empty_file_with_header(self):
        assert parse_segment_csv(HEADER + "\n", GEO) == []

    def test_missing_header(self):
        with pytest.raises(SchemaError):
            parse_segment_csv("", GEO)

    def test_wrong_header(self):
        with pytest.raises(SchemaError):
            parse_segment_csv("a,b,c\n", GEO)

    def test_single_row(self):
        row = '2023-10-02T10:45:00,0,person,0.87,100,200,150,300,"[(100,200),(150,200),(150,300),(100,300)]"'
        records = parse_segment_csv(f"{HEADER}\n{row}\n", GEO)
        assert len(records) == 1
        r = records[0]
        assert r.timestamp == utc(2023, 10, 2, 10, 45)
        assert r.class_name == "person"
        assert r.confidence == 0.87
        assert r.bbox == (100, 200, 150, 300)
        assert r.bbox[2] - r.bbox[0] == 50 and r.bbox[3] - r.bbox[1] == 100
        assert len(r.mask.polygon) == 4

    def test_bytes_input(self):
        records = parse_segment_csv((HEADER + "\n").encode(), GEO)
        assert records == []

    def test_confidence_out_of_range(self):
        row = '2023-10-02T10:45:00,0,person,1.3,100,200,150,300,"[(100,200),(150,200),(150,300)]"'
        with pytest.raises(ValidationError) as err:
            parse_segment_csv(f"{HEADER}\n{row}\n", GEO)
        assert err.value.field == "confidence"
        assert err.value.row == 1

    def test_malformed_row_reports_row_number(self):
        good = '2023-10-02T10:45:00,0,person,0.5,0,0,2,2,"[(0,0),(2,0),(2,2)]"'
        bad = "not-a-timestamp,0,person,0.5,0,0,2,2,\"[(0,0),(2,0),(2,2)]\""
        with pytest.raises(ValidationError) as err:
            parse_segment_csv(f"{HEADER}\n{good}\n{bad}\n", GEO)
        assert err.value.row == 2

    def test_skip_bad_rows(self):
        good = '2023-10-02T10:45:00,0,person,0.5,0,0,2,2,"[(0,0),(2,0),(2,2)]"'
        bad = '2023-10-02T10:45:01,0,person,7.5,0,0,2,2,"[(0,0),(2,0),(2,2)]"'
        records = parse_segment_csv(
            f"{HEADER}\n{good}\n{bad}\n", GEO, skip_bad_rows=True
        )
        assert len(records) == 1

    def test_mask_outside_frame(self):
        row = '2023-10-02T10:45:00,0,person,0.5,0,0,2,2,"[(0,0),(2000,0),(2,2)]"'
        with pytest.raises(ValidationError) as err:
            parse_segment_csv(f"{HEADER}\n{row}\n", GEO)
        assert err.value.field == "mask"

    def test_degenerate_bbox(self):
        row = '2023-10-02T10:45:00,0,person,0.5,10,10,10,20,"[(0,0),(2,0),(2,2)]"'
        with pytest.raises(ValidationError) as err:
            parse_segment_csv(f"{HEADER}\n{row}\n", GEO)
        assert err.value.field == "bbox"

    def test_row_count_matches_data_rows(self):
        rows = [
            f'2023-10-02T10:{45 + 0}:0{i},0,person,0.5,0,0,2,2,"[(0,0),(2,0),(2,2)]"'
            for i in range(5)
        ]
        records = parse_segment_csv(HEADER + "\n" + "\n".join(rows) + "\n", GEO)
        assert len(records) == 5


class TestRoundTrip:
    def test_round_trip_identity(self, small_geometry):
        records = [make_record(utc(2023, 10, 2, 10, 45, s), k) for s, k in ((0, 0), (1, 3), (2, 7))]
        text = serialize_records(records)
        assert parse_segment_csv(text, small_geometry) == records

    @given(
        st.lists(
            st.tuples(st.integers(0, 59), st.integers(0, 20), st.floats(0, 1)),
            max_size=10,
        )
    )
    def test_round_trip_property(self, rows):
        geometry = FrameGeometry(64, 64, 1.0)
        records = []
        for second, k, confidence in rows:
            base = make_record(utc(2023, 10, 2, 10, 45, second), k, geometry)
            records.append(
                type(base)(
                    timestamp=base.timestamp,
                    class_id=base.class_id,
                    class_name=base.class_name,
                    confidence=confidence,
                    bbox=base.bbox,
                    mask=base.mask,
                )
            )
        assert parse_segment_csv(serialize_records(records), geometry) == records


class TestFilterByClass:
    def test_subset(self):
        people = [make_record(utc(2023, 1, 1, 0, 0, s)) for s in range(3)]
        cars = [make_record(utc(2023, 1, 1, 0, 0, s), class_name="car") for s in range(2)]
        mixed = [people[0], cars[0], people[1], cars[1], people[2]]
        assert filter_by_class(mixed, {"person"}) == people

    def test_identity_when_all_allowed(self):
        records = [make_record(utc(2023, 1, 1)), make_record(utc(2023, 1, 1), class_name="car")]
        assert filter_by_class(records, {"person", "car"}) == records

    def test_empty_allowed_set(self):
        assert filter_by_class([make_record(utc(2023, 1, 1))], set()) == []


class TestRasterizeMask:
    def test_full_frame_rectangle(self):
        geo = FrameGeometry(8, 6, 1.0)
        mask = MaskGeometry(((0, 0), (7.5, 0), (7.5, 5.5), (0, 5.5)))
        assert embed(rasterize_mask(mask, geo), 8, 6).all()

    def test_triangle_matches_brute_force(self):
        geo = FrameGeometry(8, 8, 1.0)
        poly = ((0, 0), (4, 0), (0, 4))
        grid = embed(rasterize_mask(MaskGeometry(poly), geo), 8, 8)
        expected = brute_force_rasterize(poly, 8, 8)
        np.testing.assert_array_equal(grid, expected)

    def test_collinear_polygon_is_degenerate(self):
        geo = FrameGeometry(8, 8, 1.0)
        with pytest.raises(DegenerateMaskError):
            rasterize_mask(MaskGeometry(((0, 0), (3, 0), (6, 0))), geo)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(4, 64),
        st.integers(4, 64),
        st.lists(
            st.tuples(st.integers(0, 63), st.integers(0, 63)), min_size=3, max_size=8
        ),
    )
    def test_agrees_with_brute_force_on_random_polygons(self, width, height, vertices):
        poly = tuple(
            (min(x, width - 1), min(y, height - 1)) for x, y in vertices
        )
        geo = FrameGeometry(width, height, 1.0)
        expected = brute_force_rasterize(poly, width, height)
        try:
            grid = embed(rasterize_mask(MaskGeometry(poly), geo), width, height)
        except DegenerateMaskError:
            assert not expected.any()
            return
        np.testing.assert_array_equal(grid, expected)

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([0, 2, 4 * GEO.width - 1, 4 * GEO.width // 2]),
        st.sampled_from([0, 2, 4 * GEO.height - 1, 4 * GEO.height // 2]),
        st.lists(
            st.tuples(st.integers(-80, 80), st.integers(-80, 80), st.booleans()),
            min_size=3,
            max_size=8,
        ),
    )
    def test_agrees_with_brute_force_at_camera_scale(self, qx, qy, offsets):
        # Quarter-pixel vertices within 20 px of an anchor at a frame corner,
        # an edge or the centre, clamped to the frame; a flagged vertex is
        # moved onto the nearest cell centre, so edges run through i + 0.5.
        poly = []
        for ox, oy, on_centre in offsets:
            x = min(max(qx + ox, 0), 4 * GEO.width - 1)
            y = min(max(qy + oy, 0), 4 * GEO.height - 1)
            if on_centre:
                x, y = x - x % 4 + 2, y - y % 4 + 2
            poly.append((x / 4, y / 4))
        poly = tuple(poly)
        xs, ys = [x for x, _ in poly], [y for _, y in poly]
        try:
            row0, col0, cells = rasterize_mask(MaskGeometry(poly), GEO)
        except DegenerateMaskError:
            rows = range(max(0, int(min(ys)) - 1), min(GEO.height, int(max(ys)) + 2))
            cols = range(max(0, int(min(xs)) - 1), min(GEO.width, int(max(xs)) + 2))
            assert not brute_force_rasterize(poly, GEO.width, GEO.height, rows, cols).any()
            return
        # the box holds every cell whose centre lies within the vertex bounds
        assert row0 <= max(0, min(ys) - 0.5) and col0 <= max(0, min(xs) - 0.5)
        assert row0 + cells.shape[0] >= min(GEO.height, max(ys) + 0.5)
        assert col0 + cells.shape[1] >= min(GEO.width, max(xs) + 0.5)
        rows = range(max(0, row0 - 1), min(GEO.height, row0 + cells.shape[0] + 1))
        cols = range(max(0, col0 - 1), min(GEO.width, col0 + cells.shape[1] + 1))
        expected = brute_force_rasterize(poly, GEO.width, GEO.height, rows, cols)
        grid = embed((row0, col0, cells), GEO.width, GEO.height)
        np.testing.assert_array_equal(grid, expected)
        outside = expected.copy()
        outside[row0:row0 + cells.shape[0], col0:col0 + cells.shape[1]] = 0
        assert not outside.any()
