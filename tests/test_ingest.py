import ast

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
    Segment,
    filter_by_class,
    parse_segment_csv,
    rasterize_mask,
    serialize_records,
)

HEADER = ",".join(CSV_COLUMNS)
GEO = FrameGeometry(1280, 720, 1.0)


class TestParseSegmentCsv:
    def test_empty_file_with_header(self):
        assert parse_segment_csv(HEADER + "\n", GEO).records() == []

    def test_missing_header(self):
        with pytest.raises(SchemaError):
            parse_segment_csv("", GEO)

    def test_wrong_header(self):
        with pytest.raises(SchemaError):
            parse_segment_csv("a,b,c\n", GEO)

    def test_single_row(self):
        row = '2023-10-02T10:45:00,0,person,0.87,100,200,150,300,"[(100,200),(150,200),(150,300),(100,300)]"'
        records = parse_segment_csv(f"{HEADER}\n{row}\n", GEO).records()
        assert len(records) == 1
        r = records[0]
        assert r.timestamp == utc(2023, 10, 2, 10, 45)
        assert r.class_name == "person"
        assert r.confidence == 0.87
        assert r.bbox == (100, 200, 150, 300)
        assert r.bbox[2] - r.bbox[0] == 50 and r.bbox[3] - r.bbox[1] == 100
        assert len(r.mask.polygon) == 4

    def test_bytes_input(self):
        records = parse_segment_csv((HEADER + "\n").encode(), GEO).records()
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


def literal_vertices(text):
    """The vertices ast.literal_eval reads from a mask field, or None if it rejects it."""
    try:
        return tuple((float(x), float(y)) for x, y in ast.literal_eval(text))
    except (ValueError, SyntaxError, TypeError):
        return None


def expected_mask(text, geometry):
    """Hex coordinates of a mask the literal_eval path accepts in ``geometry``, else None."""
    vertices = literal_vertices(text)
    if vertices is None or len(vertices) < 3:
        return None
    if not all(0 <= x < geometry.width and 0 <= y < geometry.height for x, y in vertices):
        return None
    return [v.hex() for vertex in vertices for v in vertex]


def mask_row(mask, second=0):
    return f'2023-10-02T10:45:{second:02d},0,person,0.5,0,0,10,10,"{mask}"'


# Mask fields next to the canonical form; the parser must accept exactly those
# ast.literal_eval accepts (in the frame), with the same floats.
MASK_TEXTS = [
    "[(1,2),(3,4),(5,6)]",
    "[(0,0),(2.5,0),(2.5,1e3),(0.1,7.25)]",
    "[(1e3,1),(2,2),(3,1)]",
    "[(1E+2,1.5e-3),(2,2),(3,1)]",
    "[(1e-400,1),(2,2),(3,1)]",
    "[(1e400,1),(2,2),(3,1)]",
    "[(1234567890123456,1),(2,2),(3,1)]",
    "[(12345678901234567,1),(2,2),(3,1)]",
    "[(0.30000000000000004,1),(2,2),(3,1)]",
    # unbalanced tuples
    "[(1,2),(3,4),(5,6]",
    "[(1,2),(3,4),(5,6)",
    "[(1,2),(3,4)),(5,6)]",
    "[(1,2,(3,4),(5,6)]",
    # a 3-value tuple, and too few vertices
    "[(1,2,3),(3,4),(5,6)]",
    "[(1,2),(3,4)]",
    # nan, inf, and the strings float() would read as them
    "[(nan,1),(2,2),(3,1)]",
    "[(inf,1),(2,2),(3,1)]",
    "[('nan','1'),(2,2),(3,1)]",
    "[('inf','1'),(2,2),(3,1)]",
    # whitespace inside the mask
    "[(1, 2), (3, 4), (5, 6)]",
    "[ (1,2),(3,4),(5,6) ]",
    "[(1,2),(3,4),(5,6)] ",
    # negative vertices fail as out of frame; a negative zero does not
    "[(-1,2),(3,4),(5,6)]",
    "[(1,-0.5),(3,4),(5,6)]",
    "[(-0,2),(3,4),(5,6)]",
    "[(-0.0,2),(3,4),(5,6)]",
    # list pairs and other literal forms
    "[[1,2],[3,4],[5,6]]",
    "((1,2),(3,4),(5,6))",
    "[(1,2),(3,4),(5,6),]",
    "[(+1,2),(.5,4),(5.,6)]",
    "[(00,2),(1_0,4),(5,6)]",
    "[(007,2),(3,4),(5,6)]",
    "[(1,2),(3,4),(5,6j)]",
    "[(True,2),(3,4),(5,6)]",
    "[]",
    "",
]


class TestMaskParsing:
    @pytest.mark.parametrize("mask", MASK_TEXTS)
    def test_matches_literal_eval(self, mask):
        expected = expected_mask(mask, GEO)
        text = f"{HEADER}\n{mask_row(mask)}\n"
        if expected is None:
            with pytest.raises(ValidationError) as err:
                parse_segment_csv(text, GEO)
            assert err.value.row == 1 and err.value.field == "mask"
            return
        segment = parse_segment_csv(text, GEO)
        assert [v.hex() for v in segment.vertices.ravel().tolist()] == expected
        assert segment.vertex_counts.tolist() == [len(expected) // 2]

    def test_skip_bad_rows_drops_the_same_rows(self):
        rows = [mask_row(mask, second) for second, mask in enumerate(MASK_TEXTS)]
        segment = parse_segment_csv(HEADER + "\n" + "\n".join(rows) + "\n", GEO, skip_bad_rows=True)
        expected = {s: expected_mask(mask, GEO) for s, mask in enumerate(MASK_TEXTS)}
        expected = {s: e for s, e in expected.items() if e is not None}
        assert [ts.second for ts in segment.timestamps] == list(expected)
        masks = [[v.hex() for xy in r.mask.polygon for v in xy] for r in segment.records()]
        assert masks == list(expected.values())

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["0", "00", "07", "3", "-0", "-0.0", "+1", ".5", "5.", "2.25", "0.1", "1e3",
                     "1E-2", "1e999", "1_0", "nan", "inf", " 4", "12345678901234567", "9" * 16]
                ),
                st.sampled_from(["0", "1", "2.5", "-1", "7e0", "1e-5", "35"]),
            ),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from([",", ", "]),
    )
    def test_numbers_read_as_literal_eval_reads_them(self, vertices, separator):
        geometry = FrameGeometry(64, 36, 1.0)
        mask = "[" + separator.join(f"({x},{y})" for x, y in vertices) + "]"
        text = f"{HEADER}\n2023-10-02T10:45:00,0,person,0.5,0,0,10,10,\"{mask}\"\n"
        expected = expected_mask(mask, geometry)
        if expected is None:
            with pytest.raises(ValidationError):
                parse_segment_csv(text, geometry)
        else:
            segment = parse_segment_csv(text, geometry)
            assert [v.hex() for v in segment.vertices.ravel().tolist()] == expected


class TestRoundTrip:
    def test_round_trip_identity(self, small_geometry):
        records = [make_record(utc(2023, 10, 2, 10, 45, s), k) for s, k in ((0, 0), (1, 3), (2, 7))]
        text = serialize_records(records)
        assert parse_segment_csv(text, small_geometry).records() == records

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
        assert parse_segment_csv(serialize_records(records), geometry).records() == records


class TestFilterByClass:
    def test_subset(self):
        people = [make_record(utc(2023, 1, 1, 0, 0, s)) for s in range(3)]
        cars = [make_record(utc(2023, 1, 1, 0, 0, s), class_name="car") for s in range(2)]
        mixed = [people[0], cars[0], people[1], cars[1], people[2]]
        assert filter_by_class(Segment.from_records(mixed), {"person"}).records() == people

    def test_identity_when_all_allowed(self):
        records = [make_record(utc(2023, 1, 1)), make_record(utc(2023, 1, 1), class_name="car")]
        segment = Segment.from_records(records)
        assert filter_by_class(segment, {"person", "car"}).records() == records

    def test_empty_allowed_set(self):
        segment = Segment.from_records([make_record(utc(2023, 1, 1))])
        assert filter_by_class(segment, set()).records() == []


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

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(4, 48),
        st.integers(4, 48),
        st.lists(
            st.tuples(
                st.integers(0, 4 * 47),
                st.integers(0, 4 * 47),
                st.sampled_from([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (3, 0), (0, -3)]),
            ),
            min_size=3,
            max_size=8,
        ),
    )
    def test_agrees_with_brute_force_near_horizontal_and_vertical(self, width, height, vertices):
        # Quarter-pixel vertices, some nudged by a few 2**-16 px across x or
        # y: edges that were horizontal or vertical become nearly so, and
        # every product in the kernel and the oracle stays exact.
        poly = tuple(
            (
                min(max(x / 4 + nx * 2.0**-16, 0), width - 0.25),
                min(max(y / 4 + ny * 2.0**-16, 0), height - 0.25),
            )
            for x, y, (nx, ny) in vertices
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
