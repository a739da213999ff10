"""Zone index candidate sets vs brute force."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.table import Table
from repro.skydata import index as zone_index
from repro.skydata.generator import (
    PHOTO_PRIMARY_SCHEMA,
    SkyCatalogConfig,
    build_photo_primary,
)
from repro.skydata.index import ZONE_DEG, ZoneIndex
from repro.skydata.sphere import angular_distance_arcmin, radec_to_unit

CONFIG = SkyCatalogConfig(
    n_objects=1_500, ra_min=100.0, ra_max=106.0, dec_min=0.0, dec_max=6.0
)


@pytest.fixture(scope="module")
def table():
    return build_photo_primary(CONFIG)


@pytest.fixture(scope="module")
def index(table):
    return ZoneIndex(table)


def ids(rows):
    return {row[0] for row in rows}


def inside_box(table, box):
    ra_pos = table.schema.position("ra")
    dec_pos = table.schema.position("dec")
    return {
        row[0]
        for row in table.rows
        if box[0] <= row[ra_pos] <= box[1] and box[2] <= row[dec_pos] <= box[3]
    }


def test_rows_are_sorted_by_zone_then_ra_and_share_the_rows_floats(
    table, index
):
    ra_pos = table.schema.position("ra")
    dec_pos = table.schema.position("dec")
    keys = [
        (math.floor(row[dec_pos] / ZONE_DEG), row[ra_pos])
        for row in index.rows
    ]
    assert keys == sorted(keys)
    assert sorted(index.rows) == sorted(table.rows)
    # The RA list is the rows' own float objects, not copies.
    assert all(ra is row[ra_pos] for ra, row in zip(index._ras, index.rows))


def test_rect_candidates_are_superset_of_answers(table, index):
    box = (101.0, 102.0, 1.0, 2.0)
    assert inside_box(table, box) <= ids(index.candidates_in_rect(*box))


rect_boxes = st.tuples(
    st.floats(min_value=100.0, max_value=105.0),
    st.floats(min_value=0.1, max_value=1.0),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.1, max_value=1.0),
)


@given(box=rect_boxes)
@settings(max_examples=50, deadline=None)
def test_rect_candidates_superset_property(box):
    table = build_photo_primary(CONFIG)
    index = ZoneIndex(table)
    ra_lo, ra_width, dec_lo, dec_width = box
    box = (ra_lo, ra_lo + ra_width, dec_lo, dec_lo + dec_width)
    assert inside_box(table, box) <= ids(index.candidates_in_rect(*box))


def test_circle_candidates_cover_all_members(table, index):
    ra_pos = table.schema.position("ra")
    dec_pos = table.schema.position("dec")
    center_ra, center_dec, radius = 103.0, 3.0, 45.0
    candidates = ids(
        index.candidates_in_cone(radec_to_unit(center_ra, center_dec), radius)
    )
    for row in table.rows:
        distance = angular_distance_arcmin(
            center_ra, center_dec, row[ra_pos], row[dec_pos]
        )
        if distance <= radius:
            assert row[0] in candidates


def test_circle_prunes_far_cells(table, index):
    few = index.candidates_in_cone(radec_to_unit(103.0, 3.0), 5.0)
    assert len(few) < len(table) / 100


def test_rows_off_the_zero_to_360_circle_are_found():
    """A stored RA of 360.0 or below 0 is the same direction as its
    value mod 360: a cone there finds it, a flat box by its own RA."""
    table = Table("PhotoPrimary", PHOTO_PRIMARY_SCHEMA)
    for object_id, (ra, dec) in enumerate(
        [(360.0, 0.0), (-0.5, 1.0), (0.25, -1.0), (719.0, 2.0)], start=1
    ):
        table.insert(
            (object_id, ra, dec, *radec_to_unit(ra, dec))
            + (20.0,) * 5 + (3, 0, 100, 1, 1)
        )
    index = ZoneIndex(table)
    assert index._ras == [0.25, 0.0, 359.5, 359.0]
    assert ids(index.candidates_in_cone(radec_to_unit(0.0, 0.0), 1.0)) == {1}
    assert ids(index.candidates_in_cone(radec_to_unit(0.0, 0.0), 200.0)) == {
        1, 2, 3, 4
    }
    assert ids(index.candidates_in_rect(-1.0, 0.0, 0.5, 1.5)) == {2}
    assert ids(index.candidates_in_rect(355.0, 365.0, -5.0, 5.0)) == {
        1, 2, 3, 4
    }


def test_an_empty_table_has_no_candidates():
    index = ZoneIndex(Table("PhotoPrimary", PHOTO_PRIMARY_SCHEMA))
    assert index.candidates_in_cone(radec_to_unit(10.0, 89.0), 10800.0) == []
    assert index.candidates_in_rect(-1e9, 1e9, -1e9, 1e9) == []


class CountingSearch:
    """A stand-in for the index's binary search that counts its calls."""

    def __init__(self, search):
        self.search = search
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.search(*args)


@pytest.mark.parametrize(
    "box",
    [
        (-1e9, 1e9, -1e9, 1e9),  # everything
        (-1e5, 103.0, 2.0, 1e4),  # a quarter-plane cutting the catalogue
        (5e4, 6e4, 5e4, 6e4),  # huge and nowhere near the catalogue
    ],
)
def test_a_huge_box_visits_no_more_cells_than_are_occupied(
    table, index, box, monkeypatch
):
    """The walk is bounded by the index, not by the box: two binary
    searches per zone the index holds and RA window (at most two), so a
    cone of many degrees or a box of 1e18 square degrees costs what the
    catalogue's ~120 zones cost."""
    counters = {}
    for name in ("bisect_left", "bisect_right"):
        counters[name] = CountingSearch(getattr(zone_index, name))
        monkeypatch.setattr(zone_index, name, counters[name])
    got = ids(index.candidates_in_rect(*box))
    cone = index.candidates_in_cone(radec_to_unit(103.0, 3.0), 10800.0)
    zones = len(index._starts) - 1
    for counter in counters.values():
        assert counter.calls <= 2 * 2 * zones
    assert inside_box(table, box) <= got
    assert ids(cone) == ids(table.rows)
    if box[0] == -1e9:
        assert got == ids(table.rows)
    if box[0] == 5e4:
        assert got == set()
