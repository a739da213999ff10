"""Grid index candidate sets vs brute force."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.skydata.generator import SkyCatalogConfig, build_photo_primary
from repro.skydata.index import SkyGridIndex
from repro.skydata.sphere import angular_distance_arcmin

CONFIG = SkyCatalogConfig(
    n_objects=1_500, ra_min=100.0, ra_max=106.0, dec_min=0.0, dec_max=6.0
)


@pytest.fixture(scope="module")
def table():
    return build_photo_primary(CONFIG)


@pytest.fixture(scope="module")
def index(table):
    return SkyGridIndex(table, cell_deg=0.25)


def test_rejects_bad_cell_size(table):
    with pytest.raises(ValueError):
        SkyGridIndex(table, cell_deg=0.0)


def test_rect_candidates_are_superset_of_answers(table, index):
    ra_pos = table.schema.position("ra")
    dec_pos = table.schema.position("dec")
    box = (101.0, 102.0, 1.0, 2.0)
    candidates = set(index.candidates_in_rect(*box))
    for row_index, row in enumerate(table.rows):
        inside = (
            box[0] <= row[ra_pos] <= box[1]
            and box[2] <= row[dec_pos] <= box[3]
        )
        if inside:
            assert row_index in candidates


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
    index = SkyGridIndex(table)
    ra_lo, ra_width, dec_lo, dec_width = box
    ra_hi, dec_hi = ra_lo + ra_width, dec_lo + dec_width
    ra_pos = table.schema.position("ra")
    dec_pos = table.schema.position("dec")
    candidates = set(
        index.candidates_in_rect(ra_lo, ra_hi, dec_lo, dec_hi)
    )
    expected = {
        i
        for i, row in enumerate(table.rows)
        if ra_lo <= row[ra_pos] <= ra_hi and dec_lo <= row[dec_pos] <= dec_hi
    }
    assert expected <= candidates


def test_circle_candidates_cover_all_members(table, index):
    ra_pos = table.schema.position("ra")
    dec_pos = table.schema.position("dec")
    center_ra, center_dec, radius = 103.0, 3.0, 45.0
    candidates = set(
        index.candidates_in_circle(center_ra, center_dec, radius)
    )
    for row_index, row in enumerate(table.rows):
        distance = angular_distance_arcmin(
            center_ra, center_dec, row[ra_pos], row[dec_pos]
        )
        if distance <= radius:
            assert row_index in candidates


def test_circle_prunes_far_cells(table, index):
    few = list(index.candidates_in_circle(103.0, 3.0, 5.0))
    assert len(few) < len(table)


class CountingCells(dict):
    """The index's cell map; refuses the lookup that would exceed one
    per occupied cell (so an unbounded walk fails at once instead of
    running for minutes)."""

    lookups = 0

    def _count(self):
        self.lookups += 1
        assert self.lookups <= len(self), "visited more cells than exist"

    def get(self, key, default=None):
        self._count()
        return super().get(key, default)

    def __getitem__(self, key):
        self._count()
        return super().__getitem__(key)


class PretendsToBeTiny(dict):
    """A cell map whose size always trips the occupied-cell walk."""

    def __len__(self):
        return 0


@pytest.mark.parametrize(
    "box",
    [
        (-1e9, 1e9, -1e9, 1e9),  # everything: ~6e19 cells
        (-1e5, 103.0, 2.0, 1e4),  # a quarter-plane cutting the catalogue
        (5e4, 6e4, 5e4, 6e4),  # huge and nowhere near the catalogue
    ],
)
def test_a_huge_box_visits_no_more_cells_than_are_occupied(table, box):
    """The walk is bounded by the index, not by the box: a cone of many
    degrees (RA widened by up to 1/cos 89.9) used to visit 10^8..10^9
    empty cells — a minute of CPU for one unauthenticated request."""
    index = SkyGridIndex(table, cell_deg=0.25)
    index._cells = cells = CountingCells(index._cells)
    got = set(index.candidates_in_rect(*box))
    ra_pos = table.schema.position("ra")
    dec_pos = table.schema.position("dec")
    inside = {
        i
        for i, row in enumerate(table.rows)
        if box[0] <= row[ra_pos] <= box[1] and box[2] <= row[dec_pos] <= box[3]
    }
    assert inside <= got
    if box[0] == -1e9:
        assert got == set(range(len(table)))
    if box[0] == 5e4:
        assert got == set()


def test_the_occupied_cell_walk_keeps_the_cell_by_cell_order(table, index):
    """Ties in distance keep their order downstream, so the two walks
    must yield the same candidates in the same order (i-major,
    j-minor): force each on the same boxes."""
    sparse = SkyGridIndex(table, cell_deg=0.25)
    sparse._cells = PretendsToBeTiny(sparse._cells)
    for box in [(101.3, 103.9, 0.7, 4.2), (99.0, 107.0, -1.0, 7.0),
                (103.0, 101.0, 1.0, 2.0)]:
        by_cell = list(index.candidates_in_rect(*box))
        assert list(sparse.candidates_in_rect(*box)) == by_cell
        assert bool(by_cell) == (box[0] < box[1])
