"""``fGetNearbyObjEq`` against a scan of every row, on the whole sky.

The origin's cone search reads a zone index (declination zones sorted
by RA).  These tests hold it to the answer a scan of every catalogue
row gives with the function's own distance expression,
``chord_to_arcmin(min(math.dist(centre, unit_vector), 2.0)) <= r``, on
catalogues that straddle RA 0°/360° and cover a pole, for centres
anywhere (RA in [-360°, 720°)) and radii up to the half sphere.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.server.origin import OriginServer
from repro.skydata.generator import SkyCatalogConfig
from repro.skydata.sphere import chord_bound, chord_to_arcmin, radec_to_unit

#: Shrunk versions of the two catalogues the seam and pole defects were
#: measured on (200,000 and 20,000 objects).
BAND = SkyCatalogConfig(
    n_objects=4_000, ra_min=0.0, ra_max=360.0, dec_min=-1.0, dec_max=1.0,
    cluster_fraction=0.0,
)
POLAR = SkyCatalogConfig(
    n_objects=3_000, ra_min=0.0, ra_max=360.0, dec_min=89.9, dec_max=90.0,
    cluster_fraction=0.0,
)
CATALOGUES = {"band": BAND, "polar": POLAR}


@pytest.fixture(scope="module", params=sorted(CATALOGUES))
def sky_origin(request):
    return OriginServer.skyserver(CATALOGUES[request.param])


def scan(table, ra, dec, radius):
    """Every row within ``radius`` of (ra, dec), as result tuples."""
    at = table.schema.position
    names = ("objID", "ra", "dec", "cx", "cy", "cz", "type")
    project = [at(name) for name in names]
    vector = [at("cx"), at("cy"), at("cz")]
    centre = radec_to_unit(ra, dec)
    rows = []
    for row in table.rows:
        distance = chord_to_arcmin(
            min(math.dist(centre, [row[i] for i in vector]), 2.0)
        )
        if distance <= radius:
            rows.append(tuple(row[i] for i in project) + (distance,))
    return rows


#: Centres anywhere, near the seam on both turns inside the draw range,
#: and near each catalogue's declinations; radii from 0 to the half sphere,
#: small ones drawn often (where the index prunes).
RAS = st.one_of(
    st.floats(-360.0, 720.0, exclude_max=True),
    st.sampled_from([0.0, 360.0]).flatmap(
        lambda seam: st.floats(seam - 1.0, seam + 1.0)
    ),
)
DECS = st.one_of(
    st.floats(-90.0, 90.0), st.floats(-1.5, 1.5), st.floats(89.4, 90.0)
)
RADII = st.one_of(
    st.floats(0.0, 60.0),
    st.floats(0.0, 10_800.0),
    st.sampled_from([0.0, 1e-9, 10_800.0]),
)


# The five cones the grid index answered wrongly (returned / inside, on
# the full-size catalogues): 118 / 221, 12 / 23, 0 / 27 and 0 / 26 on
# the band, 373 / 3,782 at the pole.
@given(ra=RAS, dec=DECS, radius=RADII)
@example(ra=359.95, dec=0.0, radius=30.0)
@example(ra=0.02, dec=0.0, radius=10.0)
@example(ra=370.0, dec=0.0, radius=10.0)
@example(ra=-5.0, dec=0.0, radius=10.0)
@example(ra=10.0, dec=89.99, radius=1.2)
@settings(max_examples=100, deadline=None)
def test_the_cone_returns_exactly_the_rows_a_full_scan_returns(
    sky_origin, ra, dec, radius
):
    catalog = sky_origin.catalog
    got = catalog.functions.call_table(
        "fGetNearbyObjEq", catalog, [ra, dec, radius]
    )
    table = catalog.table("PhotoPrimary")
    assert sorted(got) == sorted(scan(table, ra, dec, radius))
    distances = [row[-1] for row in got]
    assert distances == sorted(distances)


def point_at(centre_radec, bearing, radius_arcmin):
    """``radec_to_unit(*centre_radec)`` rotated by ``radius_arcmin``
    towards ``bearing`` (radians from north, through east)."""
    ra, dec = (math.radians(v) for v in centre_radec)
    centre = radec_to_unit(*centre_radec)
    north = (
        -math.sin(dec) * math.cos(ra),
        -math.sin(dec) * math.sin(ra),
        math.cos(dec),
    )
    east = (-math.sin(ra), math.cos(ra), 0.0)
    theta = math.radians(radius_arcmin / 60.0)
    tangent = [
        math.cos(bearing) * n + math.sin(bearing) * e
        for n, e in zip(north, east)
    ]
    return centre, [
        math.cos(theta) * c + math.sin(theta) * t
        for c, t in zip(centre, tangent)
    ]


@given(
    ra=st.floats(-360.0, 720.0),
    dec=st.floats(-90.0, 90.0),
    bearing=st.floats(0.0, 2 * math.pi),
    radius=st.one_of(
        st.sampled_from([0.0, 1e-9, 10_800.0]), st.floats(0.0, 10_800.0)
    ),
)
@example(ra=164.0, dec=8.0, bearing=0.0, radius=0.0)  # the centre itself
@example(ra=164.0, dec=8.0, bearing=1.0, radius=1e-9)
@example(ra=344.0, dec=-8.0, bearing=2.0, radius=10_800.0)
@example(ra=0.0, dec=90.0, bearing=0.0, radius=10_800.0)
@settings(max_examples=500, deadline=None)
def test_the_chord_bound_keeps_every_point_the_exact_test_keeps(
    ra, dec, bearing, radius
):
    """A point built at exactly ``radius`` from the centre, and the
    chords a few ulps beyond its own: whenever the exact test
    ``chord_to_arcmin(min(chord, 2.0)) <= radius`` keeps one, the
    prefilter ``chord <= chord_bound(radius)`` keeps it too."""
    centre, point = point_at((ra, dec), bearing, radius)
    chord = math.dist(centre, point)
    bound = chord_bound(radius)
    for _ in range(16):
        if chord_to_arcmin(min(chord, 2.0)) <= radius:
            assert chord <= bound, (chord, bound)
        chord = math.nextafter(chord, 3.0)
