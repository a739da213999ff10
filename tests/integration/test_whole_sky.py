"""The radial search keeps its template's promise across RA 0°/360° and
over the poles, at the origin and through a default proxy.

The catalogues are the ones the defects were measured on: a whole-sky
equatorial band of 200,000 objects and a polar cap of 20,000.  Each
count below is what a scan of every row returns; the grid index the
origin used before the zone index returned the second number in each
comment.
"""

import functools
import math

import pytest

from repro.core.proxy import FunctionProxy
from repro.core.stats import QueryOutcome, QueryStatus
from repro.server.origin import OriginServer
from repro.skydata.generator import SkyCatalogConfig
from repro.skydata.sphere import chord_to_arcmin, radec_to_unit
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID

BAND = SkyCatalogConfig(
    n_objects=200_000, ra_min=0.0, ra_max=360.0, dec_min=-1.0, dec_max=1.0,
    cluster_fraction=0.0,
)
POLAR = SkyCatalogConfig(
    n_objects=20_000, ra_min=0.0, ra_max=360.0, dec_min=89.9, dec_max=90.0,
    cluster_fraction=0.0,
)
MAGS = {"r_min": -9999.0, "r_max": 9999.0}


@pytest.fixture(scope="module")
def origin_over():
    """Each catalogue's origin, built once and released with the module
    (the band's 200,000 rows are a large share of the suite's memory)."""
    return functools.lru_cache(maxsize=None)(OriginServer.skyserver)


def scan_ids(origin, ra, dec, radius):
    """objIDs of every row within ``radius``, by the function's own
    distance expression."""
    table = origin.catalog.table("PhotoPrimary")
    at = table.schema.position
    vector = (at("cx"), at("cy"), at("cz"))
    centre = radec_to_unit(ra, dec)
    return {
        row[0]
        for row in table.rows
        if chord_to_arcmin(
            min(math.dist(centre, [row[i] for i in vector]), 2.0)
        )
        <= radius
    }


@pytest.mark.parametrize(
    "config,cone,inside",
    [
        (BAND, (359.95, 0.0, 30.0), 221),  # grid: 118
        (BAND, (0.02, 0.0, 10.0), 23),  # grid: 12
        (BAND, (370.0, 0.0, 10.0), 27),  # grid: 0
        (BAND, (-5.0, 0.0, 10.0), 26),  # grid: 0
        (POLAR, (10.0, 89.99, 1.2), 3_782),  # grid: 373
    ],
    ids=["seam-west", "seam-east", "past-360", "below-0", "pole"],
)
def test_the_origin_returns_every_row_inside_the_cone(
    origin_over, config, cone, inside
):
    origin = origin_over(config)
    rows = origin.catalog.functions.call_table(
        "fGetNearbyObjEq", origin.catalog, list(cone)
    )
    assert {row[0] for row in rows} == scan_ids(origin, *cone)
    assert len(rows) == inside


def test_a_cone_cached_across_the_seam_answers_a_contained_one_fully(
    origin_over,
):
    """The ROADMAP repro: 30′ at 359.95° is cached, then 10′ at 0.02°
    is answered from it.  The grid cached 118 of the 221 rows and the
    proxy served 11 of the 23."""
    origin = origin_over(BAND)
    proxy = FunctionProxy(origin, origin.templates)
    bind = origin.templates.bind
    wide = proxy.serve(
        bind(RADIAL_TEMPLATE_ID, {"ra": 359.95, "dec": 0.0, "radius": 30.0,
                                  **MAGS})
    )
    assert wide.record.status is QueryStatus.DISJOINT
    assert len(wide.result) == 221
    inner = proxy.serve(
        bind(RADIAL_TEMPLATE_ID, {"ra": 0.02, "dec": 0.0, "radius": 10.0,
                                  **MAGS})
    )
    assert inner.record.status is QueryStatus.CONTAINED
    assert inner.record.outcome is QueryOutcome.SERVED
    served = {row[0] for row in inner.result.rows}
    assert served == scan_ids(origin, 0.02, 0.0, 10.0)
    assert len(served) == 23
