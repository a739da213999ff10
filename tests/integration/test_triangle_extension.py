"""The polytope path end to end, via the triangle search extension."""

import pytest

from repro.core.proxy import FunctionProxy
from repro.core.stats import QueryStatus
from repro.extensions.triangle import (
    TRIANGLE_TEMPLATE_ID,
    register_triangle_search,
)
from repro.geometry.regions import ConvexPolytope
from repro.server.origin import OriginServer
from repro.udf.registry import UdfError
from tests.conftest import SMALL_SKY

MAG_OPEN = {"r_min": -9999.0, "r_max": 9999.0}


@pytest.fixture(scope="module")
def triangle_origin():
    """A dedicated origin with the triangle extension registered."""
    origin = OriginServer.skyserver(SMALL_SKY)
    # Registration checks the template against the site's functions.
    register_triangle_search(origin.catalog.functions, origin.templates)
    return origin


def ccw_triangle(cx, cy, size):
    """A CCW triangle around (cx, cy) with the given half-size."""
    return {
        "ra1": cx - size, "dec1": cy - size,
        "ra2": cx + size, "dec2": cy - size,
        "ra3": cx, "dec3": cy + size,
        **MAG_OPEN,
    }


def ids(result):
    key = result.schema.position("objID")
    return {row[key] for row in result.rows}


class TestFunction:
    def test_matches_brute_force(self, triangle_origin):
        params = ccw_triangle(164.0, 8.0, 0.8)
        bound = triangle_origin.templates.bind(
            TRIANGLE_TEMPLATE_ID, params
        )
        result = triangle_origin.execute_bound(bound).result
        assert len(result) > 0
        region = bound.region
        assert isinstance(region, ConvexPolytope)
        # Every returned object is inside the template's region and
        # every catalog object inside the region is returned.
        table = triangle_origin.catalog.table("PhotoPrimary")
        schema = table.schema
        expected = {
            row[schema.position("objID")]
            for row in table.rows
            if region.contains_point(
                (row[schema.position("ra")], row[schema.position("dec")])
            )
        }
        assert ids(result) == expected

    def test_clockwise_vertices_rejected(self, triangle_origin):
        params = ccw_triangle(164.0, 8.0, 0.5)
        # Swap two vertices to make the order clockwise.
        params["ra1"], params["ra2"] = params["ra2"], params["ra1"]
        bound = triangle_origin.templates.bind(TRIANGLE_TEMPLATE_ID, params)
        with pytest.raises(UdfError, match="counter-clockwise"):
            triangle_origin.execute_bound(bound)


class TestProxyWithPolytopes:
    def test_zoomed_triangle_answered_from_cache(self, triangle_origin):
        proxy = FunctionProxy(triangle_origin, triangle_origin.templates)
        big = triangle_origin.templates.bind(
            TRIANGLE_TEMPLATE_ID, ccw_triangle(164.0, 8.0, 0.9)
        )
        first = proxy.serve(big)
        assert first.record.status is QueryStatus.DISJOINT

        small = triangle_origin.templates.bind(
            TRIANGLE_TEMPLATE_ID, ccw_triangle(164.0, 8.0, 0.3)
        )
        response = proxy.serve(small)
        assert response.record.status is QueryStatus.CONTAINED
        assert not response.record.contacted_origin
        expected = triangle_origin.execute_bound(small).result
        assert ids(response.result) == ids(expected)

    def test_disjoint_triangles_both_cached(self, triangle_origin):
        proxy = FunctionProxy(triangle_origin, triangle_origin.templates)
        proxy.serve(
            triangle_origin.templates.bind(
                TRIANGLE_TEMPLATE_ID, ccw_triangle(162.0, 7.0, 0.4)
            )
        )
        second = proxy.serve(
            triangle_origin.templates.bind(
                TRIANGLE_TEMPLATE_ID, ccw_triangle(166.0, 10.0, 0.4)
            )
        )
        assert second.record.status is QueryStatus.DISJOINT
        assert len(proxy.cache) == 2

    def test_exact_repeat(self, triangle_origin):
        proxy = FunctionProxy(triangle_origin, triangle_origin.templates)
        params = ccw_triangle(165.0, 9.0, 0.5)
        proxy.serve(
            triangle_origin.templates.bind(TRIANGLE_TEMPLATE_ID, params)
        )
        repeat = proxy.serve(
            triangle_origin.templates.bind(TRIANGLE_TEMPLATE_ID, params)
        )
        assert repeat.record.status is QueryStatus.EXACT
