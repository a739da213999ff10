"""Remainder query construction and correctness."""

import pytest

from repro.core.remainder import build_remainder, region_predicate
from repro.geometry.regions import (
    ConvexPolytope,
    Halfspace,
    HyperRect,
    HyperSphere,
)
from repro.templates.errors import TemplateError
from repro.templates.skyserver_templates import (
    RADIAL_TEMPLATE_ID,
    radial_function_template,
    rect_function_template,
)
from tests.interpreter import evaluate


class TestRegionPredicate:
    def test_sphere_predicate_membership(self):
        template = radial_function_template()
        sphere = HyperSphere((0.5, 0.5, 0.0), 0.3)
        predicate = region_predicate(template, sphere)
        inside = {"cx": 0.5, "cy": 0.5, "cz": 0.1}
        outside = {"cx": 0.5, "cy": 0.5, "cz": 0.5}
        assert evaluate(predicate, inside) is True
        assert evaluate(predicate, outside) is False

    def test_rect_predicate_membership(self):
        template = rect_function_template()
        box = HyperRect((10.0, -5.0), (20.0, 5.0))
        predicate = region_predicate(template, box)
        assert evaluate(predicate, {"ra": 15.0, "dec": 0.0}) is True
        assert evaluate(predicate, {"ra": 25.0, "dec": 0.0}) is False

    def test_polytope_predicate_membership(self):
        template = rect_function_template()
        # x + y <= 1 with x, y >= 0 corners.
        poly = ConvexPolytope(
            (
                Halfspace((1.0, 1.0), 1.0),
                Halfspace((-1.0, 0.0), 0.0),
                Halfspace((0.0, -1.0), 0.0),
            ),
            bbox=HyperRect((0.0, 0.0), (1.0, 1.0)),
        )
        predicate = region_predicate(template, poly)
        assert evaluate(predicate, {"ra": 0.2, "dec": 0.2}) is True
        assert evaluate(predicate, {"ra": 0.9, "dec": 0.9}) is False

    def test_predicate_renders_to_sql(self):
        template = radial_function_template()
        sphere = HyperSphere((0.1, 0.2, 0.3), 0.05)
        sql = region_predicate(template, sphere).to_sql()
        assert "cx" in sql and "<=" in sql


class TestBuildRemainder:
    def test_needs_at_least_one_hole(self, templates, radial_params):
        bound = templates.bind(RADIAL_TEMPLATE_ID, radial_params)
        with pytest.raises(TemplateError):
            build_remainder(bound, [])

    def test_statement_keeps_original_parts(self, templates, radial_params):
        bound = templates.bind(RADIAL_TEMPLATE_ID, radial_params)
        hole = templates.bind(
            RADIAL_TEMPLATE_ID, dict(radial_params, radius=4.0)
        ).region
        remainder = build_remainder(bound, [hole])
        sql = remainder.sql
        assert "fGetNearbyObjEq(164.0, 8.0, 10.0)" in sql
        assert "NOT" in sql
        assert "p.cx" in sql  # rewritten to statement scope
        assert remainder.n_holes == 1

    def test_remainder_region_membership(self, templates, radial_params):
        bound = templates.bind(RADIAL_TEMPLATE_ID, radial_params)
        hole_bound = templates.bind(
            RADIAL_TEMPLATE_ID, dict(radial_params, radius=4.0)
        )
        remainder = build_remainder(bound, [hole_bound.region])
        assert remainder.region.base is bound.region
        assert remainder.region.holes == (hole_bound.region,)

    def test_remainder_result_equals_origin_minus_hole(
        self, templates, origin, radial_params
    ):
        bound = templates.bind(RADIAL_TEMPLATE_ID, radial_params)
        hole_bound = templates.bind(
            RADIAL_TEMPLATE_ID, dict(radial_params, radius=5.0)
        )
        remainder = build_remainder(bound, [hole_bound.region])

        full = origin.execute_bound(bound).result
        hole = origin.execute_bound(hole_bound).result
        rest = origin.execute_remainder(remainder.statement, 1).result

        key = full.schema.position("objID")
        full_ids = {row[key] for row in full.rows}
        hole_ids = {row[key] for row in hole.rows}
        rest_ids = {row[key] for row in rest.rows}
        assert rest_ids == full_ids - hole_ids
        assert rest_ids | hole_ids == full_ids

    def test_multiple_holes(self, templates, origin, radial_params):
        bound = templates.bind(
            RADIAL_TEMPLATE_ID, dict(radial_params, radius=15.0)
        )
        holes = [
            templates.bind(
                RADIAL_TEMPLATE_ID,
                dict(radial_params, radius=5.0, ra=radial_params["ra"] + dx),
            ).region
            for dx in (0.0, 0.1)
        ]
        remainder = build_remainder(bound, holes)
        assert remainder.n_holes == 2
        rest = origin.execute_remainder(remainder.statement, 2).result
        names = [n.lower() for n in rest.column_names]
        at = [names.index(axis) for axis in ("cx", "cy", "cz")]
        for row in rest.rows:
            point = tuple(row[i] for i in at)
            assert bound.region.contains_point(point)
            for hole in holes:
                assert not hole.contains_point(point)
