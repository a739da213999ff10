"""Function templates: regions, points, XML round-trip, validation."""

import dataclasses
import math

import pytest

from repro.extensions.triangle import triangle_function_template
from repro.geometry.regions import HyperRect, HyperSphere
from repro.relational.expressions import Literal
from repro.sqlparser.parser import parse_expression
from repro.templates.errors import TemplateError
from repro.templates.function_template import (
    FunctionTemplate,
    HalfspaceSpec,
    Shape,
)
from repro.templates.skyserver_templates import (
    radial_function_template,
    rect_function_template,
)
from tests.interpreter import evaluate


class TestRadialTemplate:
    def test_region_is_chord_sphere(self):
        template = radial_function_template()
        region = template.region_for(
            {"ra": 0.0, "dec": 0.0, "radius": 60.0}
        )
        assert isinstance(region, HyperSphere)
        assert region.center == pytest.approx((1.0, 0.0, 0.0))
        # One degree subtends a chord of 2 sin(0.5 deg).
        assert region.radius == pytest.approx(
            2.0 * math.sin(math.radians(0.5))
        )

    def test_point_of_uses_cx_cy_cz(self):
        template = radial_function_template()
        env = {"cx": 0.1, "cy": 0.2, "cz": 0.3}
        point = tuple(evaluate(expr, env) for expr in template.point_exprs)
        assert point == (0.1, 0.2, 0.3)

    def test_point_attribute_names(self):
        assert radial_function_template().point_attribute_names() == {
            "cx", "cy", "cz",
        }

    def test_missing_parameter_raises(self):
        with pytest.raises(TemplateError, match="missing parameter"):
            radial_function_template().region_for({"ra": 0.0, "dec": 0.0})

    def test_negative_radius_raises(self):
        with pytest.raises(TemplateError, match="negative radius"):
            radial_function_template().region_for(
                {"ra": 0.0, "dec": 0.0, "radius": -5.0}
            )

    def test_membership_matches_angular_distance(self):
        from repro.skydata.sphere import (
            angular_distance_arcmin,
            radec_to_unit,
        )

        template = radial_function_template()
        center = {"ra": 164.0, "dec": 8.0, "radius": 25.0}
        region = template.region_for(center)
        for ra, dec in [(164.1, 8.1), (164.3, 8.0), (165.0, 9.0)]:
            point = radec_to_unit(ra, dec)
            inside_region = region.contains_point(point)
            inside_angular = (
                angular_distance_arcmin(164.0, 8.0, ra, dec) <= 25.0
            )
            assert inside_region == inside_angular


class TestRectTemplate:
    def test_region_is_sky_rect(self):
        template = rect_function_template()
        region = template.region_for(
            {"ra_min": 10.0, "ra_max": 20.0, "dec_min": -5.0, "dec_max": 5.0}
        )
        assert region == HyperRect((10.0, -5.0), (20.0, 5.0))

    def test_point_of(self):
        template = rect_function_template()
        env = {"ra": 12.0, "dec": 1.0}
        point = tuple(evaluate(expr, env) for expr in template.point_exprs)
        assert point == (12.0, 1.0)


class TestXmlRoundtrip:
    @pytest.mark.parametrize(
        "template",
        [radial_function_template(), rect_function_template()],
        ids=["radial", "rect"],
    )
    def test_roundtrip_preserves_semantics(self, template):
        restored = FunctionTemplate.from_xml(template.to_xml())
        assert restored.name == template.name
        assert restored.params == template.params
        assert restored.shape is template.shape
        params = dict(
            zip(template.params, (10.0, 5.0, 30.0, 40.0))
        )
        assert restored.region_for(params) == template.region_for(params)
        assert [(c, e.to_sql()) for c, e in restored.outputs] == [
            (c, e.to_sql()) for c, e in template.outputs
        ]

    def test_output_rule_travels_in_the_xml(self):
        text = radial_function_template().to_xml()
        assert '<Output name="distance">(degrees(' in text
        (column, rule), = FunctionTemplate.from_xml(text).outputs
        assert column == "distance"
        assert {"cx", "cy", "cz"} <= rule.column_refs()

    def test_output_without_a_name_is_refused(self):
        text = radial_function_template().to_xml().replace(
            ' name="distance"', ""
        )
        with pytest.raises(TemplateError, match="<Output> needs a name"):
            FunctionTemplate.from_xml(text)

    def test_polytope_roundtrip(self):
        template = FunctionTemplate(
            name="fBand",
            params=("w",),
            shape=Shape.POLYTOPE,
            dims=2,
            point_exprs=(parse_expression("x"), parse_expression("y")),
            low_exprs=(
                parse_expression("-1 * $w"), parse_expression("-1 * $w"),
            ),
            high_exprs=(parse_expression("$w"), parse_expression("$w")),
            halfspace_specs=(
                HalfspaceSpec(
                    normal=(parse_expression("1"), parse_expression("1")),
                    offset=parse_expression("$w"),
                ),
            ),
        )
        restored = FunctionTemplate.from_xml(template.to_xml())
        region = restored.region_for({"w": 2.0})
        assert region.contains_point((0.5, 0.5))
        assert not region.contains_point((1.5, 1.0))

    def test_malformed_xml_raises(self):
        with pytest.raises(TemplateError):
            FunctionTemplate.from_xml("<oops")

    def test_wrong_root_tag_raises(self):
        with pytest.raises(TemplateError, match="FunctionTemplate"):
            FunctionTemplate.from_xml("<Wrong/>")

    def test_unknown_shape_raises(self):
        xml = (
            "<FunctionTemplate><Name>f</Name><Params/>"
            "<Shape>blob</Shape><NumDimensions>2</NumDimensions>"
            "</FunctionTemplate>"
        )
        with pytest.raises(TemplateError, match="unknown shape"):
            FunctionTemplate.from_xml(xml)


class TestValidation:
    def test_sphere_needs_center_and_radius(self):
        with pytest.raises(TemplateError, match="hypersphere"):
            FunctionTemplate(
                name="f",
                params=("a",),
                shape=Shape.HYPERSPHERE,
                dims=2,
                point_exprs=(
                    parse_expression("x"), parse_expression("y"),
                ),
            )

    def test_rect_needs_bounds(self):
        with pytest.raises(TemplateError, match="hyperrect"):
            FunctionTemplate(
                name="f",
                params=("a",),
                shape=Shape.HYPERRECT,
                dims=2,
                point_exprs=(
                    parse_expression("x"), parse_expression("y"),
                ),
                low_exprs=(parse_expression("$a"),),
                high_exprs=(parse_expression("$a"),),
            )

    def test_point_expr_arity_checked(self):
        with pytest.raises(TemplateError, match="point expressions"):
            FunctionTemplate(
                name="f",
                params=(),
                shape=Shape.HYPERRECT,
                dims=2,
                point_exprs=(parse_expression("x"),),
                low_exprs=(
                    parse_expression("0"), parse_expression("0"),
                ),
                high_exprs=(
                    parse_expression("1"), parse_expression("1"),
                ),
            )

    def test_non_numeric_template_expression_raises(self):
        template = FunctionTemplate(
            name="f",
            params=("a",),
            shape=Shape.HYPERRECT,
            dims=1,
            point_exprs=(parse_expression("x"),),
            low_exprs=(parse_expression("$a"),),
            high_exprs=(parse_expression("$a"),),
        )
        with pytest.raises(TemplateError, match="expected a number"):
            template.region_for({"a": "not-a-number"})


GOOD_PARAMS = {
    "sphere": (
        radial_function_template,
        {"ra": 164.0, "dec": 8.0, "radius": 10.0},
    ),
    "rect": (
        rect_function_template,
        {"ra_min": 163.0, "ra_max": 165.0, "dec_min": 7.0, "dec_max": 9.0},
    ),
    "polytope": (
        triangle_function_template,
        {
            "ra1": 163.0, "dec1": 7.0,
            "ra2": 165.0, "dec2": 7.0,
            "ra3": 164.0, "dec3": 9.0,
        },
    ),
}
# ``1e400`` is how an infinity is spelled in a form field or in SQL
# text; an int too large for a float is the same hole by another door.
NON_FINITE = {
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
    "1e400": float("1e400"),
    "10**400": 10**400,
}


class TestNonFiniteRegionsAreRejected:
    """A region is finite or it is not built: NaN passes every
    ``low > high`` check, so a NaN bound used to travel three layers and
    crash in the origin's grid index."""

    @pytest.mark.parametrize(
        "value", NON_FINITE.values(), ids=list(NON_FINITE)
    )
    @pytest.mark.parametrize(
        "shape,position",
        [
            (shape, position)
            for shape, (_, params) in GOOD_PARAMS.items()
            for position in params
        ],
    )
    def test_each_position_of_each_shape(self, shape, position, value):
        build, params = GOOD_PARAMS[shape]
        build().region_for(params)  # the untouched binding is fine
        with pytest.raises(TemplateError, match=r"\$"):
            build().region_for({**params, position: value})

    def test_error_names_the_expression_and_the_value(self):
        with pytest.raises(
            TemplateError,
            match=r"\$ra_max produced inf, expected a finite number",
        ):
            rect_function_template().region_for(
                {**GOOD_PARAMS["rect"][1], "ra_max": float("inf")}
            )


class TestRegionIsEvaluatedInPlace:
    def test_region_for_builds_no_expression_node(self, monkeypatch):
        """Parameters are environment values of the template's own
        tree: nothing is copied, no literal is spliced in."""
        template, params = radial_function_template(), GOOD_PARAMS["sphere"][1]
        built = []
        original = Literal.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Literal, "__init__", counting)
        assert Literal(1) and len(built) == 1  # the counter counts
        for _ in range(100):
            template.region_for(params)
        assert len(built) == 1

    def test_undeclared_parameter_is_a_template_error(self):
        template = FunctionTemplate(
            name="f",
            params=("a",),
            shape=Shape.HYPERRECT,
            dims=1,
            point_exprs=(parse_expression("x"),),
            low_exprs=(parse_expression("$a"),),
            high_exprs=(parse_expression("$a + $undeclared"),),
        )
        with pytest.raises(
            TemplateError, match=r"unbound template parameter \$undeclared"
        ):
            template.region_for({"a": 1.0})


class TestParameterDomains:
    """A call the region expressions cannot describe is refused, not
    bound: past 180 degrees the radial chord folds back, so the sphere
    would be a smaller cap than the one the function searches."""

    CALL = {"ra": 164.0, "dec": 8.0, "radius": 10.0}

    def test_radius_beyond_the_sphere_is_a_template_error(self):
        template = radial_function_template()
        template.region_for({**self.CALL, "radius": 10800.0})  # closed
        with pytest.raises(TemplateError, match=r"\$radius=21600"):
            template.region_for({**self.CALL, "radius": 21600})
        # The wrong region it used to build: 360 degrees is no cap at all.
        unbounded = FunctionTemplate.from_xml(
            template.to_xml().replace(' max="10800.0"', "")
        )
        assert unbounded.domains == ()
        folded = unbounded.region_for({**self.CALL, "radius": 21600})
        assert folded.radius < template.region_for(self.CALL).radius

    def test_bind_refuses_before_any_proxy_sees_the_query(self, templates):
        params = {**self.CALL, "r_min": -9999.0, "r_max": 9999.0}
        templates.bind("skyserver.radial", params)
        for template_id in ("skyserver.radial", "skyserver.nearest"):
            with pytest.raises(TemplateError, match="outside"):
                templates.bind(template_id, {**params, "radius": 21600.0})

    @pytest.mark.parametrize("radius", ["10", None, float("nan"), 1e400])
    def test_what_is_not_a_finite_number_keeps_its_own_refusal(self, radius):
        unbounded = dataclasses.replace(
            radial_function_template(), domains=()
        )
        with pytest.raises(TemplateError) as undeclared:
            unbounded.region_for({**self.CALL, "radius": radius})
        with pytest.raises(TemplateError) as declared:
            radial_function_template().region_for(
                {**self.CALL, "radius": radius}
            )
        assert str(declared.value) == str(undeclared.value)

    def test_xml_round_trip_keeps_the_domain(self):
        template = radial_function_template()
        xml = template.to_xml()
        assert '<Param max="10800.0">radius</Param>' in xml
        assert "<Param>ra</Param>" in xml
        restored = FunctionTemplate.from_xml(xml)
        assert restored.domains == template.domains
        assert restored.to_xml() == xml
        both = FunctionTemplate.from_xml(
            xml.replace('max="10800.0"', 'min="0" max="10800"')
        )
        assert both.domains == (("radius", 0.0, 10800.0),)
        assert '<Param min="0.0" max="10800.0">radius</Param>' in (
            both.to_xml()
        )

    def test_templates_without_a_domain_are_unchanged(self):
        for template in (
            rect_function_template(), triangle_function_template()
        ):
            assert template.domains == ()
            assert "min=" not in template.to_xml()
            assert "max=" not in template.to_xml()

    @pytest.mark.parametrize(
        "attrs", ['min="wide"', 'max=""', 'min="5" max="1"', 'max="nan"']
    )
    def test_a_bad_domain_is_a_template_error(self, attrs):
        xml = radial_function_template().to_xml().replace(
            'max="10800.0"', attrs
        )
        with pytest.raises(TemplateError):
            FunctionTemplate.from_xml(xml)

    def test_a_domain_names_a_declared_parameter(self):
        with pytest.raises(TemplateError, match="bad domain"):
            FunctionTemplate(
                name="f",
                params=("a",),
                shape=Shape.HYPERRECT,
                dims=1,
                point_exprs=(parse_expression("x"),),
                low_exprs=(parse_expression("$a"),),
                high_exprs=(parse_expression("$a"),),
                domains=(("b", 0.0, 1.0),),
            )
