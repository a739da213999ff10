"""Query template registration: the paper's four properties,
statically, decided once when a template is registered."""

import pytest

from repro.templates.errors import TemplateError
from repro.templates.manager import TemplateManager
from repro.templates.query_template import QueryTemplate
from repro.templates.skyserver_templates import (
    radial_function_template,
    radial_query_template,
)


def make(sql, **kwargs):
    return QueryTemplate.from_sql(
        template_id=kwargs.pop("template_id", "t"),
        sql=sql,
        function_template=kwargs.pop(
            "function_template", radial_function_template()
        ),
        key_column=kwargs.pop("key_column", "objID"),
    )


def register(template, functions=None):
    """``template`` registered into a manager holding ``functions``."""
    TemplateManager(functions).register_query_template(template)


class TestStructure:
    def test_builtin_radial_template_is_valid(self):
        template = radial_query_template()
        register(template)
        assert template.parameter_names == [
            "ra", "dec", "radius", "r_min", "r_max",
        ]

    def test_from_clause_must_call_function(self):
        with pytest.raises(TemplateError, match="table-valued function"):
            register(make("SELECT objID, cx, cy, cz FROM PhotoPrimary"))

    def test_function_name_must_match_template(self):
        with pytest.raises(TemplateError, match="function template"):
            register(
                make("SELECT objID, cx, cy, cz FROM fOther($ra, $dec, $r) n")
            )

    def test_arity_must_match(self):
        with pytest.raises(TemplateError, match="arguments"):
            register(
                make("SELECT objID, cx, cy, cz FROM fGetNearbyObjEq($ra) n")
            )

    def test_point_attributes_must_be_selected(self):
        # Missing cz: the proxy could not re-evaluate cached tuples.
        with pytest.raises(TemplateError, match="cz"):
            register(
                make(
                    "SELECT n.objID, n.cx, n.cy "
                    "FROM fGetNearbyObjEq($ra, $dec, $r) n"
                )
            )

    def test_key_column_must_be_selected(self):
        with pytest.raises(TemplateError, match="key column"):
            register(
                make(
                    "SELECT n.cx, n.cy, n.cz "
                    "FROM fGetNearbyObjEq($ra, $dec, $r) n"
                )
            )

    def test_select_star_is_accepted(self):
        template = make("SELECT * FROM fGetNearbyObjEq($ra, $dec, $r) n")
        register(template)
        assert template.statement.star

    def test_join_must_be_equi_join(self):
        with pytest.raises(TemplateError, match="equi-join"):
            register(
                make(
                    "SELECT n.objID, n.cx, n.cy, n.cz "
                    "FROM fGetNearbyObjEq($ra, $dec, $r) n "
                    "JOIN PhotoPrimary p ON n.objID < p.objID"
                )
            )

    def test_unparsable_sql_raises(self):
        with pytest.raises(TemplateError, match="cannot parse"):
            make("SELECT FROM WHERE")


class TestDeterminismValidation:
    def test_deterministic_function_passes(self, origin):
        register(radial_query_template(), origin.catalog.functions)

    def test_nondeterministic_function_fails(self, origin):
        from repro.sqlparser.parser import parse_expression
        from repro.templates.function_template import FunctionTemplate, Shape

        ftemplate = FunctionTemplate(
            name="fRandomSample",
            params=("count",),
            shape=Shape.HYPERRECT,
            dims=2,
            point_exprs=(
                parse_expression("ra"), parse_expression("dec"),
            ),
            low_exprs=(
                parse_expression("0"), parse_expression("0"),
            ),
            high_exprs=(
                parse_expression("$count"), parse_expression("$count"),
            ),
        )
        template = QueryTemplate.from_sql(
            "t.random",
            "SELECT objID, ra, dec FROM fRandomSample($count) n",
            ftemplate,
            key_column="objID",
        )
        with pytest.raises(TemplateError, match="non-deterministic"):
            register(template, origin.catalog.functions)

    def test_unregistered_function_fails(self, origin):
        template = make(
            "SELECT objID, cx, cy, cz FROM fGetNearbyObjEq($a, $b, $c) n",
            function_template=radial_function_template(),
        )
        import dataclasses

        renamed = dataclasses.replace(
            template,
            function_template=dataclasses.replace(
                template.function_template, name="fGetNearbyObjEq"
            ),
        )
        # Simulate an origin that never registered the function.
        from repro.udf.registry import FunctionRegistry

        with pytest.raises(TemplateError, match="not registered"):
            register(renamed, FunctionRegistry())


class TestBinding:
    def test_function_params_map_positionally(self):
        template = radial_query_template()
        params = {
            "ra": 164.0, "dec": 8.0, "radius": 10.0,
            "r_min": 0.0, "r_max": 30.0,
        }
        function_params, _, _ = template.binder(params)
        assert function_params == {
            "ra": 164.0, "dec": 8.0, "radius": 10.0,
        }

    def test_region_for_binding(self):
        template = radial_query_template()
        _, region, _ = template.binder(
            {
                "ra": 164.0, "dec": 8.0, "radius": 10.0,
                "r_min": 0.0, "r_max": 30.0,
            }
        )
        assert region.dims == 3

    def test_rendered_sql_leaves_string_literals_alone(self):
        """A ``$`` or a brace inside a string literal is text, not a
        parameter slot or a format field."""
        template = make(
            "SELECT objID, cx, cy, cz "
            "FROM fGetNearbyObjEq($ra, $dec, $radius) n "
            "WHERE 'it''s $ra {0}' <> $note AND objID > $ra"
        )
        params = {"ra": -1, "dec": 2.5, "radius": 3.0, "note": "{}'$dec"}
        statement = template.statement.bind(params)
        assert template.binder(params)[2] == statement.where.to_sql()

    def test_expression_arguments_are_evaluated(self):
        template = make(
            "SELECT objID, cx, cy, cz "
            "FROM fGetNearbyObjEq($ra + 1.0, $dec, $r * 2) n"
        )
        params, _, _ = template.binder({"ra": 10.0, "dec": 0.0, "r": 3.0})
        assert params == {"ra": 11.0, "dec": 0.0, "radius": 6.0}
