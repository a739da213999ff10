"""Scope rewriting between statement and result scope."""

import pytest

from repro.core.rewrite import to_result_scope, to_statement_scope
from repro.relational.expressions import ColumnRef
from repro.sqlparser.parser import parse_expression
from repro.templates.errors import TemplateError
from repro.templates.query_template import QueryTemplate
from repro.templates.skyserver_templates import (
    radial_function_template,
    radial_query_template,
)


@pytest.fixture()
def template():
    return radial_query_template()


class TestToResultScope:
    def test_qualified_ref_becomes_output_name(self, template):
        expr = to_result_scope(template, parse_expression("n.distance"))
        assert expr == ColumnRef("distance")

    def test_composite_expression_rewritten(self, template):
        expr = to_result_scope(
            template, parse_expression("p.r BETWEEN 10 AND 20")
        )
        assert expr.to_sql() == "(r BETWEEN 10 AND 20)"

    def test_unknown_qualified_ref_raises(self, template):
        with pytest.raises(TemplateError, match="not in the select list"):
            to_result_scope(template, parse_expression("p.htmID"))

    def test_unqualified_ref_passes_through(self, template):
        expr = to_result_scope(template, parse_expression("distance"))
        assert expr == ColumnRef("distance")


class TestToStatementScope:
    def test_output_name_becomes_defining_expression(self, template):
        expr = to_statement_scope(template, parse_expression("cx"))
        assert expr == ColumnRef("p.cx")

    def test_roundtrip_through_both_scopes(self, template):
        original = parse_expression("(cx * cx) + (cy * cy)")
        statement_scope = to_statement_scope(template, original)
        assert "p.cx" in statement_scope.to_sql()
        back = to_result_scope(template, statement_scope)
        assert back == original

    def test_unknown_name_left_alone(self, template):
        expr = to_statement_scope(template, parse_expression("mystery"))
        assert expr == ColumnRef("mystery")


class TestScopeMapsAreBuiltOncePerTemplate:
    def test_both_directions_read_one_cached_pair(self, template):
        to_output, to_statement = template.statement.output_scope
        assert to_output["n.distance"] == "distance"
        assert to_statement["cx"] == ColumnRef("p.cx")
        to_result_scope(template, parse_expression("n.distance"))
        to_statement_scope(template, parse_expression("cx"))
        assert template.statement.output_scope[0] is to_output
        assert template.statement.output_scope[1] is to_statement


class TestSelectStarRejected:
    def test_star_template_cannot_rewrite(self):
        template = QueryTemplate.from_sql(
            "t.star",
            "SELECT * FROM fGetNearbyObjEq($ra, $dec, $r) n",
            radial_function_template(),
            key_column="objID",
        )
        with pytest.raises(TemplateError, match="SELECT \\*"):
            to_result_scope(template, parse_expression("cx"))
