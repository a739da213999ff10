"""Parser behaviour on the function-embedded dialect."""

import pytest

from repro.relational.errors import ExecutionError
from repro.relational.expressions import (
    And,
    Between,
    BinaryOp,
    BinaryOperator,
    ColumnRef,
    Literal,
    Not,
)
from repro.sqlparser.ast import FunctionSource, Parameter, TableSource
from repro.sqlparser.errors import ParseError
from repro.sqlparser.parser import parse_expression, parse_select
from tests.interpreter import evaluate

RADIAL = (
    "SELECT TOP 100 p.objID, p.ra, p.dec, n.distance "
    "FROM fGetNearbyObjEq(182.5, 10.3, 15.0) n "
    "JOIN PhotoPrimary p ON n.objID = p.objID "
    "WHERE p.g < 20.5 AND p.type = 3 "
    "ORDER BY n.distance DESC, p.objID"
)


class TestSelectStructure:
    def test_full_statement(self):
        stmt = parse_select(RADIAL)
        assert stmt.top == 100
        assert len(stmt.select_items) == 4
        assert isinstance(stmt.source, FunctionSource)
        assert stmt.source.name == "fGetNearbyObjEq"
        assert stmt.source.alias == "n"
        assert stmt.source.argument_values() == [182.5, 10.3, 15.0]
        assert len(stmt.joins) == 1
        assert stmt.joins[0].table == TableSource("PhotoPrimary", "p")
        assert isinstance(stmt.where, And)
        assert stmt.order_by[0].descending
        assert not stmt.order_by[1].descending

    def test_table_source_with_as_alias(self):
        stmt = parse_select("SELECT a FROM t AS x")
        assert stmt.source == TableSource("t", "x")

    def test_star(self):
        stmt = parse_select("SELECT * FROM t")
        assert stmt.star
        assert stmt.select_items == ()

    def test_inner_join_keyword(self):
        stmt = parse_select("SELECT a FROM t INNER JOIN u ON t.a = u.a")
        assert len(stmt.joins) == 1

    def test_function_source_without_args(self):
        stmt = parse_select("SELECT a FROM fEverything()")
        assert isinstance(stmt.source, FunctionSource)
        assert stmt.source.args == ()

    def test_select_item_aliases(self):
        stmt = parse_select("SELECT a AS x, b y, c FROM t")
        assert stmt.output_names == ("x", "y", "c")

    def test_qualified_ref_output_name_is_bare(self):
        stmt = parse_select("SELECT p.objID FROM t p")
        assert stmt.output_names == ("objID",)


class TestExpressions:
    def test_precedence_and_over_or(self):
        expr = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert expr.to_sql() == "((a = 1) OR ((b = 2) AND (c = 3)))"

    def test_precedence_mul_over_add(self):
        expr = parse_expression("1 + 2 * 3")
        assert evaluate(expr) == 7

    def test_parentheses_override(self):
        expr = parse_expression("(1 + 2) * 3")
        assert evaluate(expr) == 9

    def test_not_in(self):
        expr = parse_expression("a NOT IN (1, 2)")
        assert isinstance(expr, Not)
        assert evaluate(expr, {"a": 3}) is True

    def test_not_between(self):
        expr = parse_expression("a NOT BETWEEN 1 AND 2")
        assert isinstance(expr, Not)
        assert isinstance(expr.operand, Between)

    def test_is_not_null(self):
        expr = parse_expression("a IS NOT NULL")
        assert evaluate(expr, {"a": 1}) is True
        assert evaluate(expr, {"a": None}) is False

    def test_unary_minus(self):
        assert evaluate(parse_expression("-3 + 1")) == -2

    def test_unary_plus_is_noop(self):
        assert evaluate(parse_expression("+3")) == 3

    def test_function_call(self):
        expr = parse_expression("sqrt(abs(-16))")
        assert evaluate(expr) == pytest.approx(4.0)

    def test_comparison_chain_is_rejected(self):
        # SQL has no chained comparisons; `1 < 2 < 3` parses as
        # predicate then junk.
        with pytest.raises(ParseError):
            parse_expression("1 < 2 < 3")


class TestParameters:
    def test_parameter_in_function_args(self):
        stmt = parse_select("SELECT a FROM f($x, $y) WHERE a < $lim")
        assert stmt.parameter_names() == ["x", "y", "lim"]

    def test_bind_replaces_everywhere(self):
        stmt = parse_select("SELECT a FROM f($x) WHERE a BETWEEN $x AND $y")
        bound = stmt.bind({"x": 1, "y": 2})
        assert bound.parameter_names() == []
        assert "(a BETWEEN 1 AND 2)" in bound.to_sql()

    def test_bind_missing_parameter_raises(self):
        stmt = parse_select("SELECT a FROM f($x)")
        with pytest.raises(ExecutionError, match="missing template"):
            stmt.bind({})

    def test_bind_ignores_extras(self):
        stmt = parse_select("SELECT a FROM f($x)")
        bound = stmt.bind({"x": 1, "unused": 9})
        assert isinstance(bound.source.args[0], Literal)

    def test_unbound_parameter_cannot_evaluate(self):
        with pytest.raises(ExecutionError, match="unbound"):
            evaluate(Parameter("x"))


class TestParseErrors:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT",
            "SELECT FROM t",
            "SELECT a FROM",
            "SELECT a FROM t WHERE",
            "SELECT a FROM t ORDER a",
            "SELECT TOP x a FROM t",
            "SELECT TOP -1 a FROM t",
            "SELECT a FROM f(1",
            "SELECT a FROM t JOIN u",
            "SELECT a FROM t trailing junk (",
            "SELECT a, FROM t",
            "UPDATE t",
        ],
    )
    def test_malformed_statements_raise(self, sql):
        with pytest.raises(ParseError):
            parse_select(sql)

    def test_error_carries_position(self):
        with pytest.raises(ParseError, match="position"):
            parse_select("SELECT a FROM t WHERE !")
