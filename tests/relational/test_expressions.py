"""Expression evaluation, including SQL three-valued logic.

Values come from the compiled expression (``tests.interpreter.evaluate``);
how a column name resolves is the executor's :class:`Scope`.
"""

import dataclasses

import pytest

import repro.sqlparser.ast  # noqa: F401 - defines the Parameter node
from repro.relational.errors import ExecutionError
from repro.relational.executor import Scope
from repro.relational.expressions import (
    And,
    Between,
    BinaryOp,
    BinaryOperator,
    ColumnRef,
    Expression,
    FuncCall,
    InList,
    IsNull,
    Literal,
    Negate,
    Not,
    Or,
    compile_expression,
    conjoin,
)
from repro.relational.schema import Schema
from repro.relational.types import ColumnType
from tests.interpreter import evaluate


def lit(value):
    return Literal(value)


def scope(**bindings):
    """The executor's resolver over ``binding=[column, ...]``."""
    resolver = Scope()
    for binding, names in bindings.items():
        resolver.add(
            binding, Schema.of(*((name, ColumnType.FLOAT) for name in names))
        )
    return resolver


class TestBasics:
    def test_literal(self):
        assert evaluate(lit(42)) == 42
        assert evaluate(lit(None)) is None

    def test_column_ref(self):
        assert evaluate(ColumnRef("ra"), {"ra": 1.5}) == 1.5

    def test_column_ref_case_insensitive(self):
        assert evaluate(ColumnRef("RA"), {"ra": 1.5}) == 1.5

    def test_unqualified_resolves_through_single_qualified(self):
        read = compile_expression(ColumnRef("ra"), scope(p=["ra"]).read)
        assert read((1.5,)) == 1.5

    def test_ambiguous_unqualified_raises(self):
        with pytest.raises(ExecutionError, match="ambiguous"):
            compile_expression(ColumnRef("ra"), scope(p=["ra"], n=["ra"]).read)

    def test_unknown_column_raises(self):
        with pytest.raises(ExecutionError, match="unknown column"):
            compile_expression(ColumnRef("nope"), scope().read)

    def test_arithmetic(self):
        expr = BinaryOp(BinaryOperator.ADD, lit(2), lit(3))
        assert evaluate(expr) == 5

    def test_division_by_zero_raises(self):
        expr = BinaryOp(BinaryOperator.DIV, lit(1), lit(0))
        with pytest.raises(ExecutionError, match="division by zero"):
            evaluate(expr)

    def test_comparison(self):
        expr = BinaryOp(BinaryOperator.LE, lit(2), lit(3))
        assert evaluate(expr) is True

    def test_negate(self):
        assert evaluate(Negate(lit(5))) == -5
        assert evaluate(Negate(lit(None))) is None


class TestNullLogic:
    """SQL three-valued (Kleene) logic with None as NULL."""

    def test_comparison_with_null_is_null(self):
        expr = BinaryOp(BinaryOperator.EQ, lit(None), lit(3))
        assert evaluate(expr) is None

    def test_and_short_circuits_false(self):
        expr = And((lit(False), lit(None)))
        assert evaluate(expr) is False

    def test_and_with_null_and_true_is_null(self):
        expr = And((lit(True), lit(None)))
        assert evaluate(expr) is None

    def test_or_short_circuits_true(self):
        expr = Or((lit(None), lit(True)))
        assert evaluate(expr) is True

    def test_or_with_null_and_false_is_null(self):
        expr = Or((lit(False), lit(None)))
        assert evaluate(expr) is None

    def test_not_null_is_null(self):
        assert evaluate(Not(lit(None))) is None

    def test_between_null_operand(self):
        expr = Between(lit(None), lit(0), lit(10))
        assert evaluate(expr) is None

    def test_is_null(self):
        assert evaluate(IsNull(lit(None))) is True
        assert evaluate(IsNull(lit(3))) is False
        assert evaluate(IsNull(lit(3), negated=True)) is True

    def test_in_list_with_null_choice(self):
        # 2 IN (1, NULL) is NULL (unknown), per SQL.
        expr = InList(lit(2), (lit(1), lit(None)))
        assert evaluate(expr) is None

    def test_in_list_hit_beats_null(self):
        expr = InList(lit(1), (lit(1), lit(None)))
        assert evaluate(expr) is True


class TestBetweenAndIn:
    def test_between_inclusive(self):
        assert evaluate(Between(lit(5), lit(5), lit(10))) is True
        assert evaluate(Between(lit(10), lit(5), lit(10))) is True
        assert evaluate(Between(lit(11), lit(5), lit(10))) is False

    def test_in_list(self):
        expr = InList(lit("b"), (lit("a"), lit("b")))
        assert evaluate(expr) is True


class TestFuncCall:
    def test_builtin_trig(self):
        expr = FuncCall("cos", (lit(0.0),))
        assert evaluate(expr) == pytest.approx(1.0)

    def test_builtin_is_case_insensitive(self):
        assert evaluate(FuncCall("SQRT", (lit(9.0),))) == pytest.approx(3.0)

    def test_null_argument_yields_null(self):
        assert evaluate(FuncCall("cos", (lit(None),))) is None

    def test_unknown_function_raises(self):
        with pytest.raises(ExecutionError, match="unknown scalar function"):
            evaluate(FuncCall("fNothing", ()))

    def test_registry_resolution(self):
        from repro.udf.registry import FunctionRegistry, ScalarFunction

        registry = FunctionRegistry()
        registry.register_scalar(
            ScalarFunction("double", ("x",), lambda x: 2 * x)
        )
        expr = FuncCall("double", (lit(21),))
        assert evaluate(expr, functions=registry) == 42

    def test_domain_error_is_wrapped(self):
        with pytest.raises(ExecutionError):
            evaluate(FuncCall("sqrt", (lit(-1.0),)))


class TestToSql:
    def test_string_escaping(self):
        assert lit("O'Brien").to_sql() == "'O''Brien'"

    def test_null_literal(self):
        assert lit(None).to_sql() == "NULL"

    def test_nested_expression(self):
        expr = And(
            (
                BinaryOp(BinaryOperator.LT, ColumnRef("g"), lit(20.5)),
                Between(ColumnRef("r"), lit(1), lit(2)),
            )
        )
        assert expr.to_sql() == "((g < 20.5) AND (r BETWEEN 1 AND 2))"

    def test_column_refs_collects_all(self):
        expr = And(
            (
                BinaryOp(BinaryOperator.LT, ColumnRef("p.g"), lit(1)),
                Between(ColumnRef("r"), ColumnRef("lo"), lit(2)),
            )
        )
        assert expr.column_refs() == {"p.g", "r", "lo"}


class TestConjoin:
    def test_empty_is_none(self):
        assert conjoin([]) is None

    def test_single_passes_through(self):
        expr = lit(True)
        assert conjoin([expr]) is expr

    def test_skips_none_parts(self):
        expr = lit(True)
        assert conjoin([None, expr, None]) is expr

    def test_multiple_becomes_and(self):
        combined = conjoin([lit(True), lit(False)])
        assert isinstance(combined, And)
        assert evaluate(combined) is False


NODE_MODULES = ("repro.relational.expressions", "repro.sqlparser.ast")
PLAIN_VALUES = {
    "str": "x",
    "bool": False,
    "Any": 1,
    "BinaryOperator": BinaryOperator.ADD,
}


def node_classes():
    found, queue = [], [Expression]
    while queue:
        for cls in queue.pop().__subclasses__():
            queue.append(cls)
            if cls.__module__ in NODE_MODULES:
                found.append(cls)
    return found


class TestChildren:
    """``children()`` is the one definition of a node's shape: it must
    cover every field that can hold a sub-expression."""

    def test_every_node_class_is_covered(self):
        names = {cls.__name__ for cls in node_classes()}
        assert {"BinaryOp", "InList", "FuncCall", "Parameter"} <= names

    @pytest.mark.parametrize(
        "cls", node_classes(), ids=lambda cls: cls.__name__
    )
    def test_every_expression_field_is_a_child(self, cls):
        """A new node type with an ``Expression | None`` or
        ``list[Expression]`` field must fail here (or earlier, at
        import), not silently lose its subtree in every walk."""
        values, expected = {}, []
        for field in dataclasses.fields(cls):
            annotation = str(field.type)
            if "Expression" not in annotation:
                values[field.name] = PLAIN_VALUES[annotation]
            elif annotation.startswith(("tuple", "list")):
                pair = [ColumnRef("first"), ColumnRef("second")]
                values[field.name] = (
                    tuple(pair) if annotation.startswith("tuple") else pair
                )
                expected += pair
            else:
                values[field.name] = ColumnRef(field.name)
                expected.append(values[field.name])
        children = cls(**values).children()
        assert len(children) == len(expected)
        assert all(a is b for a, b in zip(children, expected))

    def test_unsupported_child_annotation_fails_at_class_creation(self):
        with pytest.raises(KeyError, match=r"Expression \| None"):

            @dataclasses.dataclass(frozen=True)
            class Maybe(Expression):
                operand: "Expression | None"

    def test_walk_is_root_first(self):
        expr = Between(ColumnRef("r"), lit(1), Negate(ColumnRef("hi")))
        assert [type(node).__name__ for node in expr.walk()] == [
            "Between", "ColumnRef", "Literal", "Negate", "ColumnRef",
        ]

    def test_map_children_shares_untouched_subtrees(self):
        left = BinaryOp(BinaryOperator.ADD, ColumnRef("a"), lit(1))
        right = InList(ColumnRef("b"), (lit(1), lit(2)))
        expr = And((left, right))
        assert expr.map_children(lambda child: child) is expr
        swapped = expr.map_children(
            lambda child: lit(True) if child is left else child
        )
        assert swapped == And((lit(True), right))
        assert swapped.operands[1] is right
