"""The expression compiler equals the tree interpreter it replaced.

``compile_expression`` is the only evaluator in ``src/``.  Its oracle
is ``tests.interpreter.interpret``: over random trees of every node
kind — NULL literals, columns of a small typed schema (and one that is
not there), bound and unbound parameters, ``COUNT(*)``, builtins, one
scalar UDF and one unknown function — and random rows with NULLs, both
return the same value or raise the same exception type with the same
message.
"""

import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.relational.errors import ExecutionError
from repro.relational.expressions import (
    SCALAR_BUILTINS,
    And,
    Between,
    BinaryOp,
    BinaryOperator,
    ColumnRef,
    CountStar,
    FuncCall,
    InList,
    IsNull,
    Literal,
    Negate,
    Not,
    Or,
    compile_expression,
)
from repro.sqlparser.ast import Parameter
from repro.sqlparser.parser import parse_expression
from repro.udf.registry import FunctionRegistry, ScalarFunction
from tests.interpreter import evaluate, interpret, parameter_environment

COLUMNS = ("i", "f", "s", "b")
PARAMS = {"p": 2.5, "q": None}  # $z stays unbound

FUNCTIONS = FunctionRegistry()
FUNCTIONS.register_scalar(ScalarFunction("twice", ("x",), lambda x: x * 2))

# Small ints keep ``'text' * n`` small however deep the tree nests it.
ints = st.integers(min_value=-3, max_value=12)
floats = st.sampled_from(
    [0.0, -0.0, 0.5, -1.5, 2.0, 1000.0, 1e308, math.inf, -math.inf, math.nan]
)
texts = st.sampled_from(["", "a", "Bc"])
values = st.one_of(st.none(), ints, floats, texts, st.booleans())

atoms = st.one_of(
    values.map(Literal),
    st.sampled_from([*COLUMNS, "I", "nosuch"]).map(ColumnRef),
    st.sampled_from(["p", "q", "z"]).map(Parameter),
    st.just(CountStar()),
)


def expressions(depth: int = 3):
    if depth == 0:
        return atoms
    inner = expressions(depth - 1)
    some = st.lists(inner, min_size=1, max_size=3).map(tuple)
    return st.one_of(
        atoms,
        st.builds(
            BinaryOp, st.sampled_from(list(BinaryOperator)), inner, inner
        ),
        st.builds(And, some),
        st.builds(Or, some),
        st.builds(Not, inner),
        st.builds(Negate, inner),
        st.builds(Between, inner, inner, inner),
        st.builds(IsNull, inner, st.booleans()),
        st.builds(InList, inner, some),
        st.builds(
            FuncCall,
            st.sampled_from([*SCALAR_BUILTINS, "TWICE", "nosuch"]),
            st.lists(inner, max_size=3).map(tuple),
        ),
    )


rows = st.tuples(
    st.one_of(st.none(), ints),
    st.one_of(st.none(), floats),
    st.one_of(st.none(), texts),
    st.one_of(st.none(), st.booleans()),
)


def outcome(run):
    try:
        value = run()
    except Exception as exc:  # the type and the text are the outcome
        return "raised", type(exc).__name__, str(exc)
    return "returned", type(value).__name__, repr(value)


def compiled(expr, row):
    def leaf(node):
        if isinstance(node, ColumnRef) and node.name.lower() in COLUMNS:
            return lambda row, at=COLUMNS.index(node.name.lower()): row[at]
        if isinstance(node, Parameter) and node.name in PARAMS:
            return lambda row, value=PARAMS[node.name]: value
        return None

    return compile_expression(expr, leaf, FUNCTIONS)(row)


def interpreted(expr, row):
    env = {**dict(zip(COLUMNS, row)), **parameter_environment(PARAMS)}
    return interpret(expr, env, FUNCTIONS)


NO_ROW = (None, None, None, None)


@given(expr=expressions(), row=rows)
@settings(max_examples=300, derandomize=True, deadline=None)
@example(expr=parse_expression("1 = 0 AND 1 / 0 = 1"), row=NO_ROW)
@example(expr=parse_expression("1 = 1 OR 1 / 0 = 1"), row=NO_ROW)
@example(expr=parse_expression("NULL IN (1 / 0)"), row=NO_ROW)
@example(expr=parse_expression("exp(1000.0)"), row=NO_ROW)
@example(expr=parse_expression("floor(1e400)"), row=NO_ROW)
def test_compiled_equals_interpreted(expr, row):
    assert outcome(lambda: compiled(expr, row)) == outcome(
        lambda: interpreted(expr, row)
    )


class TestShortCircuit:
    """Where the compiler once disagreed with the interpreter: a
    junction stops at the first operand that decides it, and a NULL
    ``IN`` operand skips its choices."""

    def test_false_and_skips_a_division_by_zero(self):
        assert evaluate(parse_expression("1 = 0 AND 1 / 0 = 1")) is False

    def test_true_or_skips_a_division_by_zero(self):
        assert evaluate(parse_expression("1 = 1 OR 1 / 0 = 1")) is True

    def test_null_in_skips_its_choices(self):
        assert evaluate(parse_expression("NULL IN (1 / 0)")) is None


class TestOperandErrors:
    """An operator or builtin that cannot take its operands is an
    ``ExecutionError`` naming the node, never a bare Python error."""

    @pytest.mark.parametrize(
        "sql, message",
        [
            ("exp(1000.0)", "error in exp(1000.0): math range error"),
            ("power(10.0, 400.0)", "error in power(10.0, 400.0): "),
            ("floor(1e400)", "error in floor(inf): cannot convert"),
            ("1 / 0", "division by zero in (1 / 0)"),
            ("'a' - 1", "type error in ('a' - 1): unsupported operand"),
            ("- 'a'", "type error in (- 'a'): bad operand type"),
            ("1 BETWEEN 'a' AND 2", "type error in (1 BETWEEN 'a' AND 2): "),
        ],
    )
    def test_is_an_execution_error(self, sql, message):
        with pytest.raises(ExecutionError, match=re.escape(message)):
            evaluate(parse_expression(sql))


def test_running_builds_no_expression_node(monkeypatch):
    """Every node kind compiles to closures: running the function
    builds no ``Literal`` (the old fallback built one per operand)."""
    expr = parse_expression(
        "NOT (x IS NULL) AND (x BETWEEN 1 AND 3 OR x IN (5, NULL)) "
        "AND sqrt(x) * 2 <> - x"
    )
    function = compile_expression(expr, lambda node: (
        (lambda row: row[0]) if isinstance(node, ColumnRef) else None
    ))
    built = []
    original = Literal.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Literal, "__init__", counting)
    assert [function((x,)) for x in (None, 2, 5, 9)] == [
        False, True, True, None,
    ]
    assert built == []
