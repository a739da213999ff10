"""The tree interpreter, kept as the reference the expression compiler
is tested against, and the helper tests evaluate expressions with.

``interpret(expr, env)`` walks the tree over a dict environment: a
column reads ``env[name.lower()]``, a parameter ``env["$name"]``
(:func:`parameter_environment`).  It is one recursive function with no
closures, written apart from
:func:`~repro.relational.expressions.compile_expression`, and the two
must agree on every value and on every error's type and text
(``tests/relational/test_compiled_expressions.py``).

``evaluate(expr, env)`` goes the other way: the compiled expression,
each column read from ``env`` by its lower-cased name.  It is what a
test that wants an expression's value calls.
"""

from __future__ import annotations

import operator
from operator import itemgetter
from typing import Any, Mapping

from repro.relational.errors import ExecutionError
from repro.relational.expressions import (
    SCALAR_BUILTINS,
    And,
    Between,
    BinaryOp,
    BinaryOperator,
    ColumnRef,
    CountStar,
    Expression,
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

_OPERATORS = {
    BinaryOperator.ADD: operator.add,
    BinaryOperator.SUB: operator.sub,
    BinaryOperator.MUL: operator.mul,
    BinaryOperator.DIV: operator.truediv,
    BinaryOperator.EQ: lambda a, b: a == b,
    BinaryOperator.NE: lambda a, b: a != b,
    BinaryOperator.LT: lambda a, b: a < b,
    BinaryOperator.LE: lambda a, b: a <= b,
    BinaryOperator.GT: lambda a, b: a > b,
    BinaryOperator.GE: lambda a, b: a >= b,
}


def parameter_environment(values: Mapping[str, Any]) -> dict[str, Any]:
    """The environment in which each ``$name`` evaluates to its value."""
    return {f"${name}": value for name, value in values.items()}


def evaluate(
    expr: Expression,
    env: Mapping[str, Any] | None = None,
    functions: Any = None,
) -> Any:
    """``expr`` compiled and run, each column read from ``env`` by its
    lower-cased name; ``functions`` is the UDF registry."""
    env = {} if env is None else env

    def read(node: Expression):
        if isinstance(node, ColumnRef) and node.name.lower() in env:
            return itemgetter(node.name.lower())
        return None

    return compile_expression(expr, read, functions)(env)


def interpret(
    expr: Expression, env: Mapping[str, Any], functions: Any = None
) -> Any:
    """``expr``'s value in ``env``, by walking the tree."""

    def value(node: Expression) -> Any:
        return interpret(node, env, functions)

    sql = expr.to_sql
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        if expr.name.lower() in env:
            return env[expr.name.lower()]
        raise ExecutionError(f"unknown column {expr.name!r}")
    if isinstance(expr, Parameter):
        if expr.to_sql() in env:
            return env[expr.to_sql()]
        raise ExecutionError(f"unbound template parameter ${expr.name}")
    if isinstance(expr, CountStar):
        raise ExecutionError("COUNT(*) outside an aggregate context")
    if isinstance(expr, (And, Or)):
        decides = isinstance(expr, Or)
        saw_null = False
        for operand in expr.operands:
            result = value(operand)
            if result is decides:
                return decides
            if result is None:
                saw_null = True
        return None if saw_null else not decides
    if isinstance(expr, Not):
        result = value(expr.operand)
        return None if result is None else not result
    if isinstance(expr, IsNull):
        return (value(expr.operand) is None) != expr.negated
    if isinstance(expr, InList):
        subject = value(expr.operand)
        if subject is None:
            return None
        saw_null = False
        for choice in expr.choices:
            candidate = value(choice)
            if candidate is None:
                saw_null = True
            elif candidate == subject:
                return True
        return None if saw_null else False
    args = [value(child) for child in expr.children()]
    if any(arg is None for arg in args):
        return None
    if isinstance(expr, FuncCall):
        key = expr.name.lower()
        if key in SCALAR_BUILTINS:
            try:
                return SCALAR_BUILTINS[key](*args)
            except ZeroDivisionError:
                raise ExecutionError(f"division by zero in {sql()}") from None
            except (ArithmeticError, TypeError, ValueError) as exc:
                raise ExecutionError(f"error in {sql()}: {exc}") from None
        if functions is not None and functions.has_scalar(expr.name):
            return functions.call_scalar(expr.name, args)
        raise ExecutionError(f"unknown scalar function {expr.name!r}")
    try:
        if isinstance(expr, BinaryOp):
            return _OPERATORS[expr.op](*args)
        if isinstance(expr, Negate):
            return -args[0]
        assert isinstance(expr, Between), expr
        subject, low, high = args
        return low <= subject <= high
    except ZeroDivisionError:
        raise ExecutionError(f"division by zero in {sql()}") from None
    except TypeError as exc:
        raise ExecutionError(f"type error in {sql()}: {exc}") from None
    except (ArithmeticError, ValueError) as exc:
        raise ExecutionError(f"error in {sql()}: {exc}") from None
