"""Aggregate functions: COUNT / SUM / AVG / MIN / MAX over row groups.

The paper's query class never aggregates, but the origin's free-form
SQL facility (the SkyServer page the paper sent remainder queries to)
is a general query surface; downstream users of this library expect at
least the classic five aggregates, GROUP BY, and DISTINCT, so the
engine provides them.

SQL NULL semantics: every aggregate except ``COUNT(*)`` ignores NULL
inputs; an aggregate over an empty (or all-NULL) input is NULL, except
``COUNT`` which is 0.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.relational.errors import ExecutionError
from repro.relational.expressions import (
    Compiled,
    CountStar,
    Expression,
    FuncCall,
)

#: Each aggregate over a group's non-NULL argument values.
_FOLDS: dict[str, Callable[[list[Any]], Any]] = {
    "count": len,
    "sum": sum,
    "avg": lambda values: sum(values) / len(values),
    "min": min,
    "max": max,
}


def is_aggregate_call(expr: Expression) -> bool:
    return isinstance(expr, CountStar) or (
        isinstance(expr, FuncCall) and expr.name.lower() in _FOLDS
    )


def contains_aggregate(expr: Expression) -> bool:
    """Whether any subexpression is an aggregate call."""
    return any(is_aggregate_call(node) for node in expr.walk())


def compile_aggregate(
    call: Expression, compile_row: Callable[[Expression], Compiled]
) -> Callable[[Sequence[Any]], Any]:
    """Aggregate ``call`` as a function of a group's rows;
    ``compile_row`` compiles its argument over one row."""
    if isinstance(call, CountStar):
        return len
    assert isinstance(call, FuncCall), call
    if len(call.args) != 1:
        raise ExecutionError(f"{call.name} takes exactly one argument")
    argument = compile_row(call.args[0])
    name = call.name.lower()
    fold = _FOLDS[name]

    def aggregate(rows: Sequence[Any]) -> Any:
        values = [
            value for row in rows if (value := argument(row)) is not None
        ]
        return fold(values) if values or name == "count" else None

    return aggregate
