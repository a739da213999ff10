"""Aggregate functions: COUNT / SUM / AVG / MIN / MAX over row groups.

The paper's query class never aggregates, but the origin's free-form
SQL facility (the SkyServer page the proxy sends remainder queries to)
is a general query surface; downstream users of this library expect at
least the classic five aggregates, GROUP BY, and DISTINCT, so the
engine provides them.

SQL NULL semantics: every aggregate except ``COUNT(*)`` ignores NULL
inputs; an aggregate over an empty (or all-NULL) input is NULL, except
``COUNT`` which is 0.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.relational.errors import ExecutionError
from repro.relational.expressions import (
    CountStar,
    Expression,
    FuncCall,
    Literal,
)

AGGREGATE_NAMES = frozenset({"count", "sum", "avg", "min", "max"})


def is_aggregate_call(expr: Expression) -> bool:
    return isinstance(expr, CountStar) or (
        isinstance(expr, FuncCall)
        and expr.name.lower() in AGGREGATE_NAMES
    )


def contains_aggregate(expr: Expression) -> bool:
    """Whether any subexpression is an aggregate call."""
    return any(is_aggregate_call(node) for node in expr.walk())


def _aggregate_value(expr, envs: Sequence[dict]) -> Any:
    """Evaluate one aggregate call over a group of row environments."""
    if isinstance(expr, CountStar):
        return len(envs)
    name = expr.name.lower()
    if len(expr.args) != 1:
        raise ExecutionError(
            f"{expr.name} takes exactly one argument"
        )
    values = [expr.args[0].evaluate(env) for env in envs]
    values = [value for value in values if value is not None]
    if name == "count":
        return len(values)
    if not values:
        return None
    if name == "sum":
        return sum(values)
    if name == "avg":
        return sum(values) / len(values)
    if name == "min":
        return min(values)
    if name == "max":
        return max(values)
    raise ExecutionError(f"unknown aggregate {expr.name!r}")


def evaluate_with_aggregates(
    expr: Expression, envs: Sequence[dict]
) -> Any:
    """Evaluate ``expr`` over a row group.

    Aggregate subexpressions are computed over the whole group and
    substituted as literals; the remaining expression is then evaluated
    against the group's first row (which carries the group-by values —
    the executor validates that non-aggregated references are grouping
    expressions).
    """
    folded = _fold_aggregates(expr, envs)
    env = envs[0] if envs else {}
    return folded.evaluate(env)


def _fold_aggregates(expr: Expression, envs: Sequence[dict]) -> Expression:
    if is_aggregate_call(expr):
        return Literal(_aggregate_value(expr, envs))
    return expr.map_children(lambda child: _fold_aggregates(child, envs))
