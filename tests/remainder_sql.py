"""The remainder query as SQL: the oracle the origin's hole filter is
tested against.

A remainder used to reach the origin as the bound statement with one
``AND NOT <hole predicate>`` conjunct per excluded cached region, the
paper's form (it shipped such NOT-predicates to the SkyServer's free
SQL page).  The origin now runs the template's plan with the holes as a
row filter (``repro.server.origin.hole_filter``); this module keeps the
SQL it replaced, so tests can run that SQL through the free-SQL path
and compare:

* :func:`region_predicate` — a result-scope predicate equivalent to
  region membership over the function template's point expressions:
  ``(x1-c1)*(x1-c1) + ... <= r**2`` for a hypersphere, a conjunction
  of ``BETWEEN`` terms for a hyperrectangle, of halfspace inequalities
  for a polytope;
* :func:`to_statement_scope` — a result-scope expression rewritten
  into the template SQL's FROM/JOIN namespace;
* :func:`remainder_statement` — the rewritten remainder statement,
  its WHERE the bound one and the exclusions, conjoined
  (:func:`conjoin`).
"""

from __future__ import annotations

from typing import Sequence

from repro.geometry.regions import (
    ConvexPolytope,
    HyperRect,
    HyperSphere,
    Region,
)
from repro.relational.expressions import (
    And,
    Between,
    BinaryOp,
    BinaryOperator,
    ColumnRef,
    Expression,
    Literal,
    Not,
)
from repro.sqlparser.ast import SelectStatement
from repro.templates.errors import TemplateError
from repro.templates.function_template import FunctionTemplate
from repro.templates.manager import BoundQuery
from repro.templates.query_template import QueryTemplate


def conjoin(parts: Sequence[Expression]) -> Expression | None:
    """AND together ``parts``; None for empty, the sole part for one."""
    parts = [part for part in parts if part is not None]
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return And(tuple(parts))


def region_predicate(
    ftemplate: FunctionTemplate, region: Region
) -> Expression:
    """A result-scope predicate equivalent to region membership.

    The free variables are the function template's point expressions
    (result attributes such as ``cx, cy, cz``).
    """
    points = ftemplate.point_exprs
    if isinstance(region, HyperSphere):
        terms = []
        for expr, center in zip(points, region.center):
            diff = BinaryOp(BinaryOperator.SUB, expr, Literal(center))
            terms.append(BinaryOp(BinaryOperator.MUL, diff, diff))
        total = terms[0]
        for term in terms[1:]:
            total = BinaryOp(BinaryOperator.ADD, total, term)
        return BinaryOp(
            BinaryOperator.LE, total, Literal(region.radius**2)
        )
    if isinstance(region, HyperRect):
        return And(
            tuple(
                Between(expr, Literal(lo), Literal(hi))
                for expr, lo, hi in zip(points, region.lows, region.highs)
            )
        )
    if isinstance(region, ConvexPolytope):
        conjuncts = []
        for half in region.halfspaces:
            total = None
            for coefficient, expr in zip(half.normal, points):
                term = BinaryOp(
                    BinaryOperator.MUL, Literal(coefficient), expr
                )
                total = (
                    term
                    if total is None
                    else BinaryOp(BinaryOperator.ADD, total, term)
                )
            conjuncts.append(
                BinaryOp(BinaryOperator.LE, total, Literal(half.offset))
            )
        return And(tuple(conjuncts))
    raise TemplateError(
        f"no SQL rendering for region type {type(region).__name__}"
    )


def _rewrite(expr: Expression, transform) -> Expression:
    return transform(
        expr.map_children(lambda child: _rewrite(child, transform))
    )


def to_statement_scope(
    template: QueryTemplate, expr: Expression
) -> Expression:
    """Rewrite a result-scope expression to statement scope: each
    reference to an output column becomes the select item expression
    that defines it."""
    statement = template.statement
    if statement.star:
        raise TemplateError(
            f"template {template.template_id!r}: scope rewriting needs an "
            "explicit select list, not SELECT *"
        )
    _, to_statement = statement.output_scope

    def transform(node: Expression) -> Expression:
        if isinstance(node, ColumnRef):
            replacement = to_statement.get(node.name.lower())
            if replacement is not None:
                return replacement
        return node

    return _rewrite(expr, transform)


def remainder_statement(
    bound: BoundQuery, holes: Sequence[Region]
) -> SelectStatement:
    """The bound statement with ``AND NOT <hole>`` for each hole, in
    statement scope: select list, join, other predicates, ORDER BY and
    TOP kept."""
    template = bound.template
    ftemplate = template.function_template
    statement = bound.statement
    exclusions = [
        Not(to_statement_scope(template, region_predicate(ftemplate, hole)))
        for hole in holes
    ]
    return SelectStatement(
        select_items=statement.select_items,
        source=statement.source,
        joins=statement.joins,
        where=conjoin([statement.where, *exclusions]),
        order_by=statement.order_by,
        top=statement.top,
        star=statement.star,
    )
