"""Remainder query construction.

When a new query overlaps the cache, the proxy can answer the cached
portion locally and ask the origin only for the rest (Dar et al.'s
semantic caching, adopted in Section 3.2).  The remainder query is the
original bound query with one extra ``AND NOT <region predicate>``
conjunct per excluded cached region, rendered in statement scope so the
origin's free-SQL facility can execute it unchanged.

The excluded-region predicates are generated from the function
template's spatial semantics:

* hypersphere — ``(x1-c1)^2 + ... + (xn-cn)^2 <= r^2`` over the point
  expressions;
* hyperrect — a conjunction of ``BETWEEN`` terms;
* polytope — a conjunction of halfspace inequalities.

Exactness note: the remainder region (a base region minus a union of
holes) is represented *predicatively*, not as a new primitive shape —
sphere-minus-sphere has no closed shape in our region algebra, and the
paper's own implementation likewise ships NOT-predicates to the
SkyServer's free SQL page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.rewrite import to_statement_scope
from repro.obs.decisions import region_summary
from repro.geometry.regions import (
    ConvexPolytope,
    DifferenceRegion,
    HyperRect,
    HyperSphere,
    Region,
)
from repro.relational.expressions import (
    And,
    Between,
    BinaryOp,
    BinaryOperator,
    Expression,
    Literal,
    Not,
    conjoin,
)
from repro.sqlparser.ast import SelectStatement
from repro.templates.errors import TemplateError
from repro.templates.function_template import FunctionTemplate
from repro.templates.manager import BoundQuery


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


@dataclass(frozen=True)
class RemainderQuery:
    """A rewritten statement plus the difference region it selects."""

    statement: SelectStatement
    region: DifferenceRegion
    n_holes: int

    @property
    def sql(self) -> str:
        return self.statement.to_sql()

    def geometry(self) -> dict[str, Any]:
        """The difference region as JSON-able bounds (explain layer)."""
        return {
            "base": region_summary(self.region.base),
            "holes": [region_summary(hole) for hole in self.region.holes],
            "n_holes": self.n_holes,
        }


def build_remainder(
    bound: BoundQuery, holes: Sequence[Region]
) -> RemainderQuery:
    """The new query minus the cached regions in ``holes``.

    The returned statement keeps the original select list, join, other
    predicates, ORDER BY and TOP, and conjoins ``NOT <hole>`` for each
    excluded region (rendered in statement scope).

    TOP-N interaction: a remainder query keeps the original TOP bound —
    the remainder needs at most that many tuples — and the proxy's
    final merge re-applies ORDER BY / TOP over cache + remainder.
    """
    if not holes:
        raise TemplateError("a remainder query needs at least one hole")
    template = bound.template
    ftemplate = template.function_template
    statement = bound.statement
    exclusions = [
        Not(
            to_statement_scope(
                template, region_predicate(ftemplate, hole)
            )
        )
        for hole in holes
    ]
    where = conjoin([statement.where, *exclusions])
    rewritten = SelectStatement(
        select_items=statement.select_items,
        source=statement.source,
        joins=statement.joins,
        where=where,
        order_by=statement.order_by,
        top=statement.top,
        star=statement.star,
    )
    region = DifferenceRegion(bound.region, tuple(holes))
    return RemainderQuery(rewritten, region, len(holes))
