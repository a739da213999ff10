"""Local evaluation of queries over cached results.

The paper (Section 3.2): "the proxy evaluates the new query by
selecting the cached result tuples that represent points falling into
the multi-dimensional region of the new query.  In essence, the
evaluation of a subsumed query becomes that of a spatial region
selection query over cached results."

The evaluator also implements the *probe query* of the overlap case —
extracting, from a set of overlapping cache entries, the tuples that
fall into the new query's region — and the final ORDER BY / TOP-N the
query template may carry.

Nothing here interprets a row.  Each query template is compiled once
(:class:`_Plan`) over the positions of its result columns: the point a
tuple represents, the function's query-dependent output columns
(recomputed from this query's parameters, paper property 4) and the
sort keys.  A query then only builds its region's membership test and
binds the hoisted parameter values.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Any, Callable, Collection, Iterable, Iterator, Mapping, Sequence,
)

from repro.core.cache import CacheEntry
from repro.core.rewrite import to_result_scope
from repro.relational.errors import ExecutionError
from repro.relational.expressions import (
    ColumnRef,
    Expression,
    Literal,
    compile_expression,
)
from repro.relational.result import ResultTable, sort_rows
from repro.relational.schema import Schema
from repro.sqlparser.ast import parameter_slot
from repro.templates.errors import TemplateError
from repro.templates.manager import BoundQuery
from repro.templates.query_template import QueryTemplate


@dataclass(frozen=True)
class EvaluationOutcome:
    """A locally produced result plus the work it took.

    ``tuples_read`` counts every cached tuple touched;
    ``tuples_evaluated`` counts only those needing the per-tuple region
    membership test — an entry whose whole region lies inside the new
    query's region is copied without testing (its tuples are inside by
    construction), which makes the region-containment probe cheaper
    than a general overlap probe.
    """

    result: ResultTable
    tuples_read: int
    tuples_evaluated: int


def _staged(expr: Expression, column, width: int):
    """``expr`` over a result tuple, as ``bind(params) -> (row ->
    value)``: its parameter-only subexpressions are evaluated once per
    query by ``bind`` and appended to the row, so the compiled function
    reads them by position like any column."""
    hoisted: list[Callable[[Mapping[str, Any]], Any]] = []

    def leaf(node: Expression):
        if isinstance(node, Literal) or node.column_refs():
            return column(node)
        hoisted.append(compile_expression(node, parameter_slot))
        return itemgetter(width + len(hoisted) - 1)

    function = compile_expression(expr, leaf)

    def bind(params: Mapping[str, Any]) -> Callable[[tuple], Any]:
        if not hoisted:
            return function
        values = tuple(value(params) for value in hoisted)
        return lambda row: function(row + values)

    return bind


@contextmanager
def _per_tuple(bound: BoundQuery) -> Iterator[None]:
    """A compiled key or rule that fails on a cached tuple (``1 / 0``,
    ``exp(1000.0)``) fails the template, as a :class:`TemplateError`."""
    try:
        yield
    except ExecutionError as exc:
        raise TemplateError(
            f"template {bound.template_id!r}: cannot evaluate a cached "
            f"tuple: {exc}"
        ) from None


class _Plan:
    """One query template's local evaluation, compiled over the
    positions of the columns of its cached results (``schema``)."""

    def __init__(self, template: QueryTemplate, schema: Schema) -> None:
        self.template, self.names = template, schema.names
        self.width = len(schema)
        position = schema.position  # a missing column: SchemaError

        def column(node: Expression):
            if isinstance(node, ColumnRef):
                return itemgetter(position(node.name))
            return None

        self.column = column
        ftemplate, width = template.function_template, self.width
        exprs = ftemplate.point_exprs
        #: Where the region test reads the point: the tuple itself when
        #: every point expression is a bare column (all built-in
        #: templates), else the list ``point`` computes from it.
        self.point: Callable[[tuple], list] | None = None
        self.positions: Sequence[int]
        if all(isinstance(expr, ColumnRef) for expr in exprs):
            self.positions = [position(expr.name) for expr in exprs]
        else:
            readers = [compile_expression(expr, column) for expr in exprs]
            self.positions = range(len(readers))
            self.point = lambda row: [read(row) for read in readers]
        # A query-dependent column is recomputed where the select list
        # reads it bare (``n.distance``, the form FP215 accepts), into
        # that item's output column, whatever the item is named.
        binding = template.statement.source.binding_name.lower()
        reads: dict[str, int] = {}
        statement = template.statement
        items = zip(statement.select_items, statement.output_names)
        for item, output in items:
            if isinstance(item.expression, ColumnRef):
                table, _, name = item.expression.name.lower().rpartition(".")
                if table in ("", binding):
                    reads.setdefault(name, position(output))
        self.outputs = [
            (reads[name.lower()], _staged(expr, column, width))
            for name, expr in ftemplate.outputs
            if name.lower() in reads
        ]
        self._order: list | None = None  # compiled by the first finalize

    def region_test(self, bound: BoundQuery) -> Callable[[tuple], bool]:
        test = bound.region.point_test(self.positions)
        point = self.point
        return test if point is None else lambda row: test(point(row))

    def recompute(self, bound: BoundQuery) -> Callable[[tuple], tuple]:
        """This query's values of the function's query-dependent
        columns, written over a cached row's."""
        params = bound.function_params
        rules = [(at, bind(params)) for at, bind in self.outputs]

        def recomputed(row: tuple) -> tuple:
            values = list(row)
            for at, rule in rules:
                values[at] = rule(row)
            return tuple(values)

        return recomputed

    def order_keys(self, bound: BoundQuery) -> list:
        """The query's ORDER BY keys over a result tuple, for
        :func:`sort_rows`.  Two threads compiling them at once store
        equal lists; the last write wins."""
        if self._order is None:
            template = self.template
            self._order = [
                (_staged(to_result_scope(template, item.expression),
                         self.column, self.width), item.descending)
                for item in template.statement.order_by
            ]
        return [(bind(bound.params), desc) for bind, desc in self._order]


class LocalEvaluator:
    """Region-selection evaluation over cached result tables."""

    def __init__(self) -> None:
        # One plan per template id, replaced when the template object or
        # its result columns change.  Two threads compiling the same
        # template at once store equal plans; the last write wins.
        self._plans: dict[str, _Plan] = {}

    def _plan(self, template: QueryTemplate, schema: Schema) -> _Plan:
        plan = self._plans.get(template.template_id)
        if plan is None or plan.template is not template or (
            plan.names != schema.names
        ):
            plan = self._plans[template.template_id] = _Plan(template, schema)
        return plan

    def select_in_region(
        self,
        bound: BoundQuery,
        entries: Iterable[CacheEntry],
        inside: Collection[int],
    ) -> EvaluationOutcome:
        """Tuples of ``entries`` that fall inside the new query's region.

        ``inside`` holds the ids of the entries whose whole region lies
        inside the query's, as the proxy's check stage related them;
        their tuples are not tested.
        Query-dependent function columns are recomputed for this query.
        Deduplicates on the template's key column (overlapping cached
        regions can share tuples).  Does *not* apply ORDER BY / TOP —
        callers finish with :meth:`finalize` once all sources (cache
        and, for overlap, the origin's remainder) are merged.
        """
        entries = list(entries)
        if not entries:
            raise ValueError("select_in_region needs at least one entry")
        plan = self._plan(bound.template, entries[0].result.schema)
        test = plan.region_test(bound)
        # Bound on the first row that needs it: most queries keep none.
        recompute: Callable[[tuple], tuple] | None = None
        tuples_read = tuples_evaluated = 0
        tables: list[ResultTable] = []
        with _per_tuple(bound):
            for entry in entries:
                kept = entry.result
                rows = kept.rows
                tuples_read += len(rows)
                if entry.entry_id not in inside:
                    tuples_evaluated += len(rows)
                    rows = [row for row in rows if test(row)]
                if plan.outputs and rows:
                    recompute = recompute or plan.recompute(bound)
                    rows = [recompute(row) for row in rows]
                if rows is not kept.rows:
                    kept = ResultTable(kept.schema, rows)
                tables.append(kept)
        collected = tables[0]
        for table in tables[1:]:
            collected = collected.merge_dedup(table, bound.key_column)
        return EvaluationOutcome(collected, tuples_read, tuples_evaluated)

    def finalize(self, bound: BoundQuery, result: ResultTable) -> ResultTable:
        """Apply the query's ORDER BY and TOP-N in result scope."""
        statement = bound.template.statement
        if statement.order_by:
            keys = self._plan(bound.template, result.schema).order_keys(bound)
            with _per_tuple(bound):
                rows = sort_rows(result.rows, keys)
            result = ResultTable(result.schema, rows)
        if statement.top is not None:
            result = result.top_n(statement.top)
        return result
