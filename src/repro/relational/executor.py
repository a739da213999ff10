"""Executor: runs a parsed SELECT against a catalog.

The execution pipeline mirrors SQL semantics for the supported dialect:

1. materialize the FROM source (base-table scan or table-valued
   function call),
2. apply each JOIN in order (primary-key lookup join when the join
   condition equates a column with the joined table's primary key,
   hash join for other equi-joins, nested loop otherwise),
3. filter by WHERE,
4. sort by ORDER BY,
5. cut to TOP-N,
6. project the select list.

Rows travel as the tuples the table or function returns; a join
appends the inner tuple to the outer one.  Before any row is filtered,
every clause is compiled once against the FROM bindings (:class:`Scope`):
a column name becomes a position in that tuple, so a misspelt or
ambiguous name is an error whether or not a row would reach it.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import Any, Callable, Sequence

from repro.obs.profiling import NULL_PROFILER
from repro.relational.aggregates import (
    compile_aggregate,
    contains_aggregate,
    is_aggregate_call,
)
from repro.relational.catalog import Catalog
from repro.relational.errors import ExecutionError
from repro.relational.expressions import (
    BinaryOp,
    BinaryOperator,
    ColumnRef,
    Compiled,
    CountStar,
    Expression,
    FuncCall,
    Literal,
    compile_expression,
)
from repro.relational.result import ResultTable, sort_rows
from repro.relational.schema import Column, Schema
from repro.relational.types import ColumnType, infer_type, is_finite
from repro.sqlparser.ast import (
    FunctionSource,
    JoinClause,
    SelectStatement,
    TableSource,
)

Rows = Sequence[tuple[Any, ...]]


class Scope:
    """The FROM bindings a statement's column names resolve against:
    each binding's columns at their positions in the joined tuple.

    A qualified name (``p.ra``) names its binding's column; an
    unqualified one resolves only when exactly one binding has it.
    """

    def __init__(self) -> None:
        self.columns: list[Column] = []
        self._bindings: list[tuple[str, int, Schema]] = []

    def add(self, binding: str, schema: Schema) -> None:
        """Append a binding's columns (its rows' values follow the
        previous bindings' in the joined tuple)."""
        self._bindings.append((binding.lower(), len(self.columns), schema))
        self.columns.extend(schema)

    def _positions(self, name: str) -> list[int]:
        """Every column ``name`` could mean."""
        prefix, _, key = name.lower().rpartition(".")
        return [
            offset + position
            for binding, offset, schema in self._bindings
            if prefix in ("", binding)
            and (position := schema.find(key)) is not None
        ]

    def find(self, name: str) -> int | None:
        """``name``'s position; None when it is unknown or ambiguous."""
        positions = self._positions(name)
        return positions[0] if len(positions) == 1 else None

    def resolve(self, name: str, where: str = "") -> int:
        """``name``'s position, or the :class:`ExecutionError` saying
        why it has none."""
        positions = self._positions(name)
        if len(positions) == 1:
            return positions[0]
        if positions:
            raise ExecutionError(f"ambiguous column reference {name!r}")
        raise ExecutionError(f"unknown column {name!r}{where}")

    def read(self, node: Expression) -> Compiled | None:
        """The compiler's leaf: a column reads its tuple position."""
        if isinstance(node, ColumnRef):
            return itemgetter(self.resolve(node.name))
        return None


class Executor:
    """Executes :class:`SelectStatement` values against one catalog."""

    def __init__(self, catalog: Catalog, profiler: Any = None) -> None:
        self.catalog = catalog
        # Operator counters land here (``executor.*`` rows); the
        # origin builds one executor per request around its bundle's
        # current profiler.
        self.profiler = profiler if profiler is not None else NULL_PROFILER

    # ------------------------------------------------------------ public
    def execute(self, statement: SelectStatement) -> ResultTable:
        profiler = self.profiler
        source_schema, rows = self._materialize_source(statement.source)
        if profiler.enabled:
            profiler.hit("executor.scan")
            profiler.count("executor.scan", "rows", len(rows))
        scope = Scope()
        scope.add(statement.source.binding_name, source_schema)
        joins = [self._plan_join(join, scope) for join in statement.joins]
        compile = partial(
            compile_expression, leaf=scope.read,
            functions=self.catalog.functions,
        )
        where = None if statement.where is None else compile(statement.where)
        if statement.group_by or self._has_aggregates(statement):
            finish = self._plan_grouped(statement, scope, compile)
        elif statement.distinct:
            project = self._plan_project(statement, scope, compile)

            def finish(rows: Rows) -> ResultTable:
                return self._finish_output(project(rows), statement)

        else:
            finish = self._plan_ordered(statement, scope, compile)

        for join in joins:
            rows = join(rows)
        if where is not None:
            rows_in = len(rows)
            rows = [row for row in rows if where(row) is True]
            if profiler.enabled:
                profiler.hit("executor.filter")
                profiler.count("executor.filter", "rows_in", rows_in)
                profiler.count("executor.filter", "rows_out", len(rows))
        return finish(rows)

    @staticmethod
    def _has_aggregates(statement: SelectStatement) -> bool:
        return not statement.star and any(
            contains_aggregate(item.expression)
            for item in statement.select_items
        )

    # ------------------------------------------------------------ source
    def _materialize_source(self, source) -> tuple[Schema, Rows]:
        if isinstance(source, TableSource):
            table = self.catalog.table(source.name)
            return table.schema, table.rows
        if isinstance(source, FunctionSource):
            functions = self.catalog.functions
            try:
                args = source.argument_values()
            except ExecutionError as exc:
                raise ExecutionError(
                    f"non-constant argument to {source.name}: {exc}"
                ) from None
            # Free SQL is outside input (``1e400`` parses to infinity).
            for arg in args:
                if isinstance(arg, (int, float)) and not is_finite(arg):
                    raise ExecutionError(
                        f"non-finite argument to {source.name}: {arg!r}"
                    )
            rows = functions.call_table(source.name, self.catalog, args)
            return functions.table(source.name).schema, rows
        raise ExecutionError(f"unsupported FROM source {source!r}")

    # ------------------------------------------------------------- joins
    def _plan_join(
        self, join: JoinClause, scope: Scope
    ) -> Callable[[Rows], Rows]:
        """One join step over outer rows; adds its binding to ``scope``."""
        table = self.catalog.table(join.table.name)
        binding = join.table.binding_name
        equi = self._equi_join_positions(join.condition, scope, binding, table)
        scope.add(binding, table.schema)
        if equi is not None:
            outer, inner = equi
            if table.primary_key and (
                table.schema.position(table.primary_key) == inner
            ):
                # Primary-key lookup join: one hash probe per outer row.
                lookup = table.lookup

                def pk_lookup(rows: Rows) -> Rows:
                    joined = []
                    for row in rows:
                        match = lookup(row[outer])
                        if match is not None:
                            joined.append(row + match)
                    return self._count_join("pk_lookup", joined)

                return pk_lookup

            def hash_join(rows: Rows) -> Rows:
                # Built on the (usually smaller) inner table.
                buckets: dict[Any, list[tuple[Any, ...]]] = {}
                for match in table.rows:
                    if match[inner] is not None:
                        buckets.setdefault(match[inner], []).append(match)
                joined = [
                    row + match
                    for row in rows
                    for match in buckets.get(row[outer], ())
                ]
                return self._count_join("hash", joined)

            return hash_join

        # General nested-loop join with the full condition.
        condition = compile_expression(
            join.condition, scope.read, self.catalog.functions
        )

        def nested_loop(rows: Rows) -> Rows:
            joined = [
                merged
                for row in rows
                for match in table.rows
                if condition(merged := row + match) is True
            ]
            return self._count_join("nested_loop", joined)

        return nested_loop

    def _count_join(self, strategy: str, joined: Rows) -> Rows:
        if self.profiler.enabled:
            self.profiler.hit("executor.join")
            self.profiler.count("executor.join", strategy, 1)
            self.profiler.count("executor.join", "rows_out", len(joined))
        return joined

    @staticmethod
    def _equi_join_positions(
        condition: Expression, outer: Scope, binding: str, table
    ) -> tuple[int, int] | None:
        """Detect ``outer.col = inner.col`` in the join condition.

        Returns ``(outer tuple position, inner table position)`` or
        None.  Only a single top-level equality qualifies — to keep the
        planner honest, AND conditions fall back to nested loop.
        """
        if not isinstance(condition, BinaryOp) or condition.op is not (
            BinaryOperator.EQ
        ):
            return None
        left, right = condition.left, condition.right
        if not isinstance(left, ColumnRef) or not isinstance(right, ColumnRef):
            return None
        prefix = binding.lower() + "."
        for a, b in ((left, right), (right, left)):
            name = a.name.lower()
            if name.startswith(prefix):
                inner = table.schema.find(name[len(prefix):])
                if inner is None:
                    return None
                position = outer.find(b.name)
                if position is not None:
                    return position, inner
        return None

    # ---------------------------------------------------------- finishing
    def _plan_ordered(
        self, statement: SelectStatement, scope: Scope, compile
    ) -> Callable[[Rows], ResultTable]:
        """ORDER BY over source rows, TOP, then the select list."""
        keys = [
            (compile(item.expression), item.descending)
            for item in statement.order_by
        ]
        project = self._plan_project(statement, scope, compile)

        def finish(rows: Rows) -> ResultTable:
            if keys:
                rows = sort_rows(rows, keys)
            if statement.top is not None:
                rows = rows[: statement.top]
            return project(rows)

        return finish

    def _plan_grouped(
        self, statement: SelectStatement, scope: Scope, compile
    ) -> Callable[[Rows], ResultTable]:
        """GROUP BY / aggregate evaluation.

        Non-aggregated select items must be grouping expressions (or
        constants), matched textually — the standard SQL rule, checked
        before execution so errors do not depend on the data.  Each
        aggregate call is computed once per group and appended to the
        group's first row, where its select item reads it by position.
        """
        if statement.star:
            raise ExecutionError("SELECT * cannot be aggregated")
        grouping_sql = {expr.to_sql().lower() for expr in statement.group_by}
        for item in statement.select_items:
            expr = item.expression
            if contains_aggregate(expr) or isinstance(expr, Literal):
                continue
            if expr.to_sql().lower() not in grouping_sql:
                raise ExecutionError(
                    f"{expr.to_sql()} must appear in GROUP BY "
                    "or inside an aggregate"
                )
        keys = [compile(expr) for expr in statement.group_by]
        width = len(scope.columns)
        aggregates: list[Callable[[Rows], Any]] = []

        def read(node: Expression) -> Compiled | None:
            if is_aggregate_call(node):
                aggregates.append(compile_aggregate(node, compile))
                return itemgetter(width + len(aggregates) - 1)
            return scope.read(node)

        items = [
            compile_expression(
                item.expression, read, self.catalog.functions
            )
            for item in statement.select_items
        ]
        schema = self._output_schema(statement, scope)

        def finish(rows: Rows) -> ResultTable:
            groups: dict[tuple, Any] = {}
            if keys:
                for row in rows:
                    key = tuple(read_key(row) for read_key in keys)
                    groups.setdefault(key, []).append(row)
            else:
                # Aggregates without GROUP BY: one group, even when empty.
                groups[()] = rows
            projected = []
            for members in groups.values():
                # The one group of an empty input has no first row: a
                # column outside the aggregates reads NULL there.
                first = members[0] if members else (None,) * width
                row = first + tuple(fold(members) for fold in aggregates)
                projected.append(tuple(item(row) for item in items))
            if self.profiler.enabled:
                self.profiler.hit("executor.aggregate")
                self.profiler.count(
                    "executor.aggregate", "groups", len(groups)
                )
            result = ResultTable(schema, projected)
            return self._finish_output(result, statement)

        return finish

    def _finish_output(
        self, result: ResultTable, statement: SelectStatement
    ) -> ResultTable:
        """DISTINCT (the first of equal rows stays), ORDER BY and TOP
        over an already-projected result: a grouped or a DISTINCT query.

        ORDER BY keys must name output columns or repeat a select
        item's expression verbatim — the resolvable cases once source
        rows are gone (and under DISTINCT the only ones SQL allows).
        """
        if statement.distinct:
            result = ResultTable(result.schema, dict.fromkeys(result.rows))
        by_sql = {
            item.expression.to_sql().lower(): index
            for index, item in enumerate(statement.select_items)
        }
        keys = []
        for order_item in statement.order_by:
            expr = order_item.expression
            if isinstance(expr, ColumnRef) and result.schema.has(expr.name):
                index = result.schema.position(expr.name)
            else:
                index = by_sql.get(expr.to_sql().lower())
            if index is None:
                raise ExecutionError(
                    f"ORDER BY {expr.to_sql()} must reference the select "
                    "list in a DISTINCT or aggregate query"
                )
            keys.append((itemgetter(index), order_item.descending))
        if keys:
            result = ResultTable(result.schema, sort_rows(result.rows, keys))
        return result if statement.top is None else result.top_n(statement.top)

    def _plan_project(
        self, statement: SelectStatement, scope: Scope, compile
    ) -> Callable[[Rows], ResultTable]:
        schema = self._output_schema(statement, scope)
        exprs = [item.expression for item in statement.select_items]
        if statement.star:
            pick = None
        elif len(exprs) > 1 and all(isinstance(e, ColumnRef) for e in exprs):
            # A list of bare columns is one C-level pick per row.
            pick = itemgetter(*(scope.resolve(e.name) for e in exprs))
        else:
            items = [compile(expr) for expr in exprs]

            def pick(row: tuple[Any, ...]) -> tuple[Any, ...]:
                return tuple([item(row) for item in items])

        def project(rows: Rows) -> ResultTable:
            if pick is not None:
                rows = [pick(row) for row in rows]
            if self.profiler.enabled:
                self.profiler.hit("executor.project")
                self.profiler.count("executor.project", "rows", len(rows))
            return ResultTable(schema, rows)

        return project

    @staticmethod
    def _output_schema(statement: SelectStatement, scope: Scope) -> Schema:
        """The result's columns.  ``SELECT *`` keeps every binding's
        columns as they are (a name two bindings share is a duplicate);
        a select item's type is exact for a column or a literal, INT for
        a count, FLOAT for anything computed (the dialect's only
        arithmetic domain)."""
        if statement.star:
            return Schema(tuple(scope.columns))

        def output_type(expr: Expression) -> ColumnType:
            if isinstance(expr, CountStar) or (
                isinstance(expr, FuncCall) and expr.name.lower() == "count"
            ):
                return ColumnType.INT
            if isinstance(expr, ColumnRef):
                position = scope.resolve(expr.name, " in select list")
                return scope.columns[position].type
            if isinstance(expr, Literal) and expr.value is not None:
                return infer_type(expr.value)
            return ColumnType.FLOAT

        return Schema(
            tuple(
                Column(item.output_name(), output_type(item.expression))
                for item in statement.select_items
            )
        )
