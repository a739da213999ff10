"""Executor: plans a parsed SELECT once, then runs the plan.

A :class:`Plan` compiles a statement against a catalog once: the FROM
bindings (:class:`Scope`) — a column name becomes a position in the
joined tuple, so a misspelt or ambiguous name is an error whether or
not a row would reach it — each join's strategy, WHERE, ORDER BY, the
select list and the output schema.  A run then only moves rows:

1. materialize the FROM source (base-table scan or table-valued
   function call),
2. apply each JOIN in order (primary-key lookup join when the join
   condition equates a column with the joined table's primary key,
   hash join for other equi-joins, nested loop otherwise),
3. filter by WHERE, and by the run's exclusion if it has one,
4. sort by ORDER BY,
5. cut to TOP-N,
6. project the select list.

Rows travel as the tuples the table or function returns; a join
appends the inner tuple to the outer one.  A query template is planned
with its ``$``-parameters as *slots*: a run is given the function
call's arguments and the parameter values, the values are put in front
of every source row, and each slot reads its position there.  Free SQL
is planned and run once (:class:`Executor`).
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import Any, Callable, Mapping, Sequence

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
    Parameter,
    SelectStatement,
    TableSource,
)

Rows = Sequence[tuple[Any, ...]]


class Scope:
    """The FROM bindings a statement's column names resolve against:
    each binding's columns at their positions in the joined tuple.

    A qualified name (``p.ra``) names its binding's column; an
    unqualified one resolves only when exactly one binding has it.  A
    template's ``slots`` (``$``-parameter names) come first in the
    tuple, before the first binding's columns.
    """

    def __init__(self, slots: Sequence[str] = ()) -> None:
        self.slots = {name: position for position, name in enumerate(slots)}
        self.columns: list[Column] = []
        self._bindings: list[tuple[str, int, Schema]] = []

    @property
    def width(self) -> int:
        """The joined tuple's length so far."""
        return len(self.slots) + len(self.columns)

    def add(self, binding: str, schema: Schema) -> None:
        """Append a binding's columns (its rows' values follow the
        previous bindings' in the joined tuple)."""
        self._bindings.append((binding.lower(), self.width, schema))
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
        """The compiler's leaf: a column or a slot reads its tuple
        position (any other ``$name`` stays unread)."""
        if isinstance(node, ColumnRef):
            return itemgetter(self.resolve(node.name))
        if isinstance(node, Parameter) and node.name in self.slots:
            return itemgetter(self.slots[node.name])
        return None


class Plan:
    """One SELECT compiled against one catalog, run any number of times.

    With ``slots`` the statement is a query template: each ``$name``
    is read from the run's ``params``, and :meth:`run` is given the
    FROM call's ``arguments`` already computed.  Without, the arguments
    must be constants, evaluated here.  Every run's operator counters
    go to ``profiler`` (``executor.*`` rows).

    A plan holds no per-run state — a run's values and exclusion are
    its arguments — so threads may share it.
    """

    def __init__(
        self, catalog: Catalog, statement: SelectStatement,
        slots: bool = False, profiler: Any = NULL_PROFILER,
    ) -> None:
        self.catalog = catalog
        self.statement = statement
        self.profiler = profiler
        source = statement.source
        self.slots = tuple(statement.parameter_names()) if slots else ()
        self.arguments: list[Any] | None = None
        if isinstance(source, FunctionSource) and not slots:
            try:
                self.arguments = source.argument_values()
            except ExecutionError as exc:
                raise ExecutionError(
                    f"non-constant argument to {source.name}: {exc}"
                ) from None
        scope = self.scope = Scope(self.slots)
        scope.add(
            source.binding_name,
            catalog.table(source.name).schema
            if isinstance(source, TableSource)
            else catalog.functions.table(source.name).schema,
        )
        self.joins = [self._plan_join(join, scope) for join in statement.joins]
        self.compile = partial(
            compile_expression, leaf=scope.read,
            functions=catalog.functions,
        )
        where = statement.where
        self.where = None if where is None else self.compile(where)
        self.finish: Callable[[Rows], ResultTable]
        if statement.group_by or not statement.star and any(
            contains_aggregate(item.expression)
            for item in statement.select_items
        ):
            self.finish = self._plan_grouped(statement, scope)
        elif statement.distinct:
            project = self._plan_project(statement, scope)
            self.finish = lambda rows: self._finish_output(project(rows))
        else:
            self.finish = self._plan_ordered(statement, scope)

    # ------------------------------------------------------------ public
    def run(
        self,
        arguments: Sequence[Any] | None = None,
        params: Mapping[str, Any] | None = None,
        exclude: Callable[[tuple[Any, ...]], bool] | None = None,
    ) -> ResultTable:
        """The statement's result.  ``arguments`` are the FROM call's
        (a template plan's run needs them), ``params`` the slots'
        values; a row ``exclude`` is true of is dropped after WHERE,
        before ORDER BY and TOP."""
        profiler = self.profiler
        rows = self._scan(
            self.arguments if arguments is None else arguments
        )
        if profiler.enabled:
            profiler.hit("executor.scan")
            profiler.count("executor.scan", "rows", len(rows))
        if self.slots:
            assert params is not None, "a template plan runs with params"
            values = tuple([params[name] for name in self.slots])
            rows = [values + row for row in rows]
        for join in self.joins:
            rows = join(rows)
        keep = where = self.where
        if exclude is not None:
            keep = lambda row: (  # noqa: E731
                (where is None or where(row) is True) and not exclude(row)
            )
        if keep is not None:
            rows_in = len(rows)
            rows = [row for row in rows if keep(row) is True]
            if profiler.enabled:
                profiler.hit("executor.filter")
                profiler.count("executor.filter", "rows_in", rows_in)
                profiler.count("executor.filter", "rows_out", len(rows))
        return self.finish(rows)

    def reader(
        self, exprs: Sequence[Expression]
    ) -> Callable[[tuple[Any, ...]], tuple[Any, ...]]:
        """``exprs``, written over the select list's output names, as
        one function of a joined tuple: an output name reads its
        item's expression, any other name resolves in the FROM
        bindings."""
        _, items = self.statement.output_scope

        def leaf(node: Expression) -> Compiled | None:
            if isinstance(node, ColumnRef):
                item = items.get(node.name.lower())
                if item is not None:
                    return self.compile(item)
            return self.scope.read(node)

        functions = self.catalog.functions
        readers = [compile_expression(e, leaf, functions) for e in exprs]
        return lambda row: tuple([read(row) for read in readers])

    # ------------------------------------------------------------ source
    def _scan(self, arguments: Sequence[Any] | None) -> Rows:
        source = self.statement.source
        if isinstance(source, TableSource):
            return self.catalog.table(source.name).rows
        assert arguments is not None, "a function call needs arguments"
        # Free SQL is outside input (``1e400`` parses to infinity).
        for arg in arguments:
            if isinstance(arg, (int, float)) and not is_finite(arg):
                raise ExecutionError(
                    f"non-finite argument to {source.name}: {arg!r}"
                )
        functions = self.catalog.functions
        return functions.call_table(source.name, self.catalog, arguments)

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
        profiler = self.profiler
        if profiler.enabled:
            profiler.hit("executor.join")
            profiler.count("executor.join", strategy, 1)
            profiler.count("executor.join", "rows_out", len(joined))
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
        self, statement: SelectStatement, scope: Scope
    ) -> Callable[[Rows], ResultTable]:
        """ORDER BY over source rows, TOP, then the select list."""
        keys = [
            (self.compile(item.expression), item.descending)
            for item in statement.order_by
        ]
        project = self._plan_project(statement, scope)
        top = statement.top

        def finish(rows: Rows) -> ResultTable:
            if keys:
                rows = sort_rows(rows, keys)
            if top is not None:
                rows = rows[:top]
            return project(rows)

        return finish

    def _plan_grouped(
        self, statement: SelectStatement, scope: Scope
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
        compile = self.compile
        keys = [compile(expr) for expr in statement.group_by]
        width = scope.width
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
        profiler = self.profiler

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
            if profiler.enabled:
                profiler.hit("executor.aggregate")
                profiler.count("executor.aggregate", "groups", len(groups))
            return self._finish_output(ResultTable(schema, projected))

        return finish

    def _finish_output(self, result: ResultTable) -> ResultTable:
        """DISTINCT (the first of equal rows stays), ORDER BY and TOP
        over an already-projected result: a grouped or a DISTINCT query.

        ORDER BY keys must name output columns or repeat a select
        item's expression verbatim — the resolvable cases once source
        rows are gone (and under DISTINCT the only ones SQL allows).
        """
        statement = self.statement
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
        self, statement: SelectStatement, scope: Scope
    ) -> Callable[[Rows], ResultTable]:
        schema = self._output_schema(statement, scope)
        profiler = self.profiler
        exprs = [item.expression for item in statement.select_items]
        pick: Callable[[tuple[Any, ...]], tuple[Any, ...]] | None
        if statement.star:
            # Every binding's columns: the tuple past the slots.
            first = len(scope.slots)
            pick = (lambda row: row[first:]) if first else None
        elif len(exprs) > 1 and all(isinstance(e, ColumnRef) for e in exprs):
            # A list of bare columns is one C-level pick per row.
            pick = itemgetter(*(scope.resolve(e.name) for e in exprs))
        else:
            items = [self.compile(expr) for expr in exprs]

            def pick(row: tuple[Any, ...]) -> tuple[Any, ...]:
                return tuple([item(row) for item in items])

        def project(rows: Rows) -> ResultTable:
            if pick is not None:
                rows = [pick(row) for row in rows]
            if profiler.enabled:
                profiler.hit("executor.project")
                profiler.count("executor.project", "rows", len(rows))
            return ResultTable(schema, rows)

        return project

    @staticmethod
    def _output_schema(statement: SelectStatement, scope: Scope) -> Schema:
        """The result's columns.  ``SELECT *`` keeps every binding's
        columns as they are (a name two bindings share is a duplicate);
        an item is named by :attr:`SelectStatement.output_names`, and
        its type is exact for a column or a literal, INT for a count,
        FLOAT for anything computed (the dialect's only arithmetic
        domain)."""
        if statement.star:
            return Schema(tuple(scope.columns))

        def output_type(expr: Expression) -> ColumnType:
            if isinstance(expr, CountStar) or (
                isinstance(expr, FuncCall) and expr.name.lower() == "count"
            ):
                return ColumnType.INT
            if isinstance(expr, ColumnRef):
                position = scope.resolve(expr.name, " in select list")
                return scope.columns[position - len(scope.slots)].type
            if isinstance(expr, Literal) and expr.value is not None:
                return infer_type(expr.value)
            return ColumnType.FLOAT

        return Schema(
            tuple(
                Column(name, output_type(item.expression))
                for name, item in zip(
                    statement.output_names, statement.select_items
                )
            )
        )


class Executor:
    """Runs free SQL against one catalog: each statement is planned,
    then run once."""

    def __init__(self, catalog: Catalog, profiler: Any = None) -> None:
        self.catalog = catalog
        # Operator counters land here (``executor.*`` rows).
        self.profiler = profiler if profiler is not None else NULL_PROFILER

    def execute(self, statement: SelectStatement) -> ResultTable:
        return Plan(self.catalog, statement, profiler=self.profiler).run()
