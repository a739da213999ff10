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

Rows travel as *environment dictionaries* mapping lower-cased column
names to values.  Qualified names (``p.ra``) are always present;
unqualified names are added when unambiguous, mirroring SQL name
resolution.  The reserved key ``__functions__`` carries the UDF registry
for scalar calls inside expressions.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

from repro.obs.profiling import NULL_PROFILER
from repro.relational.aggregates import (
    contains_aggregate,
    evaluate_with_aggregates,
)
from repro.relational.catalog import Catalog
from repro.relational.errors import ExecutionError
from repro.relational.expressions import (
    BinaryOp,
    BinaryOperator,
    ColumnRef,
    Expression,
)
from repro.relational.result import ResultTable, sort_rows
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import ColumnType, infer_type, is_finite
from repro.sqlparser.ast import (
    FunctionSource,
    SelectItem,
    SelectStatement,
    TableSource,
)

Env = dict[str, Any]


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
        schemas = [(statement.source.binding_name, source_schema)]

        for join in statement.joins:
            table = self.catalog.table(join.table.name)
            rows = self._apply_join(
                rows, schemas, join.table.binding_name, table, join.condition
            )
            schemas.append((join.table.binding_name, table.schema))

        rows = self._finalize_envs(rows, schemas)

        if statement.where is not None:
            predicate = statement.where
            rows_in = len(rows)
            rows = [env for env in rows if predicate.evaluate(env) is True]
            if profiler.enabled:
                profiler.hit("executor.filter")
                profiler.count("executor.filter", "rows_in", rows_in)
                profiler.count("executor.filter", "rows_out", len(rows))

        if statement.group_by or self._has_aggregates(statement):
            return self._execute_grouped(rows, schemas, statement)

        if statement.distinct:
            return self._execute_distinct(rows, schemas, statement)

        if statement.order_by:
            rows = sort_rows(
                rows,
                [
                    (item.expression.evaluate, item.descending)
                    for item in statement.order_by
                ],
            )

        if statement.top is not None:
            rows = rows[: statement.top]

        return self._project(rows, schemas, statement)

    @staticmethod
    def _has_aggregates(statement: SelectStatement) -> bool:
        return not statement.star and any(
            contains_aggregate(item.expression)
            for item in statement.select_items
        )

    # ------------------------------------------------------------ source
    def _materialize_source(self, source) -> tuple[Schema, list[Env]]:
        if isinstance(source, TableSource):
            table = self.catalog.table(source.name)
            schema = table.schema
            prefix = source.binding_name.lower()
            names = [f"{prefix}.{n.lower()}" for n in schema.names]
            return schema, [dict(zip(names, row)) for row in table.rows]
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
            raw_rows = functions.call_table(source.name, self.catalog, args)
            schema = functions.table(source.name).schema
            prefix = source.binding_name.lower()
            names = [f"{prefix}.{n.lower()}" for n in schema.names]
            return schema, [dict(zip(names, row)) for row in raw_rows]
        raise ExecutionError(f"unsupported FROM source {source!r}")

    # ------------------------------------------------------------- joins
    def _apply_join(
        self,
        rows: list[Env],
        schemas: list[tuple[str, Schema]],
        binding_name: str,
        table: Table,
        condition: Expression,
    ) -> list[Env]:
        prefix = binding_name.lower()
        names = [f"{prefix}.{n.lower()}" for n in table.schema.names]

        equi = self._equi_join_columns(condition, schemas, binding_name, table)
        if equi is not None:
            outer_key, inner_column = equi
            inner_position = table.schema.position(inner_column)
            if table.primary_key and (
                table.schema.position(table.primary_key) == inner_position
            ):
                # Primary-key lookup join: one hash probe per outer row.
                joined = []
                for env in rows:
                    match = table.lookup(env.get(outer_key))
                    if match is not None:
                        merged = dict(env)
                        merged.update(zip(names, match))
                        joined.append(merged)
                return self._count_join("pk_lookup", joined)
            # Hash join: build on the (usually smaller) inner table.
            buckets: dict[Any, list[tuple[Any, ...]]] = {}
            for row in table.rows:
                key = row[inner_position]
                if key is not None:
                    buckets.setdefault(key, []).append(row)
            joined = []
            for env in rows:
                for row in buckets.get(env.get(outer_key), ()):
                    merged = dict(env)
                    merged.update(zip(names, row))
                    joined.append(merged)
            return self._count_join("hash", joined)

        # General nested-loop join with the full condition.
        joined = []
        for env in rows:
            for row in table.rows:
                merged = dict(env)
                merged.update(zip(names, row))
                if condition.evaluate(merged) is True:
                    joined.append(merged)
        return self._count_join("nested_loop", joined)

    def _count_join(self, strategy: str, joined: list[Env]) -> list[Env]:
        if self.profiler.enabled:
            self.profiler.hit("executor.join")
            self.profiler.count("executor.join", strategy, 1)
            self.profiler.count("executor.join", "rows_out", len(joined))
        return joined

    def _equi_join_columns(
        self,
        condition: Expression,
        schemas: list[tuple[str, Schema]],
        binding_name: str,
        table: Table,
    ) -> tuple[str, str] | None:
        """Detect ``outer.col = inner.col`` in the join condition.

        Returns ``(outer env key, inner column name)`` or None.  Only a
        single top-level equality (possibly inside an AND whose first
        matching conjunct is used for the join, with the full condition
        re-checked afterwards by the caller via nested loop) — to keep
        the planner honest, AND conditions fall back to nested loop.
        """
        if not isinstance(condition, BinaryOp) or condition.op is not (
            BinaryOperator.EQ
        ):
            return None
        left, right = condition.left, condition.right
        if not isinstance(left, ColumnRef) or not isinstance(right, ColumnRef):
            return None
        inner_prefix = binding_name.lower() + "."
        for a, b in ((left, right), (right, left)):
            a_name = a.name.lower()
            b_name = b.name.lower()
            if a_name.startswith(inner_prefix):
                inner_column = a_name[len(inner_prefix):]
                if not table.schema.has(inner_column):
                    return None
                outer_key = self._resolve_outer_key(b_name, schemas)
                if outer_key is not None:
                    return outer_key, inner_column
        return None

    def _resolve_outer_key(
        self, name: str, schemas: list[tuple[str, Schema]]
    ) -> str | None:
        """Resolve a (possibly unqualified) column to its env key."""
        if "." in name:
            prefix, column = name.split(".", 1)
            for binding, schema in schemas:
                if binding.lower() == prefix and schema.has(column):
                    return f"{prefix}.{column}"
            return None
        matches = [
            f"{binding.lower()}.{name}"
            for binding, schema in schemas
            if schema.has(name)
        ]
        return matches[0] if len(matches) == 1 else None

    # --------------------------------------------------------- finishing
    def _finalize_envs(
        self, rows: list[Env], schemas: list[tuple[str, Schema]]
    ) -> list[Env]:
        """Install unambiguous unqualified names and the UDF registry."""
        name_owners: dict[str, list[str]] = {}
        for binding, schema in schemas:
            for column in schema.names:
                name_owners.setdefault(column.lower(), []).append(
                    f"{binding.lower()}.{column.lower()}"
                )
        unambiguous = {
            name: owners[0]
            for name, owners in name_owners.items()
            if len(owners) == 1
        }
        functions = self.catalog.functions
        for env in rows:
            for name, key in unambiguous.items():
                env[name] = env[key]
            env["__functions__"] = functions
        return rows

    # ------------------------------------------------- grouped/distinct
    def _execute_grouped(
        self,
        rows: list[Env],
        schemas: list[tuple[str, Schema]],
        statement: SelectStatement,
    ) -> ResultTable:
        """GROUP BY / aggregate evaluation.

        Non-aggregated select items must be grouping expressions (or
        constants), matched textually — the standard SQL rule, checked
        before execution so errors do not depend on the data.
        """
        if statement.star:
            raise ExecutionError("SELECT * cannot be aggregated")
        grouping_sql = {expr.to_sql().lower() for expr in statement.group_by}
        for item in statement.select_items:
            if contains_aggregate(item.expression):
                continue
            from repro.relational.expressions import Literal

            if isinstance(item.expression, Literal):
                continue
            if item.expression.to_sql().lower() not in grouping_sql:
                raise ExecutionError(
                    f"{item.expression.to_sql()} must appear in GROUP BY "
                    "or inside an aggregate"
                )

        groups: dict[tuple, list[Env]] = {}
        if statement.group_by:
            for env in rows:
                key = tuple(
                    expr.evaluate(env) for expr in statement.group_by
                )
                groups.setdefault(key, []).append(env)
        else:
            # Aggregates without GROUP BY: one group, even when empty.
            groups[()] = rows

        projected = [
            tuple(
                evaluate_with_aggregates(item.expression, group_rows)
                for item in statement.select_items
            )
            for group_rows in groups.values()
        ]
        if self.profiler.enabled:
            self.profiler.hit("executor.aggregate")
            self.profiler.count("executor.aggregate", "groups", len(groups))
        schema = Schema(
            tuple(
                Column(
                    item.output_name(),
                    self._aggregate_output_type(item, schemas),
                )
                for item in statement.select_items
            )
        )
        result = ResultTable(schema, projected)
        if statement.distinct:
            result = self._dedupe(result)
        result = self._order_output(result, statement)
        if statement.top is not None:
            result = result.top_n(statement.top)
        return result

    def _aggregate_output_type(
        self, item: SelectItem, schemas: list[tuple[str, Schema]]
    ) -> ColumnType:
        from repro.relational.expressions import CountStar, FuncCall

        expr = item.expression
        if isinstance(expr, CountStar):
            return ColumnType.INT
        if isinstance(expr, FuncCall) and expr.name.lower() == "count":
            return ColumnType.INT
        if contains_aggregate(expr):
            return ColumnType.FLOAT
        return self._output_type(item, schemas)

    def _execute_distinct(
        self,
        rows: list[Env],
        schemas: list[tuple[str, Schema]],
        statement: SelectStatement,
    ) -> ResultTable:
        """SELECT DISTINCT: project, dedupe, then order by output
        columns (ORDER BY under DISTINCT may only reference the select
        list, per SQL)."""
        result = self._dedupe(self._project(rows, schemas, statement))
        result = self._order_output(result, statement)
        if statement.top is not None:
            result = result.top_n(statement.top)
        return result

    @staticmethod
    def _dedupe(result: ResultTable) -> ResultTable:
        seen: set = set()
        kept = []
        for row in result.rows:
            if row not in seen:
                seen.add(row)
                kept.append(row)
        return ResultTable(result.schema, kept)

    def _order_output(
        self, result: ResultTable, statement: SelectStatement
    ) -> ResultTable:
        """ORDER BY over an already-projected result.

        Keys must name output columns or repeat a select item's
        expression verbatim — the resolvable cases once source rows are
        gone.
        """
        if not statement.order_by:
            return result
        positions = []
        by_sql = {
            item.expression.to_sql().lower(): index
            for index, item in enumerate(statement.select_items)
        }
        for order_item in statement.order_by:
            expr = order_item.expression
            if isinstance(expr, ColumnRef) and result.schema.has(expr.name):
                positions.append(
                    (result.schema.position(expr.name),
                     order_item.descending)
                )
                continue
            index = by_sql.get(expr.to_sql().lower())
            if index is None:
                raise ExecutionError(
                    f"ORDER BY {expr.to_sql()} must reference the select "
                    "list in a DISTINCT or aggregate query"
                )
            positions.append((index, order_item.descending))
        return ResultTable(
            result.schema,
            sort_rows(
                result.rows,
                [(itemgetter(p), descending) for p, descending in positions],
            ),
        )

    def _project(
        self,
        rows: list[Env],
        schemas: list[tuple[str, Schema]],
        statement: SelectStatement,
    ) -> ResultTable:
        if statement.star:
            items = []
            seen: set[str] = set()
            for binding, schema in schemas:
                for column in schema.names:
                    # Keep the short name unless it collides.
                    if column.lower() in seen:
                        qualified = f"{binding}.{column}"
                        items.append(
                            SelectItem(ColumnRef(qualified), alias=None)
                        )
                    else:
                        seen.add(column.lower())
                        items.append(
                            SelectItem(ColumnRef(f"{binding}.{column}"),
                                       alias=column)
                        )
        else:
            items = list(statement.select_items)

        output_columns = tuple(
            Column(item.output_name(), self._output_type(item, schemas))
            for item in items
        )
        schema = Schema(output_columns)
        expressions = [item.expression for item in items]
        projected = [
            tuple(expr.evaluate(env) for expr in expressions) for env in rows
        ]
        if self.profiler.enabled:
            self.profiler.hit("executor.project")
            self.profiler.count("executor.project", "rows", len(projected))
        return ResultTable(schema, projected)

    def _output_type(
        self, item: SelectItem, schemas: list[tuple[str, Schema]]
    ) -> ColumnType:
        """Static output type: exact for column refs and literals,
        FLOAT for computed expressions (the dialect's only arithmetic
        domain)."""
        expr = item.expression
        if isinstance(expr, ColumnRef):
            name = expr.name.lower()
            if "." in name:
                prefix, column = name.split(".", 1)
                for binding, schema in schemas:
                    if binding.lower() == prefix and schema.has(column):
                        return schema.column(column).type
            else:
                for _binding, schema in schemas:
                    if schema.has(name):
                        return schema.column(name).type
            raise ExecutionError(f"unknown column {expr.name!r} in select list")
        from repro.relational.expressions import Literal

        if isinstance(expr, Literal) and expr.value is not None:
            return infer_type(expr.value)
        return ColumnType.FLOAT
