"""AST nodes for the function-embedded SELECT dialect.

WHERE clauses and select-list expressions reuse the engine's expression
nodes (:mod:`repro.relational.expressions`), so a parsed statement can be
planned and executed directly.  The nodes added here cover statement
structure: the select list, FROM sources (a base table or a table-valued
function call), joins, ordering, and TOP-N.

Every node renders back to SQL via ``to_sql``; parsing the rendering
yields an equal AST (property-tested), which is what lets the proxy
rewrite and forward queries textually.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Any, Callable, Mapping

from repro.relational.errors import ExecutionError
from repro.relational.expressions import (
    Compiled,
    Expression,
    Literal,
    compile_expression,
)


@dataclass(frozen=True)
class Parameter(Expression):
    """A template placeholder ``$name``.

    Parameters appear only inside *templates*.  A statement is bound
    (:meth:`SelectStatement.bind`) by replacing them with literals
    before it reaches the executor.  A function template's region
    expressions, and the parameter-only parts of local evaluation, are
    instead compiled as they stand, with a ``leaf`` that reads each
    parameter from the call's values
    (:func:`~repro.relational.expressions.compile_expression`).  The
    executor's leaf reads columns only, so a ``$name`` in free SQL
    stays an error when it is reached.
    """

    name: str
    unread = "unbound template parameter ${0.name}"

    def to_sql(self) -> str:
        return f"${self.name}"


def parameter_slot(node: Expression) -> Compiled | None:
    """The compiler's leaf that reads each ``$name`` from a mapping of
    parameter values (a missing one is a ``KeyError``)."""
    return itemgetter(node.name) if isinstance(node, Parameter) else None


@dataclass(frozen=True)
class SelectItem:
    """One select-list entry: an expression with an optional alias."""

    expression: Expression
    alias: str | None = None

    def output_name(self) -> str:
        """The column name this item produces in the result."""
        if self.alias:
            return self.alias
        sql = self.expression.to_sql()
        # A bare column reference keeps its unqualified name, as in SQL.
        if sql.replace(".", "").replace("_", "").isalnum():
            return sql.split(".")[-1]
        return sql

    def to_sql(self) -> str:
        sql = self.expression.to_sql()
        return f"{sql} AS {self.alias}" if self.alias else sql


@dataclass(frozen=True)
class TableSource:
    """A base table in FROM, with an optional alias."""

    name: str
    alias: str | None = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.name

    def to_sql(self) -> str:
        return f"{self.name} {self.alias}" if self.alias else self.name


@dataclass(frozen=True)
class FunctionSource:
    """A table-valued function call in FROM, with an optional alias.

    Arguments are expressions; in templates they may be
    :class:`Parameter` nodes, in concrete queries they must be constants
    (literals or arithmetic over literals).
    """

    name: str
    args: tuple[Expression, ...]
    alias: str | None = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.name

    def argument_values(self) -> list[Any]:
        """Evaluate the arguments as constants: a column or a parameter
        among them is an :class:`ExecutionError`.  A bound statement's
        arguments are literals, read without compiling (this runs on
        every query)."""
        return [
            arg.value if isinstance(arg, Literal)
            else compile_expression(arg)(())
            for arg in self.args
        ]

    def to_sql(self) -> str:
        inner = ", ".join(arg.to_sql() for arg in self.args)
        call = f"{self.name}({inner})"
        return f"{call} {self.alias}" if self.alias else call


@dataclass(frozen=True)
class JoinClause:
    """An inner join: ``JOIN table alias ON condition``."""

    table: TableSource
    condition: Expression

    def to_sql(self) -> str:
        return f"JOIN {self.table.to_sql()} ON {self.condition.to_sql()}"


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    expression: Expression
    descending: bool = False

    def to_sql(self) -> str:
        suffix = " DESC" if self.descending else ""
        return f"{self.expression.to_sql()}{suffix}"


@dataclass(frozen=True)
class SelectStatement:
    """A parsed SELECT of the function-embedded query class.

    ``group_by`` and ``distinct`` extend the paper's dialect for the
    origin's free-SQL facility; the proxy's query templates never use
    them (template validation rejects statements it cannot reason
    about spatially, which keeps the caching logic honest).
    """

    select_items: tuple[SelectItem, ...]
    source: TableSource | FunctionSource
    joins: tuple[JoinClause, ...] = ()
    where: Expression | None = None
    order_by: tuple[OrderItem, ...] = ()
    top: int | None = None
    star: bool = False
    distinct: bool = False
    group_by: tuple[Expression, ...] = ()

    def to_sql(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        if self.top is not None:
            parts.append(f"TOP {self.top}")
        if self.star:
            parts.append("*")
        else:
            parts.append(", ".join(item.to_sql() for item in self.select_items))
        parts.append(f"FROM {self.source.to_sql()}")
        for join in self.joins:
            parts.append(join.to_sql())
        if self.where is not None:
            parts.append(f"WHERE {self.where.to_sql()}")
        if self.group_by:
            keys = ", ".join(expr.to_sql() for expr in self.group_by)
            parts.append(f"GROUP BY {keys}")
        if self.order_by:
            keys = ", ".join(item.to_sql() for item in self.order_by)
            parts.append(f"ORDER BY {keys}")
        return " ".join(parts)

    # ------------------------------------------------------- templates
    def expressions(self) -> list[Expression]:
        """Every expression of the statement, clause by clause.

        Select items, function-source arguments, join conditions,
        WHERE, GROUP BY, ORDER BY — the one list of a statement's
        clauses, and the order :meth:`parameter_names` reports first
        appearances in.  :meth:`map_expressions` is its rebuilding twin.
        """
        source = self.source
        return [
            *(item.expression for item in self.select_items),
            *(source.args if isinstance(source, FunctionSource) else ()),
            *(join.condition for join in self.joins),
            *(() if self.where is None else (self.where,)),
            *self.group_by,
            *(item.expression for item in self.order_by),
        ]

    def map_expressions(
        self, fn: Callable[[Expression], Expression]
    ) -> "SelectStatement":
        """This statement with ``fn`` applied to each of
        :meth:`expressions`, in that order."""
        source = self.source
        return SelectStatement(
            select_items=tuple(
                SelectItem(fn(i.expression), i.alias)
                for i in self.select_items
            ),
            source=(
                FunctionSource(
                    source.name, tuple(map(fn, source.args)), source.alias
                )
                if isinstance(source, FunctionSource)
                else source
            ),
            joins=tuple(
                JoinClause(j.table, fn(j.condition)) for j in self.joins
            ),
            where=None if self.where is None else fn(self.where),
            group_by=tuple(map(fn, self.group_by)),
            order_by=tuple(
                OrderItem(fn(o.expression), o.descending)
                for o in self.order_by
            ),
            top=self.top,
            star=self.star,
            distinct=self.distinct,
        )

    @cached_property
    def output_scope(self) -> tuple[dict[str, str], dict[str, Expression]]:
        """The select list read both ways, lower-cased: (item SQL ->
        output name, output name -> item expression).  Built once per
        statement; :mod:`repro.core.rewrite` translates through it per
        ORDER BY key and per remainder hole."""
        items = [
            (item.output_name().lower(), item.expression)
            for item in self.select_items
        ]
        return (
            {expr.to_sql().lower(): name for name, expr in items},
            dict(items),
        )

    @cached_property
    def _parameter_names(self) -> tuple[str, ...]:
        # Walked once per statement: the AST is frozen, and a template
        # statement is bound once per query.
        return tuple(
            dict.fromkeys(
                node.name
                for expr in self.expressions()
                for node in expr.walk()
                if isinstance(node, Parameter)
            )
        )

    def parameter_names(self) -> list[str]:
        """All ``$name`` placeholders, in first-appearance order."""
        return list(self._parameter_names)

    def bind(self, values: dict[str, Any]) -> "SelectStatement":
        """Substitute literals for parameters, returning a new statement.

        Raises :class:`~repro.relational.errors.ExecutionError` when a
        placeholder has no value; extra values are ignored (a template
        info file may carry defaults for parameters a form omits).
        """
        require_parameters(self._parameter_names, values)
        return self.map_expressions(
            lambda expr: bind_expression(expr, values)
        )


def require_parameters(names: tuple[str, ...], values: Mapping[str, Any]) -> None:
    """Raise :class:`~repro.relational.errors.ExecutionError` naming
    every one of ``names`` that ``values`` has no value for."""
    missing = [name for name in names if name not in values]
    if missing:
        raise ExecutionError(
            f"missing template parameter(s): {', '.join(missing)}"
        )


def bind_expression(expr: Expression, values: dict[str, Any]) -> Expression:
    """Substitute literals for every :class:`Parameter` in ``expr``.

    A parameter is replaced where it is met; subtrees without one are
    shared with ``expr``, not copied.  A parameter without a value
    raises :class:`~repro.relational.errors.ExecutionError`.
    """
    if isinstance(expr, Parameter):
        if expr.name not in values:
            raise ExecutionError(f"missing template parameter ${expr.name}")
        return Literal(values[expr.name])
    return expr.map_children(lambda child: bind_expression(child, values))
