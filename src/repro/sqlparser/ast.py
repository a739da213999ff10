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
from typing import Any

from repro.relational.errors import ExecutionError
from repro.relational.expressions import Expression, _sql_literal


@dataclass(frozen=True)
class Parameter(Expression):
    """A template placeholder ``$name``.

    Parameters appear only inside *templates*; binding
    (:meth:`SelectStatement.bind`) replaces them with literals before a
    statement reaches the executor.  Evaluating an unbound parameter is a
    programming error and raises immediately.
    """

    name: str

    def evaluate(self, env) -> Any:
        raise ExecutionError(f"unbound template parameter ${self.name}")

    def to_sql(self) -> str:
        return f"${self.name}"

    def _collect_refs(self, refs: set[str]) -> None:
        pass


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
    :class:`Parameter` nodes, in concrete queries they must evaluate
    without an environment (literals or arithmetic over literals).
    """

    name: str
    args: tuple[Expression, ...]
    alias: str | None = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.name

    def argument_values(self) -> list[Any]:
        """Evaluate the arguments as constants."""
        return [arg.evaluate({}) for arg in self.args]

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
    @cached_property
    def _parameter_names(self) -> tuple[str, ...]:
        # Walked once per statement: the AST is frozen, and a template
        # statement is bound once per query.
        names: list[str] = []
        self._walk_parameters(lambda p: names.append(p.name))
        return tuple(dict.fromkeys(names))

    def parameter_names(self) -> list[str]:
        """All ``$name`` placeholders, in first-appearance order."""
        return list(self._parameter_names)

    def _walk_parameters(self, visit) -> None:
        def walk_expr(expr: Expression) -> None:
            if isinstance(expr, Parameter):
                visit(expr)
                return
            for attr in vars(expr).values():
                if isinstance(attr, Expression):
                    walk_expr(attr)
                elif isinstance(attr, tuple):
                    for element in attr:
                        if isinstance(element, Expression):
                            walk_expr(element)

        for item in self.select_items:
            walk_expr(item.expression)
        if isinstance(self.source, FunctionSource):
            for arg in self.source.args:
                walk_expr(arg)
        for join in self.joins:
            walk_expr(join.condition)
        if self.where is not None:
            walk_expr(self.where)
        for expr in self.group_by:
            walk_expr(expr)
        for item in self.order_by:
            walk_expr(item.expression)

    def bind(self, values: dict[str, Any]) -> "SelectStatement":
        """Substitute literals for parameters, returning a new statement.

        Raises :class:`~repro.relational.errors.ExecutionError` when a
        placeholder has no value; extra values are ignored (a template
        info file may carry defaults for parameters a form omits).
        """
        missing = [n for n in self._parameter_names if n not in values]
        if missing:
            raise ExecutionError(
                f"missing template parameter(s): {', '.join(missing)}"
            )

        def rebuild(expr: Expression) -> Expression:
            return bind_expression(expr, values)

        source = self.source
        if isinstance(source, FunctionSource):
            source = FunctionSource(
                source.name,
                tuple(rebuild(a) for a in source.args),
                source.alias,
            )
        return SelectStatement(
            select_items=tuple(
                SelectItem(rebuild(i.expression), i.alias)
                for i in self.select_items
            ),
            source=source,
            joins=tuple(
                JoinClause(j.table, rebuild(j.condition)) for j in self.joins
            ),
            where=None if self.where is None else rebuild(self.where),
            order_by=tuple(
                OrderItem(rebuild(o.expression), o.descending)
                for o in self.order_by
            ),
            top=self.top,
            star=self.star,
            distinct=self.distinct,
            group_by=tuple(rebuild(g) for g in self.group_by),
        )


def bind_expression(expr: Expression, values: dict[str, Any]) -> Expression:
    """Substitute literals for every :class:`Parameter` in ``expr``.

    Shared by :meth:`SelectStatement.bind` and the function-template
    evaluator (center/radius/bound expressions are written over ``$``
    parameters, exactly like the query templates).  A parameter without
    a value raises :class:`~repro.relational.errors.ExecutionError`.
    """
    from repro.relational.expressions import Literal

    if isinstance(expr, Parameter):
        if expr.name not in values:
            raise ExecutionError(f"missing template parameter ${expr.name}")
        return Literal(values[expr.name])
    changes = {}
    for name, attr in vars(expr).items():
        if isinstance(attr, Expression):
            changes[name] = bind_expression(attr, values)
        elif isinstance(attr, tuple) and any(
            isinstance(element, Expression) for element in attr
        ):
            changes[name] = tuple(
                bind_expression(element, values)
                if isinstance(element, Expression)
                else element
                for element in attr
            )
    if not changes:
        return expr
    fields = dict(vars(expr))
    fields.update(changes)
    return type(expr)(**fields)


def sql_literal(value: Any) -> str:
    """Render a Python value as a SQL literal (shared with templates)."""
    return _sql_literal(value)
