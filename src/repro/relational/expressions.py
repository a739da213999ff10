"""Expression trees: literals, column references, operators, function calls.

The SQL parser (:mod:`repro.sqlparser.parser`) builds these nodes for
WHERE clauses, select lists and template expressions; they render back
to SQL text (:meth:`Expression.to_sql`), which the proxy's remainder
builder relies on.  There is one way to evaluate one:
:func:`compile_expression` turns the tree into a function of a tuple
(or of a parameter mapping) once, and whoever compiles it says how a
column or a ``$``-parameter is read.  The executor compiles each clause
of a statement against its FROM bindings, local evaluation each query
template against its result columns, a function template its region
expressions against the call's parameters.

NULL semantics
--------------
SQL three-valued logic is modelled with Python ``None``: an operator or
function with a NULL operand yields ``None``; ``AND``/``OR`` follow
Kleene logic, left to right, stopping at the first operand that
decides; a WHERE clause accepts a row only when the predicate evaluates
to ``True`` (not ``None``).
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, replace
from typing import Any, Callable, ClassVar, Iterator, Sequence

from repro.relational.errors import ExecutionError

#: A compiled expression: the value for one row (or parameter mapping).
Compiled = Callable[[Any], Any]
#: How a caller reads the nodes only it can: a compiled reader or None.
Leaf = Callable[["Expression"], "Compiled | None"]


#: The two ways a field annotation marks a sub-expression slot, mapped
#: to "holds a tuple of them".  Annotations are read as source text:
#: the node modules postpone their evaluation.
_CHILD_ANNOTATIONS = {"Expression": False, "tuple[Expression, ...]": True}


@dataclass(frozen=True)
class Expression:
    """Base class for all expression nodes.

    The only code that knows which fields of a node hold
    sub-expressions lives here: every traversal goes through
    :meth:`children` / :meth:`walk`, every rebuild through
    :meth:`map_children`.
    """

    _child_slots: ClassVar[tuple[tuple[str, bool], ...]] = ()
    #: For a leaf the compiler cannot read by itself (a column, a
    #: parameter, ``COUNT(*)``): the error, formatted with the node,
    #: raised when it is reached without a caller's ``leaf``.
    unread: ClassVar[str | None] = None

    def __init_subclass__(cls) -> None:
        # Derived once per node class.  A field that mentions Expression
        # in any other form (optional, list) is a KeyError here, at
        # import, not a subtree some walk silently skips.
        cls._child_slots = tuple(
            (name, _CHILD_ANNOTATIONS[annotation])
            for name, annotation in cls.__dict__.get(
                "__annotations__", {}
            ).items()
            if "Expression" in annotation
        )

    def to_sql(self) -> str:
        raise NotImplementedError

    def children(self) -> tuple[Expression, ...]:
        """Direct sub-expressions, in field order."""
        found: list[Expression] = []
        for name, many in self._child_slots:
            if many:
                found.extend(getattr(self, name))
            else:
                found.append(getattr(self, name))
        return tuple(found)

    def walk(self) -> Iterator[Expression]:
        """Every node of the tree, this one first."""
        yield self
        for child in self.children():
            yield from child.walk()

    def map_children(
        self, fn: Callable[[Expression], Expression]
    ) -> Expression:
        """This node with ``fn`` applied to each child.

        ``self`` when no child changed, so a rebuild shares every
        subtree it did not touch instead of copying it.
        """
        changes: dict[str, Any] = {}
        for name, many in self._child_slots:
            old = getattr(self, name)
            new: Any = tuple(map(fn, old)) if many else fn(old)
            same = all(map(operator.is_, new, old)) if many else new is old
            if not same:
                changes[name] = new
        return replace(self, **changes) if changes else self

    def column_refs(self) -> set[str]:
        """All column names referenced anywhere in this expression."""
        return {
            node.name.lower()
            for node in self.walk()
            if isinstance(node, ColumnRef)
        }

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.to_sql()


def sql_literal(value: Any) -> str:
    """The SQL text of a constant: what ``Literal(value).to_sql()`` renders."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class Literal(Expression):
    """A constant: number, string, boolean, or NULL."""

    value: Any

    def to_sql(self) -> str:
        return sql_literal(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to a column, optionally qualified (``alias.column``)."""

    name: str
    unread = "unknown column {0.name!r}"

    def to_sql(self) -> str:
        return self.name


class BinaryOperator(enum.Enum):
    """Binary operators, with SQL spelling and evaluation rule."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


_OPERATORS: dict[BinaryOperator, Callable[[Any, Any], Any]] = {
    BinaryOperator.ADD: operator.add,
    BinaryOperator.SUB: operator.sub,
    BinaryOperator.MUL: operator.mul,
    BinaryOperator.DIV: operator.truediv,
    BinaryOperator.EQ: operator.eq,
    BinaryOperator.NE: operator.ne,
    BinaryOperator.LT: operator.lt,
    BinaryOperator.LE: operator.le,
    BinaryOperator.GT: operator.gt,
    BinaryOperator.GE: operator.ge,
}

#: What an operator or a builtin raises on operands it cannot take (a
#: string plus a number, ``1 / 0``, ``sqrt(-1)``, ``exp(1000.0)``):
#: the query's fault, reported as an :class:`ExecutionError` naming
#: the node, never a crash of whoever runs the query.
_OPERAND_ERRORS = (ArithmeticError, TypeError, ValueError)


@dataclass(frozen=True)
class BinaryOp(Expression):
    """An arithmetic or comparison operator application."""

    op: BinaryOperator
    left: Expression
    right: Expression

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op.value} {self.right.to_sql()})"


@dataclass(frozen=True)
class And(Expression):
    """N-ary conjunction with Kleene NULL propagation."""

    operands: tuple[Expression, ...]

    def to_sql(self) -> str:
        return "(" + " AND ".join(op.to_sql() for op in self.operands) + ")"


@dataclass(frozen=True)
class Or(Expression):
    """N-ary disjunction with Kleene NULL propagation."""

    operands: tuple[Expression, ...]

    def to_sql(self) -> str:
        return "(" + " OR ".join(op.to_sql() for op in self.operands) + ")"


@dataclass(frozen=True)
class Not(Expression):
    """Logical negation; NULL stays NULL."""

    operand: Expression

    def to_sql(self) -> str:
        return f"(NOT {self.operand.to_sql()})"


@dataclass(frozen=True)
class Negate(Expression):
    """Unary minus."""

    operand: Expression

    def to_sql(self) -> str:
        # The space keeps a negative literal operand from fusing into
        # the SQL line-comment token "--".
        return f"(- {self.operand.to_sql()})"


@dataclass(frozen=True)
class Between(Expression):
    """``expr BETWEEN low AND high`` (inclusive, per SQL)."""

    operand: Expression
    low: Expression
    high: Expression

    def to_sql(self) -> str:
        return (
            f"({self.operand.to_sql()} BETWEEN {self.low.to_sql()} "
            f"AND {self.high.to_sql()})"
        )


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def to_sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.to_sql()} {suffix})"


@dataclass(frozen=True)
class InList(Expression):
    """``expr IN (v1, v2, ...)``."""

    operand: Expression
    choices: tuple[Expression, ...]

    def to_sql(self) -> str:
        inner = ", ".join(choice.to_sql() for choice in self.choices)
        return f"({self.operand.to_sql()} IN ({inner}))"


# Scalar builtins available inside expressions.  The SkyServer templates
# use trigonometry to map (ra, dec) to unit-sphere coordinates; the
# "similar books" example uses ABS/SQRT.  All take and return floats.
SCALAR_BUILTINS: dict[str, Callable[..., float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "asin": math.asin,
    "acos": math.acos,
    "atan2": math.atan2,
    "sqrt": math.sqrt,
    "abs": abs,
    "radians": math.radians,
    "degrees": math.degrees,
    "power": math.pow,
    "floor": math.floor,
    "ceiling": math.ceil,
    "log": math.log,
    "exp": math.exp,
    # SQL Server spells variadic min/max LEAST/GREATEST; both spellings
    # are accepted.  Needed by polytope templates to express bounding
    # boxes over vertex parameters.
    "least": min,
    "greatest": max,
    "minvalue": min,
    "maxvalue": max,
    # Euclidean distance between two points given one after the other:
    # dist(x1, y1, z1, x2, y2, z2).  A function template's output rule
    # recomputes a function's distance column with it.
    "dist": lambda *xs: math.dist(xs[: len(xs) // 2], xs[len(xs) // 2 :]),
}


@dataclass(frozen=True)
class FuncCall(Expression):
    """A scalar function call.

    Resolution order: scalar builtins above, then the UDF registry the
    caller compiles with (:func:`compile_expression`).  Table-valued
    calls never appear here — the parser routes them to the FROM clause.
    """

    name: str
    args: tuple[Expression, ...]

    def to_sql(self) -> str:
        inner = ", ".join(arg.to_sql() for arg in self.args)
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class CountStar(Expression):
    """``COUNT(*)``: the row count of a group.

    Only meaningful inside aggregation, where the executor reads it as
    a hoisted per-group value; reached as a row expression, it is an
    error.
    """

    unread = "COUNT(*) outside an aggregate context"

    def to_sql(self) -> str:
        return "COUNT(*)"


def compile_expression(
    expr: Expression,
    leaf: Leaf | None = None,
    functions: Any = None,
) -> Compiled:
    """``expr`` as a function of one value — a tuple, a parameter
    mapping, whatever ``leaf`` reads — built once, so evaluating it
    builds no node and looks no name up.

    ``leaf(node)`` compiles what only the caller knows how to read — a
    column's position, a parameter's slot, an aggregate's hoisted value
    — and returns None for every other node.  A column, parameter or
    ``COUNT(*)`` no leaf reads raises its :attr:`Expression.unread`
    error when reached.  Scalar calls resolve to a builtin, else to a
    UDF of the ``functions`` registry, else to an ``unknown scalar
    function`` error raised when reached.
    """
    compiled = None if leaf is None else leaf(expr)
    if compiled is not None:
        return compiled
    if isinstance(expr, Literal):
        value = expr.value
        return lambda values: value
    if expr.unread is not None:
        message = expr.unread.format(expr)

        def unread(values: Any) -> Any:
            raise ExecutionError(message)

        return unread
    operands = [
        compile_expression(child, leaf, functions)
        for child in expr.children()
    ]
    # The most frequent node kinds first: compiling is per statement.
    if isinstance(expr, BinaryOp):
        return _strict(expr, _OPERATORS[expr.op], operands)
    if isinstance(expr, (And, Or)):
        decides = isinstance(expr, Or)  # OR stops at True, AND at False

        def junction(values: Any) -> Any:
            saw_null = False
            for operand in operands:
                value = operand(values)
                if value is decides:
                    return decides
                if value is None:
                    saw_null = True
            return None if saw_null else not decides

        return junction
    if isinstance(expr, (Not, IsNull)):
        (operand,) = operands
        if isinstance(expr, Not):
            return lambda values: (
                None if (value := operand(values)) is None else not value
            )
        if expr.negated:
            return lambda values: operand(values) is not None
        return lambda values: operand(values) is None
    if isinstance(expr, InList):
        subject, *choices = operands

        def member(values: Any) -> Any:
            value = subject(values)
            if value is None:
                return None
            saw_null = False
            for choice in choices:
                candidate = choice(values)
                if candidate is None:
                    saw_null = True
                elif candidate == value:
                    return True
            return None if saw_null else False

        return member
    if isinstance(expr, Between):
        return _strict(expr, lambda v, low, high: low <= v <= high, operands)
    if isinstance(expr, Negate):
        return _strict(expr, operator.neg, operands)
    assert isinstance(expr, FuncCall), expr
    name = expr.name
    if name.lower() in SCALAR_BUILTINS:
        return _strict(expr, SCALAR_BUILTINS[name.lower()], operands)
    # A UDF's own errors pass through: the registry raises engine errors.
    if functions is not None and functions.has_scalar(name):
        return _strict(
            expr, lambda *args: functions.call_scalar(name, args), operands, ()
        )

    def unknown(*args: Any) -> Any:
        raise ExecutionError(f"unknown scalar function {name!r}")

    return _strict(expr, unknown, operands, ())


def _strict(
    expr: Expression,
    function: Callable[..., Any],
    operands: list[Compiled],
    errors: tuple[type[Exception], ...] = _OPERAND_ERRORS,
) -> Compiled:
    """``function`` over the operands' values, NULL when any is NULL;
    its ``errors`` are reported as the query's, naming ``expr``."""
    if len(operands) == 1:
        (operand,) = operands

        def unary(values: Any) -> Any:
            value = operand(values)
            if value is None:
                return None
            try:
                return function(value)
            except errors as exc:
                raise _failure(expr, exc) from None

        return unary
    if len(operands) == 2:
        left, right = operands

        def binary(values: Any) -> Any:
            a, b = left(values), right(values)
            if a is None or b is None:
                return None
            try:
                return function(a, b)
            except errors as exc:
                raise _failure(expr, exc) from None

        return binary

    def call(values: Any) -> Any:
        args = [operand(values) for operand in operands]
        if None in args:
            return None
        try:
            return function(*args)
        except errors as exc:
            raise _failure(expr, exc) from None

    return call


def _failure(expr: Expression, exc: Exception) -> ExecutionError:
    sql = expr.to_sql()
    if isinstance(exc, ZeroDivisionError):
        return ExecutionError(f"division by zero in {sql}")
    if isinstance(exc, TypeError) and not isinstance(expr, FuncCall):
        return ExecutionError(f"type error in {sql}: {exc}")
    return ExecutionError(f"error in {sql}: {exc}")


def conjoin(parts: Sequence[Expression]) -> Expression | None:
    """AND together ``parts``; None for empty, the sole part for one."""
    parts = [part for part in parts if part is not None]
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return And(tuple(parts))
