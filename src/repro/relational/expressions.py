"""Expression trees: literals, column references, operators, function calls.

These nodes serve two masters.  The SQL parser
(:mod:`repro.sqlparser.parser`) builds them while parsing WHERE clauses
and select lists, and the executor (:mod:`repro.relational.executor`)
evaluates them against row environments.  They also render back to SQL
text (:meth:`Expression.to_sql`), which the proxy's remainder-query
builder relies on.

Evaluation environment
----------------------
``evaluate(env)`` takes a mapping from *lower-cased* column names to
values.  Both qualified (``p.ra``) and unqualified (``ra``) spellings are
installed by the executor when unambiguous, mirroring SQL name
resolution.

NULL semantics
--------------
SQL three-valued logic is modelled with Python ``None``: comparisons with
``None`` yield ``None``; ``AND``/``OR`` propagate per Kleene logic; a
WHERE clause accepts a row only when the predicate evaluates to ``True``
(not ``None``).
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, replace
from typing import Any, Callable, ClassVar, Iterator, Mapping, Sequence

from repro.relational.errors import ExecutionError

Environment = Mapping[str, Any]


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

    def evaluate(self, env: Environment) -> Any:
        raise NotImplementedError

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


def _sql_literal(value: Any) -> str:
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

    def evaluate(self, env: Environment) -> Any:
        return self.value

    def to_sql(self) -> str:
        return _sql_literal(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to a column, optionally qualified (``alias.column``)."""

    name: str

    def evaluate(self, env: Environment) -> Any:
        key = self.name.lower()
        if key in env:
            return env[key]
        # An unqualified reference may resolve through a qualified key
        # when exactly one table provides the column.
        if "." not in key:
            matches = [k for k in env if k.endswith("." + key)]
            if len(matches) == 1:
                return env[matches[0]]
            if len(matches) > 1:
                raise ExecutionError(f"ambiguous column reference {self.name!r}")
        raise ExecutionError(f"unknown column {self.name!r}")

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


_ARITHMETIC: dict[BinaryOperator, Callable[[Any, Any], Any]] = {
    BinaryOperator.ADD: operator.add,
    BinaryOperator.SUB: operator.sub,
    BinaryOperator.MUL: operator.mul,
    BinaryOperator.DIV: operator.truediv,
}

_COMPARISON: dict[BinaryOperator, Callable[[Any, Any], bool]] = {
    BinaryOperator.EQ: lambda a, b: a == b,
    BinaryOperator.NE: lambda a, b: a != b,
    BinaryOperator.LT: lambda a, b: a < b,
    BinaryOperator.LE: lambda a, b: a <= b,
    BinaryOperator.GT: lambda a, b: a > b,
    BinaryOperator.GE: lambda a, b: a >= b,
}


@dataclass(frozen=True)
class BinaryOp(Expression):
    """An arithmetic or comparison operator application."""

    op: BinaryOperator
    left: Expression
    right: Expression

    def evaluate(self, env: Environment) -> Any:
        left = self.left.evaluate(env)
        right = self.right.evaluate(env)
        if left is None or right is None:
            return None
        try:
            if self.op in _ARITHMETIC:
                return _ARITHMETIC[self.op](left, right)
            return _COMPARISON[self.op](left, right)
        except ZeroDivisionError:
            raise ExecutionError(f"division by zero in {self.to_sql()}") from None
        except TypeError as exc:
            raise ExecutionError(f"type error in {self.to_sql()}: {exc}") from None

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op.value} {self.right.to_sql()})"


@dataclass(frozen=True)
class And(Expression):
    """N-ary conjunction with Kleene NULL propagation."""

    operands: tuple[Expression, ...]

    def evaluate(self, env: Environment) -> Any:
        saw_null = False
        for operand in self.operands:
            value = operand.evaluate(env)
            if value is False:
                return False
            if value is None:
                saw_null = True
        return None if saw_null else True

    def to_sql(self) -> str:
        return "(" + " AND ".join(op.to_sql() for op in self.operands) + ")"


@dataclass(frozen=True)
class Or(Expression):
    """N-ary disjunction with Kleene NULL propagation."""

    operands: tuple[Expression, ...]

    def evaluate(self, env: Environment) -> Any:
        saw_null = False
        for operand in self.operands:
            value = operand.evaluate(env)
            if value is True:
                return True
            if value is None:
                saw_null = True
        return None if saw_null else False

    def to_sql(self) -> str:
        return "(" + " OR ".join(op.to_sql() for op in self.operands) + ")"


@dataclass(frozen=True)
class Not(Expression):
    """Logical negation; NULL stays NULL."""

    operand: Expression

    def evaluate(self, env: Environment) -> Any:
        value = self.operand.evaluate(env)
        if value is None:
            return None
        return not value

    def to_sql(self) -> str:
        return f"(NOT {self.operand.to_sql()})"


@dataclass(frozen=True)
class Negate(Expression):
    """Unary minus."""

    operand: Expression

    def evaluate(self, env: Environment) -> Any:
        value = self.operand.evaluate(env)
        if value is None:
            return None
        return -value

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

    def evaluate(self, env: Environment) -> Any:
        value = self.operand.evaluate(env)
        low = self.low.evaluate(env)
        high = self.high.evaluate(env)
        if value is None or low is None or high is None:
            return None
        return low <= value <= high

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

    def evaluate(self, env: Environment) -> Any:
        is_null = self.operand.evaluate(env) is None
        return not is_null if self.negated else is_null

    def to_sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.to_sql()} {suffix})"


@dataclass(frozen=True)
class InList(Expression):
    """``expr IN (v1, v2, ...)``."""

    operand: Expression
    choices: tuple[Expression, ...]

    def evaluate(self, env: Environment) -> Any:
        value = self.operand.evaluate(env)
        if value is None:
            return None
        saw_null = False
        for choice in self.choices:
            candidate = choice.evaluate(env)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                return True
        return None if saw_null else False

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

    Resolution order: scalar builtins above, then the UDF registry that
    the executor installs in the environment under the reserved key
    ``"__functions__"``.  Table-valued calls never appear here — the
    parser routes them to the FROM clause.
    """

    name: str
    args: tuple[Expression, ...]

    def evaluate(self, env: Environment) -> Any:
        values = [arg.evaluate(env) for arg in self.args]
        if any(value is None for value in values):
            return None
        key = self.name.lower()
        if key in SCALAR_BUILTINS:
            try:
                return SCALAR_BUILTINS[key](*values)
            except (TypeError, ValueError) as exc:
                raise ExecutionError(
                    f"error in {self.to_sql()}: {exc}"
                ) from None
        functions = env.get("__functions__")
        if functions is not None and functions.has_scalar(self.name):
            return functions.call_scalar(self.name, values)
        raise ExecutionError(f"unknown scalar function {self.name!r}")

    def to_sql(self) -> str:
        inner = ", ".join(arg.to_sql() for arg in self.args)
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class CountStar(Expression):
    """``COUNT(*)``: the row count of a group.

    Only meaningful inside aggregation; evaluating it as a row
    expression is an error the executor reports before it can happen.
    """

    def evaluate(self, env: Environment) -> Any:
        raise ExecutionError("COUNT(*) outside an aggregate context")

    def to_sql(self) -> str:
        return "COUNT(*)"


def compile_expression(
    expr: Expression,
    leaf: Callable[[Expression], Callable[[Sequence[Any]], Any] | None],
) -> Callable[[Sequence[Any]], Any]:
    """``expr`` as a function of one tuple, evaluated without an
    environment: the interpreter's operators, builtins and NULL rule,
    applied to closures built once.

    ``leaf(node)`` compiles what only the caller knows how to read — a
    column's position, a parameter's slot — and returns None for every
    other node.  Any other node (a comparison, ``IS NULL``, ``IN``)
    is left to the interpreter, over its operands' compiled values.
    """
    compiled = leaf(expr)
    if compiled is not None:
        return compiled
    if isinstance(expr, Literal):
        return lambda values, value=expr.value: value
    operands = [compile_expression(child, leaf) for child in expr.children()]
    function: Callable[..., Any]
    if isinstance(expr, Negate):
        function = operator.neg
    elif isinstance(expr, BinaryOp) and expr.op in _ARITHMETIC:
        function = _ARITHMETIC[expr.op]
    elif isinstance(expr, FuncCall) and expr.name.lower() in SCALAR_BUILTINS:
        function = SCALAR_BUILTINS[expr.name.lower()]
    else:

        def interpret(values: Sequence[Any]) -> Any:
            args = iter([Literal(operand(values)) for operand in operands])
            return expr.map_children(lambda _: next(args)).evaluate({})

        return interpret
    if len(operands) == 1:
        (operand,) = operands
        return lambda values: (
            None if (value := operand(values)) is None else function(value)
        )
    if len(operands) == 2:
        left, right = operands

        def binary(values: Sequence[Any]) -> Any:
            a, b = left(values), right(values)
            return None if a is None or b is None else function(a, b)

        return binary

    def call(values: Sequence[Any]) -> Any:
        args = [operand(values) for operand in operands]
        return None if None in args else function(*args)

    return call


def conjoin(parts: Sequence[Expression]) -> Expression | None:
    """AND together ``parts``; None for empty, the sole part for one."""
    parts = [part for part in parts if part is not None]
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return And(tuple(parts))
