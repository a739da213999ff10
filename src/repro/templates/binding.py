"""Binding as generated code.

A template's binding — the function call's arguments, the region they
select and the residual predicate's signature — is compiled once into
Python functions of straight-line code, one per template: each
expression tree becomes one Python expression over local variables,
the way Grust & Ulrich's query defunctionalization turns closures into
first-order code the engine runs directly.  A binding walks no closure
frame and builds no expression node.

The generated code keeps :func:`~repro.relational.expressions.compile_expression`'s
semantics exactly: the same ``SCALAR_BUILTINS`` and operators, NULL
propagation (every operand is evaluated, then tested for NULL),
junctions that stop at the operand that decides them, and the
binding's checks in their order — missing parameters, domains, then
per region expression a number and a finite one, a non-negative
radius, finite query parameters.  A query template's binder calls its
function template's generated :attr:`~FunctionTemplate.region_for`.
When an expression raises, the closures :func:`compile_expression`
built for it run on the same values, only to re-derive the error's
exact text.
"""

from __future__ import annotations

import itertools
import re
import sys
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.geometry import regions
from repro.relational import expressions as ex
from repro.relational.errors import ExecutionError
from repro.relational.types import is_finite
from repro.sqlparser.ast import FunctionSource, Parameter, parameter_slot
from repro.sqlparser.ast import require_parameters
from repro.templates.errors import TemplateError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.templates.function_template import FunctionTemplate
    from repro.templates.query_template import QueryTemplate

#: A ``$``-parameter of the WHERE text, or a string literal (matched
#: whole so a ``$`` inside one is not taken for a parameter).
_SLOT = re.compile(r"'(?:[^']|'')*'|\$(\w+)")
_PYTHON = {"=": "==", "<>": "!="}  # the SQL spellings Python spells apart


def _finite(local: str) -> str:
    """A finite float, as source whose bounds read back exactly."""
    bound = sys.float_info.max
    return f"(type({local}) is float and -{bound!r} <= {local} <= {bound!r})"


# What the generated code calls to refuse a call, each with the text
# the binding has always refused it with.
def _fail(*args: Any) -> Any:
    """An unreadable leaf or an unknown function: the closures say which."""
    raise ExecutionError("unreadable expression")


def _missing(name: str, params: tuple[str, ...], values: Mapping) -> None:
    absent = ", ".join(param for param in params if param not in values)
    raise TemplateError(f"{name}: missing parameter(s) {absent}")


def _outside(domain: tuple[str, str, float, float], value: Any) -> None:
    # Only a finite number is judged here; anything else is refused,
    # with its own message, when it is evaluated.
    name, param, low, high = domain
    if isinstance(value, (int, float)) and is_finite(value):
        if not low <= value <= high:
            raise TemplateError(
                f"{name}: ${param}={value!r} is outside [{low}, {high}]"
            )


def _cannot_evaluate(sql: str, closure: Callable, values: Mapping) -> None:
    try:
        closure(values)
    except ExecutionError as exc:
        raise TemplateError(f"cannot evaluate {sql}: {exc}") from exc


def _number(sql: str, value: Any) -> float:
    """A region expression's value, refused unless a finite number."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TemplateError(
            f"template expression {sql} produced {value!r}, expected a number"
        )
    if not is_finite(value):
        raise TemplateError(
            f"template expression {sql} produced {value!r}, "
            "expected a finite number"
        )
    return float(value)


def _negative(name: str, radius: float) -> None:
    raise TemplateError(f"{name}: negative radius {radius}")


def _not_finite(name: tuple[str, str], value: Any) -> None:
    # Such a value renders a signature that does not parse back (``inf``
    # reads as a column).
    if isinstance(value, (int, float)) and not is_finite(value):
        raise TemplateError(
            f"{name[0]}: ${name[1]}={value!r} is not a finite number"
        )


#: What every generated function may name.
_NAMES: dict[str, Any] = {
    **ex.SCALAR_BUILTINS,
    **{name: globals()[name] for name in (
        "_fail", "_missing", "_outside", "_cannot_evaluate", "_number",
        "_negative", "_not_finite")},
    **{shape: getattr(regions, shape) for shape in (
        "HyperSphere", "HyperRect", "Halfspace", "ConvexPolytope")},
    "_between": lambda value, low, high: low <= value <= high,
    "sql_literal": ex.sql_literal,
    "require_parameters": require_parameters,
}


class _Function:
    """One generated function, ``bind(params)``: its source lines and
    the objects they name."""

    def __init__(self, owner: str) -> None:
        self.owner = owner  # the template it binds, named in a refusal
        self.lines = ["def bind(params):"]
        self.names = dict(_NAMES)
        #: ``$name`` -> the local holding its value.
        self.reads: dict[str, str] = {}
        self._temps = itertools.count()

    def emit(self, *lines: str) -> None:
        self.lines.extend("    " + line for line in lines)

    def name(self, value: Any) -> str:
        key = f"k{len(self.names)}"
        self.names[key] = value
        return key

    def read(self, prefix: str, params: Any, source: str, missing: str) -> None:
        """A local per parameter from the mapping ``source``; when one
        is missing, ``missing`` refuses the call."""
        self.reads = {
            param: f"{prefix}{index}" for index, param in enumerate(params)
        }
        self.emit("try:", *(
            f"    {local} = {source}[{param!r}]"
            for param, local in self.reads.items()
        ), "    pass", "except KeyError:", f"    {missing}")

    def evaluate(self, local: str, expr: ex.Expression, replay: str) -> None:
        """``local = expr``; when it raises, ``replay`` raises what the
        closures raise."""
        self.emit("try:", f"    {local} = {self.expression(expr)}",
                  "except Exception:", f"    {replay}", "    raise")

    def expression(self, expr: ex.Expression) -> str:
        """``expr`` as Python source, NULL wherever the closures give
        NULL: each operand is evaluated into a temporary, then tested."""
        if isinstance(expr, ex.Literal):
            return self.name(expr.value)
        if isinstance(expr, Parameter) and expr.name in self.reads:
            return self.reads[expr.name]
        if expr.unread is not None:  # a column, COUNT(*), a stray $name
            return "_fail()"
        codes = [self.expression(child) for child in expr.children()]
        temps = [f"t{next(self._temps)}" for _ in codes]
        bound = [f"({t} := {code})" for t, code in zip(temps, codes)]
        if isinstance(expr, ex.IsNull):
            return f"({codes[0]} is {'not ' * expr.negated}None)"
        if isinstance(expr, (ex.And, ex.Or)):
            decides = isinstance(expr, ex.Or)  # OR stops at True, AND at False
            chain = "".join(f"{decides} if {b} is {decides} else " for b in bound)
            return f"({chain}None if {_any_null(temps)} else {not decides})"
        if isinstance(expr, ex.InList):
            chain = "".join(f"True if {b} == {temps[0]} else " for b in bound[1:])
            return (f"(None if {bound[0]} is None else {chain}"
                    f"None if {_any_null(temps[1:])} else False)")
        if isinstance(expr, ex.Not):
            return f"(None if {bound[0]} is None else not {temps[0]})"
        if isinstance(expr, ex.BinaryOp):
            op = _PYTHON.get(expr.op.value, expr.op.value)
            code = f"{temps[0]} {op} {temps[1]}"
        elif isinstance(expr, ex.Negate):
            code = f"-{temps[0]}"
        else:
            assert isinstance(expr, (ex.Between, ex.FuncCall)), expr
            function = "_between" if isinstance(expr, ex.Between) else (
                expr.name.lower() if expr.name.lower() in ex.SCALAR_BUILTINS
                else "_fail")
            code = f"{function}({', '.join(temps)})"
        # Every operand is evaluated (``|`` does not stop), then tested.
        tested = " | ".join(f"({b} is None)" for b in bound)
        return f"(None if {tested} else {code})" if tested else f"({code})"

    def compile(self) -> Callable[..., Any]:
        namespace = dict(self.names)
        try:
            exec("\n".join(self.lines), namespace)  # noqa: S102 - generated here
        except (SyntaxError, RecursionError, MemoryError) as exc:
            raise TemplateError(
                f"{self.owner}: an expression is nested too deeply to bind "
                f"({exc})"
            ) from exc
        return namespace["bind"]


def _any_null(temps: list[str]) -> str:
    return " or ".join(f"{temp} is None" for temp in temps) or "False"


def compile_region(function: "FunctionTemplate") -> Callable[..., Any]:
    """:attr:`FunctionTemplate.region_for`: the parameters read, the
    domains checked, each region expression evaluated and checked in
    declared order, then the shape built."""
    name, dims = function.name, function.dims
    body = _Function(name)
    body.read("f", function.params, "params",
              f"_missing(*{body.name((name, function.params))}, params)")
    for param, low, high in function.domains:
        local = body.reads[param]
        inside = f"{body.name(low)} <= {local} <= {body.name(high)}"
        body.emit(f"if not (type({local}) is float and {inside}):",
                  f"    _outside({body.name((name, param, low, high))}, {local})")
    values = [f"v{index}" for index in range(len(function.region_exprs))]
    for value, expr in zip(values, function.region_exprs):
        sql = body.name(expr.to_sql())
        closure = body.name(ex.compile_expression(expr, function._parameter))
        body.evaluate(value, expr, f"_cannot_evaluate({sql}, {closure}, params)")
        body.emit(f"if not {_finite(value)}:",
                  f"    {value} = _number({sql}, {value})")
    low, high = ", ".join(values[:dims]), ", ".join(values[dims:2 * dims])
    if function.shape.value == "hypersphere":
        radius = values[dims]
        body.emit(f"if {radius} < 0:",
                  f"    _negative({body.name(name)}, {radius})",
                  f"return HyperSphere(({low},), {radius})")
        return body.compile()
    body.emit(f"region = HyperRect(({low},), ({high},))")
    if function.shape.value == "polytope":
        faces = [
            f"Halfspace(({', '.join(values[at:at + dims])},), {values[at + dims]})"
            for at in range(2 * dims, len(values), dims + 1)
        ]
        body.emit(f"region = ConvexPolytope(({', '.join(faces)},), region)")
    body.emit("return region")
    return body.compile()


def compile_binder(query: "QueryTemplate") -> Callable[..., Any]:
    """``query.binder``: for one query's parameter values, ``(function
    parameters, region, signature)``; the signature is the WHERE text
    with each ``$``-parameter rendered as its value's literal, byte for
    byte what the bound tree's ``to_sql()`` gives."""
    statement, function = query.statement, query.function_template
    names = tuple(statement.parameter_names())
    source = statement.source
    args = source.args if isinstance(source, FunctionSource) else ()
    arguments = list(zip(function.params, args))
    where = "" if statement.where is None else statement.where.to_sql()
    slots: list[str] = []

    def slot(match: re.Match) -> str:
        if match.group(1) is None:  # a string literal
            return match.group(0)
        slots.append(match.group(1))
        return f"{{{len(slots) - 1}}}"

    text = _SLOT.sub(slot, where.replace("{", "{{").replace("}", "}}"))

    body = _Function(query.template_id)
    body.read("q", names, "params",
              f"require_parameters({body.name(names)}, params)")
    for index, (_, arg) in enumerate(arguments):
        closure = body.name(ex.compile_expression(arg, parameter_slot))
        body.evaluate(f"f{index}", arg, f"{closure}(params)")
    entries = (f"{param!r}: f{index}"
               for index, (param, _) in enumerate(arguments))
    body.emit(f"fp = {{{', '.join(entries)}}}",
              f"region = {body.name(function.region_for)}(fp)")
    for name, local in body.reads.items():
        check = body.name((query.template_id, name))
        body.emit(f"if not {_finite(local)}:",
                  f"    _not_finite({check}, {local})")
    rendered = ", ".join(
        f"(repr({local}) if type({local}) is float else sql_literal({local}))"
        for local in (body.reads[name] for name in slots)
    )
    body.emit(f"return fp, region, {body.name(text)}.format({rendered})")
    return body.compile()
