"""Function-embedded query templates (paper Figure 2).

A query template is parameterized SQL whose FROM clause calls a
table-valued function; the parameters come from an HTML search form.
The template pins down everything the proxy must know to do active
caching:

* which function template gives the call its region semantics,
* the result key column used to deduplicate merged results,
* the select list, optional join, optional "other predicates", and an
  optional TOP-N — the complete shape of the paper's common query class.

Registration (:meth:`TemplateManager.register_query_template
<repro.templates.manager.TemplateManager.register_query_template>`)
checks the four properties of Section 3.1 as far as they are checkable
statically, in one pass of :mod:`repro.analysis`:

1. *Determinism* — the embedded function (and any scalar functions in
   the WHERE clause) must be registered as deterministic; decided when
   the manager holds the site's function registry.
2. *Spatial region selection semantics* — the FROM source must be a
   call to the declared function template, with matching arity.
3. *Semantics-preserving join* — every join must be an equi-join
   between a function output column and the joined table (tuple
   filtering / attribute expansion only, never tuple creation).  The
   paper's Radial form join on ``objID`` is the model.
4. *Result attribute availability* — every attribute the function
   template's point expressions read must appear in the select list, so
   cached tuples can be re-evaluated spatially.

:meth:`QueryTemplate.from_sql` only parses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Mapping

from repro.geometry.regions import Region
from repro.relational.expressions import compile_expression, sql_literal
from repro.relational.types import is_finite
from repro.sqlparser.ast import (
    FunctionSource,
    SelectStatement,
    parameter_slot,
    require_parameters,
)
from repro.sqlparser.parser import parse_select
from repro.templates.errors import TemplateError
from repro.templates.function_template import FunctionTemplate


@dataclass(frozen=True)
class QueryTemplate:
    """A registered function-embedded query template."""

    template_id: str
    sql: str
    statement: SelectStatement
    function_template: FunctionTemplate
    key_column: str
    description: str = ""

    @staticmethod
    def from_sql(
        template_id: str,
        sql: str,
        function_template: FunctionTemplate,
        key_column: str,
        description: str = "",
    ) -> "QueryTemplate":
        """Parse a query template; registration checks it."""
        try:
            statement = parse_select(sql)
        except Exception as exc:
            raise TemplateError(
                f"template {template_id!r}: cannot parse SQL: {exc}"
            ) from exc
        return QueryTemplate(
            template_id=template_id,
            sql=sql,
            statement=statement,
            function_template=function_template,
            key_column=key_column,
            description=description,
        )

    # ----------------------------------------------------------- binding
    @property
    def parameter_names(self) -> list[str]:
        return self.statement.parameter_names()

    @cached_property
    def binder(self) -> "Binder":
        """This template compiled for binding, on first use."""
        return Binder(self)


#: A ``$``-parameter of rendered SQL, or a string literal (matched whole
#: so a ``$`` inside one is not taken for a parameter).
_SLOT = re.compile(r"'(?:[^']|'')*'|\$(\w+)")


def _renderer(sql: str) -> Callable[[Mapping[str, Any]], str]:
    """``sql`` with each ``$``-parameter replaced by its value's literal.

    The text is split once, here, into a format string with one field
    per parameter; rendering fills the fields with ``sql_literal``, the
    text each bound :class:`Literal` renders, so the result is what the
    bound tree's ``to_sql()`` gives, byte for byte.
    """
    names: list[str] = []

    def field(match: re.Match) -> str:
        if match.group(1) is None:  # a string literal
            return match.group(0)
        names.append(match.group(1))
        return f"{{{len(names) - 1}}}"

    text = _SLOT.sub(field, sql.replace("{", "{{").replace("}", "}}"))

    def render(params: Mapping[str, Any]) -> str:
        return text.format(*[sql_literal(params[name]) for name in names])

    return render


class Binder:
    """A query template compiled once, applied per query.

    Applied to parameter values it yields what the proxy reasons with —
    the function call's arguments by the function template's parameter
    names, and the region they select — without building a statement.
    The template's WHERE text is pre-split for rendering the residual
    signature (:attr:`signature`); no serve path builds the bound
    statement (``BoundQuery.statement``).
    """

    def __init__(self, template: QueryTemplate) -> None:
        statement = template.statement
        source = statement.source
        args = source.args if isinstance(source, FunctionSource) else ()
        self.names = tuple(statement.parameter_names())
        self.function_template = template.function_template
        self.arguments = [
            (name, compile_expression(arg, parameter_slot))
            for name, arg in zip(self.function_template.params, args)
        ]
        where = statement.where
        self.signature = _renderer("" if where is None else where.to_sql())
        self.template_id = template.template_id

    def __call__(
        self, params: Mapping[str, Any]
    ) -> tuple[dict[str, Any], Region]:
        """``(function parameters, region)`` for one query's values.

        Refuses what the template cannot bind: a missing parameter
        (``ExecutionError``, as binding the statement would), a
        region its function template refuses, and a number that is not
        finite in any parameter (:class:`TemplateError`) — such a value
        renders a residual signature that does not parse back (``inf``
        reads as a column).
        """
        if not all(map(params.__contains__, self.names)):
            require_parameters(self.names, params)  # raises, naming them
        function_params = {
            name: argument(params) for name, argument in self.arguments
        }
        region = self.function_template.region_for(function_params)
        for name in self.names:
            value = params[name]
            if isinstance(value, (int, float)) and not is_finite(value):
                raise TemplateError(
                    f"{self.template_id}: ${name}={value!r} is not a "
                    "finite number"
                )
        return function_params, region
