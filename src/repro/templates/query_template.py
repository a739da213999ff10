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

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Mapping

from repro.geometry.regions import Region
from repro.sqlparser.ast import SelectStatement
from repro.sqlparser.parser import parse_select
from repro.templates.binding import compile_binder
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
    def binder(
        self,
    ) -> Callable[[Mapping[str, Any]], tuple[dict[str, Any], Region, str]]:
        """This template's binding as generated code
        (:func:`~repro.templates.binding.compile_binder`), compiled
        when the template is registered: for one query's parameter
        values, ``(function parameters, region, signature)``.

        Refuses what the template cannot bind: a missing parameter
        (``ExecutionError``, as binding the statement would), a region
        its function template refuses, and a number that is not finite
        in any parameter (:class:`TemplateError`) — such a value
        renders a residual signature that does not parse back (``inf``
        reads as a column).
        """
        return compile_binder(self)
