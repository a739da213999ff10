"""Function-embedded query templates (paper Figure 2).

A query template is parameterized SQL whose FROM clause calls a
table-valued function; the parameters come from an HTML search form.
The template pins down everything the proxy must know to do active
caching:

* which function template gives the call its region semantics,
* the result key column used to deduplicate merged results,
* the select list, optional join, optional "other predicates", and an
  optional TOP-N — the complete shape of the paper's common query class.

``validate`` enforces the four properties of Section 3.1 as far as they
are checkable statically:

1. *Determinism* — the embedded function (and any scalar functions in
   the WHERE clause) must be registered as deterministic.
2. *Spatial region selection semantics* — the FROM source must be a
   call to the declared function template, with matching arity.
3. *Semantics-preserving join* — every join must be an equi-join
   between a function output column and the joined table (tuple
   filtering / attribute expansion only, never tuple creation).  The
   paper's Radial form join on ``objID`` is the model.
4. *Result attribute availability* — every attribute the function
   template's point expressions read must appear in the select list, so
   cached tuples can be re-evaluated spatially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.relational.expressions import BinaryOp, BinaryOperator, ColumnRef
from repro.sqlparser.ast import FunctionSource, SelectStatement
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
        checked: bool = True,
    ) -> "QueryTemplate":
        """Parse and (by default) statically check a query template.

        ``checked=False`` skips the property checks so a questionable
        template can still be *constructed* — registration with a
        :class:`~repro.templates.manager.TemplateManager` then decides
        its fate per the manager's analysis mode (strict mode rejects,
        permissive mode admits it degraded to pass-through).
        """
        try:
            statement = parse_select(sql)
        except Exception as exc:
            raise TemplateError(
                f"template {template_id!r}: cannot parse SQL: {exc}"
            ) from exc
        template = QueryTemplate(
            template_id=template_id,
            sql=sql,
            statement=statement,
            function_template=function_template,
            key_column=key_column,
            description=description,
        )
        if checked:
            template._check_structure()
        return template

    # -------------------------------------------------------- validation
    def _check_structure(self) -> None:
        """Run the analyzer's property passes; raise on any error.

        The static checks (paper properties 2–4) are owned by
        :mod:`repro.analysis`; this method is the fail-fast façade the
        constructor and the strict-mode manager share.  Imported lazily
        because the analyzer inspects template types from this module.
        """
        from repro.analysis.analyzer import analyze_query_template
        from repro.templates.errors import TemplateAnalysisError

        report = analyze_query_template(self)
        if report.has_errors:
            raise TemplateAnalysisError(self.template_id, report)

    @staticmethod
    def _is_semantics_preserving_join(condition) -> bool:
        return (
            isinstance(condition, BinaryOp)
            and condition.op is BinaryOperator.EQ
            and isinstance(condition.left, ColumnRef)
            and isinstance(condition.right, ColumnRef)
        )

    def validate(self, registry) -> None:
        """Check determinism against a function registry (property 1)."""
        source = self.statement.source
        if not registry.has_table(source.name):
            raise TemplateError(
                f"template {self.template_id!r}: function {source.name!r} "
                "is not registered at the origin"
            )
        if not registry.is_deterministic(source.name):
            raise TemplateError(
                f"template {self.template_id!r}: function {source.name!r} "
                "is non-deterministic and cannot be actively cached "
                "(paper property 1)"
            )

    # ----------------------------------------------------------- binding
    @property
    def parameter_names(self) -> list[str]:
        return self.statement.parameter_names()

    def bind_statement(self, params: Mapping[str, Any]) -> SelectStatement:
        return self.statement.bind(dict(params))

    def function_params(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Values of the *function template's* parameters for a binding."""
        return self.function_params_of(self.bind_statement(params))

    def function_params_of(self, bound: SelectStatement) -> dict[str, Any]:
        """The same values, read off an already-bound statement.

        The query template's function call arguments are expressions
        over the query parameters; evaluating each bound argument gives
        the positional function arguments, which are zipped with the
        function template's declared parameter names.
        """
        source = bound.source
        assert isinstance(source, FunctionSource)
        return dict(
            zip(self.function_template.params, source.argument_values())
        )

    def region_for(self, params: Mapping[str, Any]):
        """The spatial region a concrete binding selects."""
        return self.region_of(self.bind_statement(params))

    def region_of(self, bound: SelectStatement):
        """The region an already-bound statement selects (no re-bind)."""
        return self.function_template.region_for(
            self.function_params_of(bound)
        )
