"""The domain analysis passes.

Each pass inspects one registered artifact — a function template, a
query template, or an info file — and emits :class:`Diagnostic` objects
into a shared :class:`PassContext`.  Passes never raise on bad input:
the point of the analyzer is to report *all* problems of an artifact at
once.

What is wrong with a template document's XML (FP101–FP106) is not
found here.  Each layout has one reader, beside its writer in
:mod:`repro.templates`; it reports every problem of a document to the
sink it is given, here :meth:`PassContext.emit_at`.  ``from_xml`` is
the same reader with a sink that raises, so the loader refuses exactly
the documents in which the linter finds a structural error.

The pipeline entry points live in :mod:`repro.analysis.analyzer`; this
module holds the individual checks and the expression-walking helpers
they share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.analysis.codes import severity_of
from repro.analysis.diagnostics import (
    AnalysisReport,
    Diagnostic,
    Severity,
    SourceSpan,
    span_at,
    span_of,
)
from repro.relational.expressions import (
    SCALAR_BUILTINS,
    ColumnRef,
    Expression,
    FuncCall,
)
from repro.sqlparser.ast import FunctionSource, Parameter
from repro.templates.document import Anchor
from repro.templates.function_template import FunctionTemplate
from repro.templates.info_file import TemplateInfoFile
from repro.templates.query_template import QueryTemplate
from repro.udf.registry import TableFunction


class FunctionCatalog(Protocol):
    """What determinism checks need from a UDF registry."""

    def has_scalar(self, name: str) -> bool: ...

    def has_table(self, name: str) -> bool: ...

    def is_deterministic(self, name: str) -> bool: ...


@dataclass
class PassContext:
    """Shared state of one analysis run over one artifact.

    ``text``/``source`` anchor spans when the artifact has a textual
    form at hand (template XML, query SQL); passes that find nothing to
    anchor emit span-less diagnostics.
    """

    subject: str
    text: str = ""
    source: str = ""
    registry: FunctionCatalog | None = None
    report: AnalysisReport = field(default_factory=AnalysisReport)

    def emit(
        self,
        code: str,
        message: str,
        span: SourceSpan | None = None,
        hint: str = "",
        severity: Severity | None = None,
    ) -> None:
        self.report.add(
            Diagnostic(
                code=code,
                severity=severity if severity is not None else severity_of(
                    code
                ),
                message=message,
                subject=self.subject,
                span=span,
                hint=hint,
            )
        )

    def span(self, needle: str) -> SourceSpan | None:
        """Best-effort span of ``needle`` in the artifact's text."""
        if not self.text:
            return None
        return span_of(self.text, needle, self.source or self.subject)

    def emit_at(
        self, code: str, message: str, anchor: Anchor, hint: str
    ) -> None:
        """The sink a template-document reader reports to
        (:mod:`repro.templates.document`): ``anchor`` is a snippet of
        the text or the character offset of a syntax error."""
        if isinstance(anchor, int):
            span = span_at(
                self.text, anchor, anchor + 1, self.source or self.subject
            )
        else:
            span = self.span(anchor) if anchor else None
        self.emit(code, message, span=span, hint=hint)


# ------------------------------------------------------------------ walking
def parameter_refs(expr: Expression) -> set[str]:
    """All ``$``-parameter names referenced by ``expr``."""
    return {
        node.name for node in expr.walk() if isinstance(node, Parameter)
    }


def function_calls(expr: Expression) -> list[FuncCall]:
    """All scalar function calls inside ``expr``."""
    return [node for node in expr.walk() if isinstance(node, FuncCall)]


# ------------------------------------------- function template (semantics)
def check_region_parameter_binding(
    template: FunctionTemplate, ctx: PassContext
) -> None:
    """FP107 / FP108: region expressions vs. declared parameters."""
    declared = set(template.params)
    referenced: set[str] = set()
    for expr in template.region_exprs:
        referenced |= parameter_refs(expr)
    for name in sorted(referenced - declared):
        ctx.emit(
            "FP107",
            f"region expression references ${name}, which is not a "
            f"declared parameter of {template.name}",
            span=ctx.span(f"${name}"),
            hint=f"add {name!r} to the template's <Params>",
        )
    for name in sorted(declared - referenced):
        ctx.emit(
            "FP108",
            f"parameter {name!r} is declared but no region expression "
            "uses it; every binding of it selects the same region",
            span=ctx.span(name),
            hint="drop the parameter or use it in a region expression",
        )


def check_point_expressions(
    template: FunctionTemplate, ctx: PassContext
) -> None:
    """FP109: point expressions range over result attributes only."""
    for expr in template.point_exprs:
        for name in sorted(parameter_refs(expr)):
            ctx.emit(
                "FP109",
                f"point expression {expr.to_sql()} references ${name}; "
                "point expressions must be computable from a result "
                "tuple alone (paper property 4)",
                span=ctx.span(f"${name}"),
                hint="rewrite the point expression over result columns",
            )


def check_expression_determinism(
    template: FunctionTemplate, ctx: PassContext
) -> None:
    """FP110 / FP111: scalar calls in template expressions.

    Builtins (:data:`SCALAR_BUILTINS`) are all deterministic; a
    registered UDF is checked against its declared determinism flag;
    an unknown function is flagged as a warning — it would fail at
    evaluation time anyway, but the analyzer says so up front.
    """
    exprs = [*template.region_exprs, *template.point_exprs]
    exprs += [expr for _, expr in template.outputs]
    seen: set[str] = set()
    for expr in exprs:
        for call in function_calls(expr):
            key = call.name.lower()
            if key in seen or key in SCALAR_BUILTINS:
                continue
            seen.add(key)
            registry = ctx.registry
            if registry is not None and registry.has_scalar(call.name):
                if not registry.is_deterministic(call.name):
                    ctx.emit(
                        "FP110",
                        f"template expression calls {call.name}, which is "
                        "registered as non-deterministic "
                        "(paper property 1)",
                        span=ctx.span(call.name),
                        hint="region expressions must be deterministic",
                    )
            else:
                ctx.emit(
                    "FP111",
                    f"template expression calls unknown scalar function "
                    f"{call.name}; determinism cannot be verified",
                    span=ctx.span(call.name),
                    hint="register the function or use a builtin",
                )


FUNCTION_TEMPLATE_PASSES = (
    check_region_parameter_binding,
    check_point_expressions,
    check_expression_determinism,
)


# --------------------------------------------------------- query templates
def _select_list_span(ctx: PassContext) -> SourceSpan | None:
    """The span of the select list in the template's SQL text."""
    if not ctx.text:
        return None
    lowered = ctx.text.lower()
    start = lowered.find("select")
    stop = lowered.find(" from ")
    if start < 0 or stop < 0 or stop <= start:
        return None
    return span_at(
        ctx.text, start, stop, ctx.source or ctx.subject
    )


def check_from_clause(template: QueryTemplate, ctx: PassContext) -> bool:
    """FP202 / FP203 / FP204: the spatial-region-selection property.

    Returns False when the FROM clause is not even a function call, in
    which case the downstream passes have nothing to inspect.
    """
    source = template.statement.source
    if not isinstance(source, FunctionSource):
        ctx.emit(
            "FP202",
            "FROM must call a table-valued function "
            "(spatial region selection semantics, paper property 2)",
            span=ctx.span(source.to_sql()),
            hint="the FROM clause must be fTemplate($params...)",
        )
        return False
    declared = template.function_template
    if source.name.lower() != declared.name.lower():
        ctx.emit(
            "FP203",
            f"FROM calls {source.name!r} but the function template is "
            f"for {declared.name!r}",
            span=ctx.span(source.name),
        )
    if len(source.args) != len(declared.params):
        ctx.emit(
            "FP204",
            f"{source.name} takes {len(declared.params)} arguments, "
            f"the template passes {len(source.args)}",
            span=ctx.span(source.name),
        )
    return True


def check_joins(template: QueryTemplate, ctx: PassContext) -> None:
    """FP205: semantics-preserving joins (paper property 3)."""
    for join in template.statement.joins:
        if not QueryTemplate._is_semantics_preserving_join(join.condition):
            ctx.emit(
                "FP205",
                f"join ON {join.condition.to_sql()} is not a plain "
                "equi-join (semantics-preserving join, paper property 3)",
                span=ctx.span("JOIN"),
                hint="joins may only filter or expand tuples via "
                "column = column",
            )


def check_select_list(template: QueryTemplate, ctx: PassContext) -> None:
    """FP206 / FP207: result attribute availability (paper property 4)."""
    statement = template.statement
    if statement.star:
        return
    available = {name.lower() for name in statement.output_names}
    needed = {
        name.split(".")[-1]
        for name in template.function_template.point_attribute_names()
    }
    missing = sorted(needed - available)
    if missing:
        ctx.emit(
            "FP206",
            f"point attribute(s) {', '.join(missing)} not in the select "
            "list (result attribute availability, paper property 4)",
            span=_select_list_span(ctx),
            hint="select every column the point expressions read, so "
            "cached tuples can be re-evaluated spatially",
        )
    if template.key_column.lower() not in available:
        ctx.emit(
            "FP207",
            f"key column {template.key_column!r} not in the select list",
            span=_select_list_span(ctx),
            hint="the key column deduplicates merged results",
        )


def check_top(template: QueryTemplate, ctx: PassContext) -> None:
    """FP208: TOP-N templates produce truncated region answers."""
    if template.statement.top is not None:
        ctx.emit(
            "FP208",
            f"TOP {template.statement.top} truncates region answers; "
            "cached results serve exact-match reuse only",
            span=ctx.span("TOP"),
        )


def check_query_dependent_columns(
    template: QueryTemplate, function: TableFunction, ctx: PassContext
) -> None:
    """FP215: a query-dependent function column (paper property 4).

    The registered ``function`` declares which of its outputs are
    computed relative to the call; a cached row carries the value of
    the call that fetched it.  The select list may carry such a column
    only as a bare reference (under any alias) with an ``<Output>`` rule
    of the function template, which the proxy recomputes it by.
    """
    dependent = {name.lower() for name in function.query_dependent}
    rules = {name.lower() for name, _ in template.function_template.outputs}
    binding = template.statement.source.binding_name.lower()
    for item in template.statement.select_items:
        bare = isinstance(item.expression, ColumnRef)
        for ref in sorted(item.expression.column_refs()):
            table, _, column = ref.rpartition(".")
            if column in dependent and table in ("", binding) and not (
                column in rules and bare
            ):
                ctx.emit(
                    "FP215",
                    f"select item {item.to_sql()} reads {function.name}'s "
                    f"query-dependent column {column!r} with no <Output> "
                    "rule to recompute it (paper property 4)",
                    span=ctx.span(item.expression.to_sql()),
                    hint=f'declare <Output name="{column}"> in the '
                    "function template; select the column bare",
                )


def check_against_registry(
    template: QueryTemplate, ctx: PassContext
) -> None:
    """FP209 / FP210 / FP211 (determinism, paper property 1) and FP215.

    Needs a function registry; without one the pass is skipped (the
    proxy re-checks determinism per query anyway and tunnels when in
    doubt).  Partial registries — e.g. the HTTP proxy's remote-origin
    stub, which only answers ``is_deterministic`` — get only the checks
    they can answer.
    """
    registry = ctx.registry
    if registry is None:
        return
    has_table = getattr(registry, "has_table", None)
    has_scalar = getattr(registry, "has_scalar", None)
    table = getattr(registry, "table", None)
    source = template.statement.source
    if isinstance(source, FunctionSource) and callable(has_table):
        if not has_table(source.name):
            ctx.emit(
                "FP209",
                f"function {source.name!r} is not registered at the "
                "origin",
                span=ctx.span(source.name),
            )
        elif not registry.is_deterministic(source.name):
            ctx.emit(
                "FP210",
                f"function {source.name!r} is non-deterministic and "
                "cannot be actively cached (paper property 1)",
                span=ctx.span(source.name),
            )
        elif callable(table):
            check_query_dependent_columns(template, table(source.name), ctx)
    if not callable(has_scalar):
        return
    seen: set[str] = set()
    for expr in template.statement.expressions():
        for call in function_calls(expr):
            key = call.name.lower()
            if key in seen or key in SCALAR_BUILTINS:
                continue
            seen.add(key)
            if has_scalar(call.name):
                if not registry.is_deterministic(call.name):
                    ctx.emit(
                        "FP211",
                        f"scalar function {call.name} in the query "
                        "template is non-deterministic "
                        "(paper property 1)",
                        span=ctx.span(call.name),
                    )
            else:
                ctx.emit(
                    "FP111",
                    f"query template calls unknown scalar function "
                    f"{call.name}; determinism cannot be verified",
                    span=ctx.span(call.name),
                )


def analyze_query_template_passes(
    template: QueryTemplate, ctx: PassContext
) -> None:
    """The full query-template pipeline (FP202–FP211, FP215)."""
    if not check_from_clause(template, ctx):
        return
    check_joins(template, ctx)
    check_select_list(template, ctx)
    check_top(template, ctx)
    check_against_registry(template, ctx)


# -------------------------------------------------------------- info files
def check_info_file(
    info: TemplateInfoFile,
    template: QueryTemplate | None,
    ctx: PassContext,
) -> None:
    """FP212 / FP213 / FP214: form-to-template binding consistency."""
    if template is None:
        ctx.emit(
            "FP212",
            f"info file {info.form_name!r} references unknown query "
            f"template {info.template_id!r}",
        )
        return
    declared = set(template.parameter_names)
    bound = set(info.field_map.values()) | set(info.defaults)
    for name in sorted(declared - bound):
        ctx.emit(
            "FP213",
            f"template parameter {name!r} has no form field and no "
            "default; every form submission would fail to bind",
            hint=f"map a form field to {name!r} or add a <Default>",
        )
    for name in sorted(set(info.field_map.values()) - declared):
        ctx.emit(
            "FP214",
            f"form field maps to {name!r}, which the query template "
            "does not declare",
            hint="stale field mapping? the value is silently ignored",
        )
