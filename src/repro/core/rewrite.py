"""Expression scope rewriting between statement and result scope.

Two coordinate systems appear in the proxy:

* **statement scope** — names as they appear inside the template SQL
  (``p.cx``, ``n.distance``): what the origin's executor resolves.
* **result scope** — the *output* column names of the template's select
  list (``cx``, ``distance``): what a cached result table carries and
  what the function template's point expressions reference.

The local evaluator takes statement-scope expressions (ORDER BY items,
residual predicates) into result scope to run them over cached tuples;
the remainder builder takes result-scope region predicates into
statement scope to splice them into SQL sent to the origin.
"""

from __future__ import annotations

from repro.relational.expressions import ColumnRef, Expression
from repro.templates.errors import TemplateError
from repro.templates.query_template import QueryTemplate


def _mappings(template: QueryTemplate) -> tuple[dict, dict]:
    """(statement sql -> output name, output name -> expression)."""
    statement = template.statement
    if statement.star:
        raise TemplateError(
            f"template {template.template_id!r}: scope rewriting needs an "
            "explicit select list, not SELECT *"
        )
    return statement.output_scope


def _rewrite(expr: Expression, transform) -> Expression:
    """Rebuild ``expr`` bottom-up: the children first, then ``transform``
    applied to the *rebuilt* node (its SQL text is what
    :func:`to_result_scope` matches on)."""
    return transform(
        expr.map_children(lambda child: _rewrite(child, transform))
    )


def to_result_scope(
    template: QueryTemplate, expr: Expression
) -> Expression:
    """Rewrite a statement-scope expression to result scope.

    Any subexpression that textually matches a select item is replaced
    by a reference to that item's output column.  A qualified column
    reference that matches nothing raises: it would be unresolvable
    against a cached result.
    """
    to_output, _ = _mappings(template)

    def transform(node: Expression) -> Expression:
        replacement = to_output.get(node.to_sql().lower())
        if replacement is not None:
            return ColumnRef(replacement)
        if isinstance(node, ColumnRef) and "." in node.name:
            raise TemplateError(
                f"template {template.template_id!r}: {node.name!r} is not "
                "in the select list; cannot evaluate it over cached results"
            )
        return node

    return _rewrite(expr, transform)


def to_statement_scope(
    template: QueryTemplate, expr: Expression
) -> Expression:
    """Rewrite a result-scope expression to statement scope.

    Each reference to an output column is replaced by the select item
    expression that defines it, so the rewritten expression is valid in
    the template SQL's FROM/JOIN namespace (used by remainder queries).
    """
    _, to_statement = _mappings(template)

    def transform(node: Expression) -> Expression:
        if isinstance(node, ColumnRef):
            replacement = to_statement.get(node.name.lower())
            if replacement is not None:
                return replacement
        return node

    return _rewrite(expr, transform)
