"""The answer oracle: the proxy's rows against the origin's own answer.

Never inside a timed interval: it runs over the answers a finished
pass kept (every ``ORACLE_STRIDE``-th query) and re-executes each query
directly at the origin.

What is compared.  Rows are compared as full tuples on every column
that does not come out of the table-valued function itself — ordered
when the statement has ORDER BY/TOP, sorted by the key column
otherwise.  Columns the function computes *relative to the query's
own parameters* (``n.distance`` of the Radial form: the distance from
this query's centre) are compared separately and only reported: at the
seed commit a query answered by local evaluation over a cached
superset returns the superset query's distances, so those columns
differ from the origin's while every other column agrees.  That is a
defect of the program (ROADMAP item 5 owns it), reported by this
benchmark as ``oracle.function_columns_stale_ratio`` and not counted
as a failed operation, because the benchmark needs workloads on which
no operation fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID

from wallbench.workloads import Environment


@dataclass
class OracleReport:
    checked: int = 0
    #: Answers whose function-output columns differ from the origin's
    #: while every other column agrees.
    function_columns_stale: int = 0
    #: One line per wrong answer: query index, parameters, what differs.
    mismatches: list[str] = field(default_factory=list)


def _function_columns(statement: Any) -> set[int]:
    """Select-list positions fed by the function source's own output."""
    prefix = statement.source.binding_name.lower() + "."
    return {
        position
        for position, item in enumerate(statement.select_items)
        if any(
            ref.startswith(prefix) for ref in item.expression.column_refs()
        )
    }


def check_answers(
    environment: Environment,
    answers: list[tuple[int, Any]],
    rows_of: Any,
) -> OracleReport:
    """Compare each kept answer with the origin's direct answer."""
    report = OracleReport()
    origin = environment.origin
    for index, response in answers:
        params = environment.params[index]
        bound = origin.templates.bind(RADIAL_TEMPLATE_ID, params)
        expected_table = origin.execute_bound(bound).result
        expected = [tuple(row) for row in expected_table.rows]
        actual = rows_of(response)
        statement = bound.statement
        if not (statement.order_by or statement.top is not None):
            key = expected_table.schema.position(bound.key_column)
            expected.sort(key=lambda row: row[key])
            actual.sort(key=lambda row: row[key])
        report.checked += 1
        if actual == expected:
            continue
        skipped = _function_columns(statement)
        if len(actual) == len(expected) and all(
            len(got) == len(want)
            and all(
                got[position] == want[position]
                for position in range(len(want))
                if position not in skipped
            )
            for got, want in zip(actual, expected)
        ):
            report.function_columns_stale += 1
            continue
        report.mismatches.append(
            f"query {index} {params}: "
            + (
                f"{len(actual)} rows served, {len(expected)} expected"
                if len(actual) != len(expected)
                else "row values differ"
            )
        )
    return report
