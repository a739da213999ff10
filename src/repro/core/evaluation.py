"""Local evaluation of queries over cached results.

The paper (Section 3.2): "the proxy evaluates the new query by
selecting the cached result tuples that represent points falling into
the multi-dimensional region of the new query.  In essence, the
evaluation of a subsumed query becomes that of a spatial region
selection query over cached results."

The evaluator also implements the *probe query* of the overlap case —
extracting, from a set of overlapping cache entries, the tuples that
fall into the new query's region — and the final ORDER BY / TOP-N the
query template may carry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.cache import CacheEntry
from repro.core.rewrite import to_result_scope
from repro.geometry.regions import Region
from repro.relational.result import ResultTable, sort_rows
from repro.templates.manager import BoundQuery


@dataclass(frozen=True)
class EvaluationOutcome:
    """A locally produced result plus the work it took.

    ``tuples_read`` counts every cached tuple touched;
    ``tuples_evaluated`` counts only those needing the per-tuple region
    membership test — an entry whose whole region lies inside the new
    query's region is copied without testing (its tuples are inside by
    construction), which makes the region-containment probe cheaper
    than a general overlap probe.
    """

    result: ResultTable
    tuples_read: int
    tuples_evaluated: int


class LocalEvaluator:
    """Region-selection evaluation over cached result tables."""

    def select_in_region(
        self, bound: BoundQuery, entries: Iterable[CacheEntry]
    ) -> EvaluationOutcome:
        """Tuples of ``entries`` that fall inside the new query's region.

        Deduplicates on the template's key column (overlapping cached
        regions can share tuples).  Does *not* apply ORDER BY / TOP —
        callers finish with :meth:`finalize` once all sources (cache
        and, for overlap, the origin's remainder) are merged.
        """
        template = bound.template
        ftemplate = template.function_template
        region = bound.region
        key_column = template.key_column

        entries = list(entries)
        tuples_read = 0
        tuples_evaluated = 0
        collected: ResultTable | None = None
        for entry in entries:
            tuples_read += len(entry.result)
            if region.contains_region(entry.region):
                kept = entry.result  # fully subsumed: no per-tuple test
            else:
                tuples_evaluated += len(entry.result)
                kept = self._filter_by_region(entry.result, ftemplate, region)
            if collected is None:
                collected = kept
            else:
                collected = collected.merge_dedup(kept, key_column)
        if collected is None:
            raise ValueError("select_in_region needs at least one entry")
        return EvaluationOutcome(collected, tuples_read, tuples_evaluated)

    @staticmethod
    def _filter_by_region(
        result: ResultTable, ftemplate, region: Region
    ) -> ResultTable:
        names = [name.lower() for name in result.column_names]
        kept_rows = []
        for row in result.rows:
            env = dict(zip(names, row))
            if region.contains_point(ftemplate.point_of(env)):
                kept_rows.append(row)
        return ResultTable(result.schema, kept_rows)

    def finalize(self, bound: BoundQuery, result: ResultTable) -> ResultTable:
        """Apply the query's ORDER BY and TOP-N in result scope."""
        statement = bound.statement
        if statement.order_by:
            names = [name.lower() for name in result.column_names]

            def key(item):
                expr = to_result_scope(bound.template, item.expression)
                return (
                    lambda row: expr.evaluate(dict(zip(names, row))),
                    item.descending,
                )

            result = ResultTable(
                result.schema,
                sort_rows(result.rows, [key(i) for i in statement.order_by]),
            )
        if statement.top is not None:
            result = result.top_n(statement.top)
        return result
