"""Remainder queries.

When a new query overlaps the cache, the proxy can answer the cached
portion locally and ask the origin only for the rest (Dar et al.'s
semantic caching, adopted in Section 3.2).  The remainder query is the
bound query plus the cached regions to leave out — its *holes* — and
that is what travels: the origin runs the template's plan with the
holes as a row filter before ORDER BY and TOP
(:meth:`~repro.server.origin.OriginServer.execute_remainder`), in
process or as ``"holes"`` of the origin app's ``POST /query``.

The filter decides exactly what the paper's ``AND NOT <hole
predicate>`` conjuncts over the function template's point expressions
decide (:func:`~repro.server.origin.hole_filter`): the paper's own
implementation shipped those NOT-predicates to the SkyServer's free
SQL page.  The remainder region (a base region minus a union of holes)
has no closed shape in our region algebra, so it stays a
:class:`~repro.geometry.regions.DifferenceRegion`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.geometry.regions import DifferenceRegion, Region
from repro.obs.decisions import region_summary
from repro.templates.errors import TemplateError
from repro.templates.manager import BoundQuery


@dataclass(frozen=True)
class RemainderQuery:
    """The region a remainder selects: the query's minus its holes."""

    region: DifferenceRegion
    n_holes: int

    def geometry(self) -> dict[str, Any]:
        """The difference region as JSON-able bounds (explain layer):
        what the origin receives besides the bound query."""
        return {
            "base": region_summary(self.region.base),
            "holes": [region_summary(hole) for hole in self.region.holes],
            "n_holes": self.n_holes,
        }


def build_remainder(
    bound: BoundQuery, holes: Sequence[Region]
) -> RemainderQuery:
    """The new query minus the cached regions in ``holes``.

    TOP-N interaction: a remainder keeps the original TOP bound — the
    remainder needs at most that many tuples — and the proxy's final
    merge re-applies ORDER BY / TOP over cache + remainder.
    """
    if not holes:
        raise TemplateError("a remainder query needs at least one hole")
    region = DifferenceRegion(bound.region, tuple(holes))
    return RemainderQuery(region, len(holes))
