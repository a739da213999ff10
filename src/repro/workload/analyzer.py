"""Trace analysis: the paper's Section 4.1 workload profile.

Classifies every query of a trace against the set of *all earlier
queries* (an idealized unlimited cache), by pure region reasoning:

* **exact** — an identical query appeared before;
* **contained** — its region is inside some earlier query's region
  (so an unlimited active cache answers it fully);
* **overlap** — it intersects at least one earlier region but is not
  contained in any;
* **disjoint** — no intersection with any earlier region.

The paper reports: 51% fully answerable (17% exact + 34% containment)
and about 9% overlapping, for the Radial trace.  These measured
fractions are what the generator is calibrated against.

The classifier brute-forces relations against all earlier *distinct*
regions with a bounding-box grid prefilter, independent of the proxy
implementation — deliberately so: tests compare the proxy's observed
dispositions against this oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.regions import EPSILON, Region
from repro.geometry.relations import RegionRelation, relate
from repro.templates.manager import TemplateManager
from repro.workload.trace import Trace


@dataclass(frozen=True)
class TraceProfile:
    """Measured per-query disposition fractions of a trace."""

    n_queries: int
    exact: float
    contained: float
    overlap: float
    disjoint: float

    @property
    def fully_answerable(self) -> float:
        """The paper's "completely answered by the cache" fraction."""
        return self.exact + self.contained

    def __str__(self) -> str:
        return (
            f"{self.n_queries} queries: "
            f"{self.exact:.1%} exact + {self.contained:.1%} contained "
            f"= {self.fully_answerable:.1%} fully answerable; "
            f"{self.overlap:.1%} overlapping; {self.disjoint:.1%} disjoint"
        )


class _RegionSet:
    """Earlier regions with a coarse bounding-box grid prefilter."""

    def __init__(self, cell: float) -> None:
        self.cell = cell
        self._grid: dict[tuple, list[Region]] = {}

    def _cells(self, region: Region):
        box = region.bounding_box()
        # Boxes intersect to within EPSILON (HyperRect.intersect), so
        # the cell span must be widened by the same tolerance.
        spans = [
            range(
                int((lo - EPSILON) // self.cell),
                int((hi + EPSILON) // self.cell) + 1,
            )
            for lo, hi in zip(box.lows, box.highs)
        ]
        # Regions here are 2-d or 3-d; enumerate the small cell product.
        if len(spans) == 2:
            for i in spans[0]:
                for j in spans[1]:
                    yield (i, j)
        elif len(spans) == 3:
            for i in spans[0]:
                for j in spans[1]:
                    for k in spans[2]:
                        yield (i, j, k)
        else:
            yield ("*",)  # degenerate: single bucket

    def add(self, region: Region) -> None:
        for cell in self._cells(region):
            self._grid.setdefault(cell, []).append(region)

    def candidates(self, region: Region) -> list[Region]:
        seen: list[Region] = []
        found_ids = set()
        for cell in self._cells(region):
            for candidate in self._grid.get(cell, ()):
                if id(candidate) not in found_ids:
                    found_ids.add(id(candidate))
                    seen.append(candidate)
        return seen


def analyze_trace(
    trace: Trace, templates: TemplateManager, grid_cell: float = 0.02
) -> TraceProfile:
    """Classify every query against all earlier ones.

    ``grid_cell`` is the prefilter cell size in region-space units; the
    default suits the Radial template's chord coordinates (a 30-arcmin
    disc has chord radius ~0.009).
    """
    exact = contained = overlap = disjoint = 0
    seen_queries: set = set()
    regions_by_template: dict[str, _RegionSet] = {}

    for query in trace:
        if query in seen_queries:
            exact += 1
            continue
        bound = templates.bind(query.template_id, query.param_dict())
        region_set = regions_by_template.setdefault(
            query.template_id, _RegionSet(grid_cell)
        )
        is_contained = False
        is_overlapping = False
        for earlier in region_set.candidates(bound.region):
            relation = relate(bound.region, earlier)
            if relation in (
                RegionRelation.CONTAINED,
                RegionRelation.EQUAL,
            ):
                is_contained = True
                break
            if relation in (
                RegionRelation.OVERLAP,
                RegionRelation.CONTAINS,
            ):
                is_overlapping = True
        if is_contained:
            contained += 1
        elif is_overlapping:
            overlap += 1
        else:
            disjoint += 1
        seen_queries.add(query)
        region_set.add(bound.region)

    n = len(trace) or 1
    return TraceProfile(
        n_queries=len(trace),
        exact=exact / n,
        contained=contained / n,
        overlap=overlap / n,
        disjoint=disjoint / n,
    )
