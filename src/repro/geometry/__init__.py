"""Multidimensional region geometry for semantic cache checking.

The paper's central trick (Section 3.1) is to abstract a table-valued
function as a *spatial region selection query*: the function returns all
points falling inside a multidimensional region.  Checking the relationship
between a new query and cached queries then becomes checking the
relationship between two regions, with no need to look at result tuples.

This package provides the region shapes named by the paper (hypercube /
hyperrectangle, hypersphere, and convex polytope), point-membership tests,
pairwise region relations (equal, contains, overlaps, disjoint), and the
difference regions used to build remainder queries.
"""

from repro.geometry.regions import (
    ConvexPolytope,
    DifferenceRegion,
    Halfspace,
    HyperRect,
    HyperSphere,
    Region,
)
from repro.geometry.relations import RegionRelation, relate

__all__ = [
    "ConvexPolytope",
    "DifferenceRegion",
    "Halfspace",
    "HyperRect",
    "HyperSphere",
    "Region",
    "RegionRelation",
    "relate",
]
