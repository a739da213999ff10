"""Pairwise region relations: the proxy's query-relationship check.

Section 3.1 of the paper: for function-embedded queries with spatial
region selection semantics, "we can transform the problem of checking the
relationship between two queries (query exact match, containment,
overlapping, or disjoint) into that of checking the spatial relationship
between the two corresponding regions".

:func:`relate` classifies an ordered pair of regions into one of

* ``EQUAL``      — same point set (query exact match),
* ``CONTAINS``   — the first strictly contains the second
                   (a *new* query first + *cached* query second means the
                   cached entry is subsumed: the region-containment case),
* ``CONTAINED``  — the first is inside the second (new query answerable
                   entirely from the cached entry),
* ``OVERLAP``    — the point sets intersect but neither contains the other
                   (the cache-intersecting case),
* ``DISJOINT``   — no common point.

Exactness
---------
All rect/rect, sphere/sphere, rect/sphere and sphere/rect checks are
exact up to ``EPSILON``.  Polytope pairs are exact for containment of a
rect or a sphere *inside* a polytope (convexity arguments) and for
bounding-box disjointness; the remaining polytope cases fall back to a
conservative ``OVERLAP`` answer.  Conservatism is safe for caching: the
proxy treats the pair as cache-intersecting or forwards the query, it
never fabricates tuples.
"""

from __future__ import annotations

import enum
import math

from repro.geometry.regions import (
    EPSILON,
    ConvexPolytope,
    GeometryError,
    HyperRect,
    HyperSphere,
    Region,
)


class RegionRelation(enum.Enum):
    """Relationship of an ordered region pair ``(first, second)``."""

    EQUAL = "equal"
    CONTAINS = "contains"
    CONTAINED = "contained"
    OVERLAP = "overlap"
    DISJOINT = "disjoint"

    def flip(self) -> "RegionRelation":
        """The relation of the reversed pair ``(second, first)``."""
        if self is RegionRelation.CONTAINS:
            return RegionRelation.CONTAINED
        if self is RegionRelation.CONTAINED:
            return RegionRelation.CONTAINS
        return self


def relate(first: Region, second: Region) -> RegionRelation:
    """Classify the relationship between two regions.

    Dispatches on the shape pair.  Raises :class:`GeometryError` on
    dimension mismatch or an unsupported shape (a difference region
    is a transient query-evaluation artifact, not a cacheable shape,
    and is deliberately rejected here).
    """
    if first.dims != second.dims:
        raise GeometryError(
            f"dimension mismatch: {first.dims}-d vs {second.dims}-d"
        )
    if isinstance(first, HyperRect) and isinstance(second, HyperRect):
        return _relate_rect_rect(first, second)
    if isinstance(first, HyperSphere) and isinstance(second, HyperSphere):
        return _relate_sphere_sphere(first, second)
    if isinstance(first, HyperRect) and isinstance(second, HyperSphere):
        return _relate_rect_sphere(first, second)
    if isinstance(first, HyperSphere) and isinstance(second, HyperRect):
        return _relate_rect_sphere(second, first).flip()
    if isinstance(first, ConvexPolytope) or isinstance(second, ConvexPolytope):
        return _relate_with_polytope(first, second)
    raise GeometryError(
        f"unsupported region pair: {type(first).__name__} vs "
        f"{type(second).__name__}"
    )


# ----------------------------------------------------------------- rects


def _relate_rect_rect(a: HyperRect, b: HyperRect) -> RegionRelation:
    a_in_b = True
    b_in_a = True
    disjoint = False
    for alo, ahi, blo, bhi in zip(a.lows, a.highs, b.lows, b.highs):
        if alo > bhi + EPSILON or blo > ahi + EPSILON:
            disjoint = True
        if alo < blo - EPSILON or ahi > bhi + EPSILON:
            a_in_b = False
        if blo < alo - EPSILON or bhi > ahi + EPSILON:
            b_in_a = False
    if a_in_b and b_in_a:
        return RegionRelation.EQUAL
    if disjoint:
        return RegionRelation.DISJOINT
    if b_in_a:
        return RegionRelation.CONTAINS
    if a_in_b:
        return RegionRelation.CONTAINED
    return RegionRelation.OVERLAP


# --------------------------------------------------------------- spheres


def _relate_sphere_sphere(a: HyperSphere, b: HyperSphere) -> RegionRelation:
    dist = math.dist(a.center, b.center)
    if dist <= EPSILON and abs(a.radius - b.radius) <= EPSILON:
        return RegionRelation.EQUAL
    if dist > a.radius + b.radius + EPSILON:
        return RegionRelation.DISJOINT
    # Ball containment: d + r_inner <= r_outer.
    if dist + b.radius <= a.radius + EPSILON:
        return RegionRelation.CONTAINS
    if dist + a.radius <= b.radius + EPSILON:
        return RegionRelation.CONTAINED
    return RegionRelation.OVERLAP


# ---------------------------------------------------------- rect/sphere


def _min_dist2_point_rect(center: tuple[float, ...], rect: HyperRect) -> float:
    """Squared distance from a point to the nearest point of a box."""
    total = 0.0
    for c, lo, hi in zip(center, rect.lows, rect.highs):
        if c < lo:
            total += (lo - c) ** 2
        elif c > hi:
            total += (c - hi) ** 2
    return total


def _max_dist2_point_rect(center: tuple[float, ...], rect: HyperRect) -> float:
    """Squared distance from a point to the farthest point of a box."""
    total = 0.0
    for c, lo, hi in zip(center, rect.lows, rect.highs):
        total += max(abs(c - lo), abs(hi - c)) ** 2
    return total


def _relate_rect_sphere(rect: HyperRect, sphere: HyperSphere) -> RegionRelation:
    """Relation of ``(rect, sphere)``; callers flip for the other order.

    A rect and a sphere of equal dimension >= 1 can never be EQUAL unless
    both are degenerate (a single point); that case falls out of the
    containment tests naturally.
    """
    r2 = (sphere.radius + EPSILON) ** 2
    min_d2 = _min_dist2_point_rect(sphere.center, rect)
    if min_d2 > (sphere.radius + EPSILON) ** 2:
        return RegionRelation.DISJOINT
    # Sphere inside rect: the per-axis interval [c - r, c + r] within bounds.
    sphere_in_rect = all(
        lo - EPSILON <= c - sphere.radius and c + sphere.radius <= hi + EPSILON
        for c, lo, hi in zip(sphere.center, rect.lows, rect.highs)
    )
    # Rect inside sphere: the farthest box point within the radius.
    rect_in_sphere = _max_dist2_point_rect(sphere.center, rect) <= r2
    if sphere_in_rect and rect_in_sphere:
        return RegionRelation.EQUAL  # both degenerate to the same point
    if sphere_in_rect:
        return RegionRelation.CONTAINS
    if rect_in_sphere:
        return RegionRelation.CONTAINED
    return RegionRelation.OVERLAP


# ------------------------------------------------------------ polytopes


def _polytope_contains_rect(poly: ConvexPolytope, rect: HyperRect) -> bool:
    """Exact: a convex set contains a box iff it contains every corner."""
    return all(poly.contains_point(corner) for corner in rect.corners())


def _polytope_contains_sphere(poly: ConvexPolytope, sphere: HyperSphere) -> bool:
    """Exact: every bounding halfspace at signed distance >= radius."""
    for half in poly.halfspaces:
        unit = half.normalized()
        value = sum(n * c for n, c in zip(unit.normal, sphere.center))
        if value + sphere.radius > unit.offset + EPSILON:
            return False
    return True


def _polytope_disjoint_sphere(poly: ConvexPolytope, sphere: HyperSphere) -> bool:
    """Sufficient (one-sided): some halfspace separates the sphere."""
    for half in poly.halfspaces:
        unit = half.normalized()
        value = sum(n * c for n, c in zip(unit.normal, sphere.center))
        if value - sphere.radius > unit.offset + EPSILON:
            return True
    return False


def _relate_with_polytope(first: Region, second: Region) -> RegionRelation:
    """Relations involving at least one polytope.

    Exact answers are produced for "other shape inside polytope" and for
    bounding-box / separating-halfspace disjointness.  The conservative
    fallback is OVERLAP, which the caching schemes handle safely (the
    query is forwarded or treated as cache-intersecting).
    """
    if isinstance(second, ConvexPolytope) and not isinstance(
        first, ConvexPolytope
    ):
        return _relate_with_polytope(second, first).flip()

    assert isinstance(first, ConvexPolytope)
    if isinstance(second, HyperRect):
        if _polytope_contains_rect(first, second):
            return RegionRelation.CONTAINS
        if _relate_rect_rect(first.bounding_box(), second) in (
            RegionRelation.CONTAINED,
            RegionRelation.EQUAL,
        ):
            # The polytope's (possibly loose) bounding box sits inside the
            # rect, so the polytope itself does too.  Exact in this
            # direction; a loose box only costs missed CONTAINED answers.
            return RegionRelation.CONTAINED
        if first.bounding_box().intersect(second) is None:
            return RegionRelation.DISJOINT
        if any(_halfspace_excludes_rect(h, second) for h in first.halfspaces):
            # A box that lies fully on the wrong side of one bounding
            # halfspace cannot meet the polytope (the box is convex).
            return RegionRelation.DISJOINT
        return RegionRelation.OVERLAP
    if isinstance(second, HyperSphere):
        if _polytope_contains_sphere(first, second):
            return RegionRelation.CONTAINS
        if _polytope_disjoint_sphere(first, second):
            return RegionRelation.DISJOINT
        return RegionRelation.OVERLAP
    if isinstance(second, ConvexPolytope):
        if _polytope_contains_rect(first, second.bounding_box()):
            # The polytope contains the other's entire bounding box, hence
            # the other polytope itself.  Exact in the CONTAINS direction.
            return RegionRelation.CONTAINS
        if _polytope_contains_rect(second, first.bounding_box()):
            return RegionRelation.CONTAINED
        if first.bounding_box().intersect(second.bounding_box()) is None:
            return RegionRelation.DISJOINT
        return RegionRelation.OVERLAP
    raise GeometryError(
        f"unsupported region pair: ConvexPolytope vs {type(second).__name__}"
    )


def _halfspace_excludes_rect(half, rect: HyperRect) -> bool:
    """True when every corner of the box violates the halfspace.

    Exact: the violating set ``normal . x > offset`` is convex and a box
    is the convex hull of its corners, so all-corners-outside implies the
    whole box is outside.
    """
    return all(not half.contains_point(c) for c in rect.corners())
