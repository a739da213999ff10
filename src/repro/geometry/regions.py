"""Region shapes used to abstract table-valued functions.

A *region* is a subset of N-dimensional Euclidean space.  The paper's
function templates (Figure 3) declare the shape of the region a
table-valued function selects: a hypersphere for radial searches such as
``fGetNearbyObjEq``, a hyperrectangle for rectangular searches such as
``fGetObjFromRect``, or in the general case a convex polytope.

All shapes support:

* ``point_test(positions)`` — a membership test compiled for one
  query, reading a point's coordinates at ``positions`` of a cached
  result tuple (local evaluation of a subsumed query);
  ``contains_point(point)`` is the same test on a bare point;
* ``bounding_box()`` — the minimum enclosing :class:`HyperRect`, used by
  the R-tree cache description;
* structural equality via ``==`` with a numeric tolerance.

Pairwise relations (equal / contains / overlaps / disjoint) live in
:mod:`repro.geometry.relations`.

Numeric tolerance
-----------------
Coordinates originate from user form inputs, so values are short decimals
and an absolute tolerance of ``EPSILON`` (1e-9) is ample.  Containment
checks used for cache answering are written so that a *false negative*
(reporting "overlap" where the truth is "contained") is always safe: the
proxy then merely forwards a query it could have answered locally.
False positives are never produced for the exact shape pairs implemented
here; the one documented conservative case is noted on
:func:`repro.geometry.relations.relate`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

EPSILON = 1e-9

Point = Sequence[float]


class GeometryError(ValueError):
    """Raised for malformed shapes or dimension mismatches."""


def _check_dims(a: "Region", b: "Region") -> None:
    if a.dims != b.dims:
        raise GeometryError(
            f"dimension mismatch: {a.dims}-d region vs {b.dims}-d region"
        )


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= EPSILON


class Region:
    """Abstract base for all region shapes.

    Subclasses must be immutable; the cache description stores regions as
    dictionary keys and shares them between the cache manager and the
    query processor.
    """

    dims: int

    def point_test(
        self, positions: Sequence[int]
    ) -> Callable[[Sequence[float]], bool]:
        """Membership of the point whose coordinates a tuple holds at
        ``positions``: the one definition of each shape's test, with
        everything that does not depend on the point computed once."""
        raise NotImplementedError

    def contains_point(self, point: Point) -> bool:
        if len(point) != self.dims:
            raise GeometryError(
                f"point has {len(point)} coordinates, region has {self.dims}"
            )
        return self.point_test(range(self.dims))(point)

    def bounding_box(self) -> "HyperRect":
        raise NotImplementedError

    def is_empty(self) -> bool:
        """True when the region contains no point at all."""
        raise NotImplementedError


@dataclass(frozen=True)
class HyperRect(Region):
    """An axis-aligned hyperrectangle ``[low_i, high_i]`` per dimension.

    This is the shape of rectangular search functions such as the
    SkyServer's ``fGetObjFromRect(min_ra, max_ra, min_dec, max_dec)``.
    Bounds are inclusive on both ends, matching SQL ``BETWEEN``
    semantics used by such functions.
    """

    lows: tuple[float, ...]
    highs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lows) != len(self.highs):
            raise GeometryError("lows and highs must have the same length")
        if not self.lows:
            raise GeometryError("a hyperrectangle needs at least one dimension")
        object.__setattr__(self, "lows", tuple(float(x) for x in self.lows))
        object.__setattr__(self, "highs", tuple(float(x) for x in self.highs))

    @property
    def dims(self) -> int:  # type: ignore[override]
        return len(self.lows)

    def is_empty(self) -> bool:
        return any(lo > hi + EPSILON for lo, hi in zip(self.lows, self.highs))

    def point_test(self, positions: Sequence[int]):
        bounds = [
            (position, lo - EPSILON, hi + EPSILON)
            for position, lo, hi in zip(positions, self.lows, self.highs)
        ]
        return lambda row: all(lo <= row[p] <= hi for p, lo, hi in bounds)

    def bounding_box(self) -> "HyperRect":
        return self

    def corners(self) -> Iterable[tuple[float, ...]]:
        """Yield all 2^dims corner points.

        Used for exact rect-inside-sphere and rect-inside-polytope checks;
        the paper's regions are 2-d or 3-d so the corner count is small.
        """
        for choice in itertools.product(*zip(self.lows, self.highs)):
            yield choice

    def side_lengths(self) -> tuple[float, ...]:
        return tuple(hi - lo for lo, hi in zip(self.lows, self.highs))

    def intersect(self, other: "HyperRect") -> "HyperRect | None":
        """The intersection box, or None when the boxes are disjoint."""
        _check_dims(self, other)
        lows = tuple(max(a, b) for a, b in zip(self.lows, other.lows))
        highs = tuple(min(a, b) for a, b in zip(self.highs, other.highs))
        if any(lo > hi + EPSILON for lo, hi in zip(lows, highs)):
            return None
        return HyperRect(lows, highs)

    def union_box(self, other: "HyperRect") -> "HyperRect":
        """The minimum box enclosing both; the R-tree's node expansion."""
        _check_dims(self, other)
        return HyperRect(
            tuple(min(a, b) for a, b in zip(self.lows, other.lows)),
            tuple(max(a, b) for a, b in zip(self.highs, other.highs)),
        )

    @staticmethod
    def from_center(center: Point, half_widths: Point) -> "HyperRect":
        if len(center) != len(half_widths):
            raise GeometryError("center and half_widths must agree in length")
        return HyperRect(
            tuple(c - h for c, h in zip(center, half_widths)),
            tuple(c + h for c, h in zip(center, half_widths)),
        )


@dataclass(frozen=True)
class HyperSphere(Region):
    """A closed ball: all points within ``radius`` of ``center``.

    This is the shape declared by the paper's example function template
    for ``fGetNearbyObjEq(ra, dec, radius)`` (Figure 3): a 3-d
    hypersphere around the unit vector of the search center.
    """

    center: tuple[float, ...]
    radius: float

    def __post_init__(self) -> None:
        if not self.center:
            raise GeometryError("a hypersphere needs at least one dimension")
        if self.radius < 0:
            raise GeometryError(f"negative radius: {self.radius}")
        object.__setattr__(self, "center", tuple(float(x) for x in self.center))
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dims(self) -> int:  # type: ignore[override]
        return len(self.center)

    def is_empty(self) -> bool:
        return False  # a zero-radius sphere still contains its center

    def point_test(self, positions: Sequence[int]):
        limit = (self.radius + EPSILON) ** 2
        pairs = tuple(zip(positions, self.center))
        if len(pairs) == 3:
            # Spelled out for the 3-d case (every radial template): the
            # same left-to-right sum of squares as ``sum()`` adds.
            (i, a), (j, b), (k, c) = pairs
            return lambda row: (
                (row[i] - a) ** 2 + (row[j] - b) ** 2 + (row[k] - c) ** 2
                <= limit
            )
        return lambda row: sum([(row[p] - c) ** 2 for p, c in pairs]) <= limit

    def bounding_box(self) -> HyperRect:
        return HyperRect.from_center(self.center, (self.radius,) * self.dims)

    def center_distance(self, other: "HyperSphere") -> float:
        _check_dims(self, other)
        return math.dist(self.center, other.center)


@dataclass(frozen=True)
class Halfspace:
    """The halfspace ``normal . x <= offset``.

    Building block of :class:`ConvexPolytope`.  Normals need not be unit
    length; :meth:`normalized` rescales so that signed distances can be
    compared against sphere radii.
    """

    normal: tuple[float, ...]
    offset: float

    def __post_init__(self) -> None:
        if not self.normal:
            raise GeometryError("a halfspace needs at least one dimension")
        if all(_close(n, 0.0) for n in self.normal):
            raise GeometryError("halfspace normal must be non-zero")
        object.__setattr__(self, "normal", tuple(float(x) for x in self.normal))
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def dims(self) -> int:
        return len(self.normal)

    def normalized(self) -> "Halfspace":
        norm = math.sqrt(sum(n * n for n in self.normal))
        return Halfspace(tuple(n / norm for n in self.normal), self.offset / norm)

    def contains_point(self, point: Point) -> bool:
        value = sum(n * x for n, x in zip(self.normal, point))
        return value <= self.offset + EPSILON


@dataclass(frozen=True)
class ConvexPolytope(Region):
    """An intersection of halfspaces (an H-polytope).

    The paper notes (Section 3.1, property 2) that a region "can be a
    hypercube (most common), a hypersphere, or even a polytope (more
    complex)".  We represent polytopes in halfspace form because the
    function templates that need them (e.g. great-circle band searches)
    naturally produce linear constraints, and halfspace form gives exact
    contains-point, polytope-contains-rect, and polytope-contains-sphere
    checks without a vertex enumeration.

    ``bbox`` must be supplied by the template that constructs the
    polytope: computing a tight bounding box of an H-polytope requires
    linear programming, which is out of proportion for the proxy.  Any
    enclosing box is valid; a looser box only makes the R-tree filter
    less selective, never incorrect.
    """

    halfspaces: tuple[Halfspace, ...]
    bbox: HyperRect

    def __post_init__(self) -> None:
        if not self.halfspaces:
            raise GeometryError("a polytope needs at least one halfspace")
        dims = {h.dims for h in self.halfspaces}
        if len(dims) != 1:
            raise GeometryError("halfspaces disagree on dimensionality")
        if self.bbox.dims != dims.pop():
            raise GeometryError("bounding box dimensionality mismatch")
        object.__setattr__(self, "halfspaces", tuple(self.halfspaces))

    @property
    def dims(self) -> int:  # type: ignore[override]
        return self.bbox.dims

    def is_empty(self) -> bool:
        # Emptiness of an H-polytope requires an LP feasibility test; the
        # proxy treats a polytope as potentially non-empty, which is the
        # safe direction (it may cache an empty result, never drop tuples).
        return False

    def point_test(self, positions: Sequence[int]):
        halfspaces = self.halfspaces

        def test(row: Sequence[float]) -> bool:
            point = [row[p] for p in positions]
            return all(h.contains_point(point) for h in halfspaces)

        return test

    def bounding_box(self) -> HyperRect:
        return self.bbox


@dataclass(frozen=True)
class DifferenceRegion(Region):
    """``base`` minus the union of ``holes``.

    This is the region of a *remainder query* (Dar et al.'s semantic
    caching): the part of a new query's region not covered by the cache.
    It is never stored in the cache description; it exists to (a) test
    membership when merging probe and remainder results and (b) carry
    a remainder's holes to the origin.
    """

    base: Region
    holes: tuple[Region, ...]

    def __post_init__(self) -> None:
        for hole in self.holes:
            _check_dims(self.base, hole)
        object.__setattr__(self, "holes", tuple(self.holes))

    @property
    def dims(self) -> int:  # type: ignore[override]
        return self.base.dims

    def is_empty(self) -> bool:
        # Exact emptiness would need region subtraction; the caller
        # detects full coverage through relation checks instead.
        return self.base.is_empty()

    def point_test(self, positions: Sequence[int]):
        inside = self.base.point_test(positions)
        holes = [hole.point_test(positions) for hole in self.holes]
        return lambda row: inside(row) and not any(
            hole(row) for hole in holes
        )

    def bounding_box(self) -> HyperRect:
        return self.base.bounding_box()


def region_to_dict(region: Region) -> dict[str, Any]:
    """A region's one JSON form: its shape and bounds.

    The explain layer renders query, candidate and remainder regions
    with it, and the journal stores cacheable regions in it;
    :func:`region_from_dict` is its inverse.
    """
    if isinstance(region, HyperSphere):
        return {
            "shape": "hypersphere",
            "center": list(region.center),
            "radius": region.radius,
        }
    if isinstance(region, HyperRect):
        return {
            "shape": "hyperrect",
            "lows": list(region.lows),
            "highs": list(region.highs),
        }
    if isinstance(region, ConvexPolytope):
        return {
            "shape": "polytope",
            "halfspaces": [
                {"normal": list(h.normal), "offset": h.offset}
                for h in region.halfspaces
            ],
            "bbox": {
                "lows": list(region.bbox.lows),
                "highs": list(region.bbox.highs),
            },
        }
    if isinstance(region, DifferenceRegion):
        return {
            "shape": "difference",
            "base": region_to_dict(region.base),
            "holes": [region_to_dict(hole) for hole in region.holes],
        }
    raise GeometryError(f"no JSON form for {type(region).__name__}")


def region_from_dict(payload: Mapping[str, Any]) -> Region:
    """Rebuild a region from :func:`region_to_dict`'s form."""
    try:
        shape = payload["shape"]
        if shape == "hypersphere":
            return HyperSphere(
                center=tuple(payload["center"]), radius=payload["radius"]
            )
        if shape == "hyperrect":
            return HyperRect(
                lows=tuple(payload["lows"]), highs=tuple(payload["highs"])
            )
        if shape == "polytope":
            return ConvexPolytope(
                halfspaces=tuple(
                    Halfspace(tuple(h["normal"]), h["offset"])
                    for h in payload["halfspaces"]
                ),
                bbox=HyperRect(
                    lows=tuple(payload["bbox"]["lows"]),
                    highs=tuple(payload["bbox"]["highs"]),
                ),
            )
        if shape == "difference":
            return DifferenceRegion(
                base=region_from_dict(payload["base"]),
                holes=tuple(region_from_dict(h) for h in payload["holes"]),
            )
    except (KeyError, TypeError) as exc:
        raise GeometryError(f"malformed region payload: {exc}") from exc
    raise GeometryError(f"unknown region shape {shape!r}")
