"""Region shape construction and membership."""

import json
import math

import pytest

from repro.geometry.regions import (
    ConvexPolytope,
    DifferenceRegion,
    GeometryError,
    Halfspace,
    HyperRect,
    HyperSphere,
    region_from_dict,
    region_to_dict,
)


class TestHyperRect:
    def test_contains_interior_point(self):
        rect = HyperRect((0.0, 0.0), (2.0, 3.0))
        assert rect.contains_point((1.0, 1.5))

    def test_boundary_is_inclusive(self):
        rect = HyperRect((0.0,), (2.0,))
        assert rect.contains_point((0.0,))
        assert rect.contains_point((2.0,))

    def test_excludes_outside_point(self):
        rect = HyperRect((0.0, 0.0), (2.0, 3.0))
        assert not rect.contains_point((2.5, 1.0))
        assert not rect.contains_point((1.0, -0.1))

    def test_dims(self):
        assert HyperRect((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)).dims == 3

    def test_point_dimension_mismatch_raises(self):
        rect = HyperRect((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(GeometryError):
            rect.contains_point((0.5,))

    def test_mismatched_bounds_raise(self):
        with pytest.raises(GeometryError):
            HyperRect((0.0, 0.0), (1.0,))

    def test_zero_dimensional_raises(self):
        with pytest.raises(GeometryError):
            HyperRect((), ())

    def test_inverted_bounds_are_empty(self):
        assert HyperRect((2.0,), (1.0,)).is_empty()
        assert not HyperRect((1.0,), (2.0,)).is_empty()

    def test_corners_count(self):
        rect = HyperRect((0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
        corners = set(rect.corners())
        assert len(corners) == 8
        assert (0.0, 2.0, 3.0) in corners

    def test_intersect_overlapping(self):
        a = HyperRect((0.0, 0.0), (2.0, 2.0))
        b = HyperRect((1.0, 1.0), (3.0, 3.0))
        assert a.intersect(b) == HyperRect((1.0, 1.0), (2.0, 2.0))

    def test_intersect_disjoint_is_none(self):
        a = HyperRect((0.0,), (1.0,))
        b = HyperRect((2.0,), (3.0,))
        assert a.intersect(b) is None

    def test_union_box_covers_both(self):
        a = HyperRect((0.0, 0.0), (1.0, 1.0))
        b = HyperRect((2.0, -1.0), (3.0, 0.5))
        union = a.union_box(b)
        assert union == HyperRect((0.0, -1.0), (3.0, 1.0))

    def test_from_center(self):
        rect = HyperRect.from_center((1.0, 1.0), (0.5, 2.0))
        assert rect == HyperRect((0.5, -1.0), (1.5, 3.0))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: HyperRect.from_center((1.0, 1.0), (0.5,)),
            lambda: HyperRect.from_center((), ()),
            lambda: HyperRect([0, 1], [1]),
            lambda: HyperSphere((), 1.0),
        ],
    )
    def test_every_public_route_to_a_box_checks_its_bounds(self, build):
        # The cache descriptions read ``lows``/``highs`` unchecked; the
        # constructors are the only place arity is looked at.
        with pytest.raises(GeometryError):
            build()

    def test_bounds_are_coerced_to_float_tuples(self):
        rect = HyperRect([0, 1], [2, 3])
        assert rect.lows == (0.0, 1.0) and rect.highs == (2.0, 3.0)
        assert all(type(x) is float for x in rect.lows + rect.highs)

    def test_side_lengths(self):
        rect = HyperRect((0.0, 1.0), (2.0, 4.0))
        assert rect.side_lengths() == (2.0, 3.0)

    def test_bounding_box_is_self(self):
        rect = HyperRect((0.0,), (1.0,))
        assert rect.bounding_box() is rect


class TestHyperSphere:
    def test_contains_center(self):
        sphere = HyperSphere((1.0, 2.0, 3.0), 0.5)
        assert sphere.contains_point((1.0, 2.0, 3.0))

    def test_boundary_is_inclusive(self):
        sphere = HyperSphere((0.0, 0.0), 1.0)
        assert sphere.contains_point((1.0, 0.0))
        assert sphere.contains_point((0.0, -1.0))

    def test_excludes_outside(self):
        sphere = HyperSphere((0.0, 0.0), 1.0)
        assert not sphere.contains_point((0.8, 0.8))

    def test_negative_radius_raises(self):
        with pytest.raises(GeometryError):
            HyperSphere((0.0,), -1.0)

    def test_zero_radius_contains_only_center(self):
        sphere = HyperSphere((1.0,), 0.0)
        assert sphere.contains_point((1.0,))
        assert not sphere.contains_point((1.001,))
        assert not sphere.is_empty()

    def test_bounding_box(self):
        sphere = HyperSphere((1.0, -1.0), 2.0)
        assert sphere.bounding_box() == HyperRect((-1.0, -3.0), (3.0, 1.0))

    def test_center_distance(self):
        a = HyperSphere((0.0, 0.0), 1.0)
        b = HyperSphere((3.0, 4.0), 1.0)
        assert a.center_distance(b) == pytest.approx(5.0)


class TestHalfspaceAndPolytope:
    def test_halfspace_membership(self):
        # x + y <= 1
        half = Halfspace((1.0, 1.0), 1.0)
        assert half.contains_point((0.0, 0.0))
        assert half.contains_point((0.5, 0.5))
        assert not half.contains_point((1.0, 1.0))

    def test_zero_normal_raises(self):
        with pytest.raises(GeometryError):
            Halfspace((0.0, 0.0), 1.0)

    def test_normalized_preserves_boundary(self):
        half = Halfspace((3.0, 4.0), 10.0)
        unit = half.normalized()
        assert math.hypot(*unit.normal) == pytest.approx(1.0)
        # Point on the original boundary stays on the boundary.
        assert unit.contains_point((2.0, 1.0))

    def test_triangle_polytope(self):
        # The triangle x >= 0, y >= 0, x + y <= 1.
        triangle = ConvexPolytope(
            (
                Halfspace((-1.0, 0.0), 0.0),
                Halfspace((0.0, -1.0), 0.0),
                Halfspace((1.0, 1.0), 1.0),
            ),
            bbox=HyperRect((0.0, 0.0), (1.0, 1.0)),
        )
        assert triangle.contains_point((0.2, 0.2))
        assert not triangle.contains_point((0.8, 0.8))
        assert triangle.bounding_box() == HyperRect((0.0, 0.0), (1.0, 1.0))

    def test_polytope_needs_halfspaces(self):
        with pytest.raises(GeometryError):
            ConvexPolytope((), bbox=HyperRect((0.0,), (1.0,)))

    def test_polytope_dim_mismatch_raises(self):
        with pytest.raises(GeometryError):
            ConvexPolytope(
                (Halfspace((1.0, 0.0), 1.0),),
                bbox=HyperRect((0.0,), (1.0,)),
            )


class TestCompositeRegions:
    def test_difference_membership(self):
        base = HyperRect((0.0, 0.0), (4.0, 4.0))
        hole = HyperSphere((2.0, 2.0), 1.0)
        difference = DifferenceRegion(base, (hole,))
        assert difference.contains_point((0.5, 0.5))
        assert not difference.contains_point((2.0, 2.0))  # in the hole
        assert not difference.contains_point((5.0, 5.0))  # outside base

    def test_difference_bounding_box_is_base(self):
        base = HyperRect((0.0,), (4.0,))
        difference = DifferenceRegion(base, (HyperRect((1.0,), (2.0,)),))
        assert difference.bounding_box() == base

    def test_difference_dim_mismatch_raises(self):
        with pytest.raises(GeometryError):
            DifferenceRegion(
                HyperRect((0.0,), (1.0,)),
                (HyperRect((0.0, 0.0), (1.0, 1.0)),),
            )


class TestJsonForm:
    SPHERE = HyperSphere((164.0, 8.0), 2.0)
    RECT = HyperRect((0.0, 0.0), (5.0, 5.0))
    POLYTOPE = ConvexPolytope(
        halfspaces=(
            Halfspace((1.0, 0.0), 5.0),
            Halfspace((-1.0, 0.0), 0.0),
            Halfspace((0.0, 1.0), 5.0),
            Halfspace((0.0, -1.0), 0.0),
        ),
        bbox=RECT,
    )

    @pytest.mark.parametrize(
        "region",
        [
            SPHERE,
            RECT,
            POLYTOPE,
            DifferenceRegion(RECT, (HyperRect((1.0, 1.0), (2.0, 2.0)),)),
        ],
        ids=["hypersphere", "hyperrect", "polytope", "difference"],
    )
    def test_round_trip(self, region):
        payload = json.loads(json.dumps(region_to_dict(region)))
        assert region_from_dict(payload) == region

    def test_unknown_shape_rejected(self):
        with pytest.raises(GeometryError, match="unknown region shape"):
            region_from_dict({"shape": "torus"})

    def test_malformed_payload_rejected(self):
        with pytest.raises(GeometryError, match="malformed region"):
            region_from_dict({"shape": "hyperrect", "lows": [0.0]})
