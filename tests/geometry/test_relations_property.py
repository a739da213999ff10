"""Property tests: relation classification agrees with point sampling.

The relation checker is the proxy's soundness linchpin — a wrong
CONTAINED answer makes the proxy fabricate results.  These properties
check the classifier against a membership oracle on sampled points:

* ``CONTAINED`` of (A, B) implies every sampled point of A is in B;
* ``DISJOINT`` implies no sampled point is in both;
* ``EQUAL`` implies membership agrees on every sampled point;
* flipping the argument order flips the relation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.regions import HyperRect, HyperSphere
from repro.geometry.relations import RegionRelation, relate

DIMS = 2

coordinate = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
radius = st.floats(min_value=0.01, max_value=30.0, allow_nan=False)


@st.composite
def spheres(draw):
    center = tuple(draw(coordinate) for _ in range(DIMS))
    return HyperSphere(center, draw(radius))


@st.composite
def rects(draw):
    center = tuple(draw(coordinate) for _ in range(DIMS))
    half = tuple(draw(radius) for _ in range(DIMS))
    return HyperRect(
        tuple(c - h for c, h in zip(center, half)),
        tuple(c + h for c, h in zip(center, half)),
    )


regions = st.one_of(spheres(), rects())


def sample_points(region, rng_values):
    """Deterministic sample points inside the region's bounding box."""
    box = region.bounding_box()
    points = []
    for u, v in rng_values:
        points.append(
            tuple(
                lo + t * (hi - lo)
                for lo, hi, t in zip(box.lows, box.highs, (u, v))
            )
        )
    # Include the box corners and center.
    points.extend(box.corners())
    points.append(
        tuple((lo + hi) / 2 for lo, hi in zip(box.lows, box.highs))
    )
    return [p for p in points if region.contains_point(p)]


grid = [
    (u / 6.0, v / 6.0) for u in range(7) for v in range(7)
]


@given(first=regions, second=regions)
@settings(max_examples=300, deadline=None)
def test_relation_agrees_with_membership_oracle(first, second):
    relation = relate(first, second)
    first_points = sample_points(first, grid)
    second_points = sample_points(second, grid)

    if relation is RegionRelation.EQUAL:
        assert all(second.contains_point(p) for p in first_points)
        assert all(first.contains_point(p) for p in second_points)
    elif relation is RegionRelation.CONTAINS:
        assert all(first.contains_point(p) for p in second_points)
    elif relation is RegionRelation.CONTAINED:
        assert all(second.contains_point(p) for p in first_points)
    elif relation is RegionRelation.DISJOINT:
        assert not any(second.contains_point(p) for p in first_points)
        assert not any(first.contains_point(p) for p in second_points)


@given(first=regions, second=regions)
@settings(max_examples=300, deadline=None)
def test_relation_flip_is_consistent(first, second):
    assert relate(second, first) is relate(first, second).flip()


@given(region=regions)
@settings(max_examples=100, deadline=None)
def test_every_region_equals_itself(region):
    assert relate(region, region) is RegionRelation.EQUAL


@given(region=regions)
@settings(max_examples=100, deadline=None)
def test_bounding_box_contains_region_samples(region):
    box = region.bounding_box()
    for point in sample_points(region, grid):
        assert box.contains_point(point)
