"""The analyzer's grid prefilter never drops a related region."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry.regions import HyperSphere
from repro.workload.analyzer import _RegionSet

coordinate = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
radius = st.floats(min_value=0.001, max_value=0.5, allow_nan=False)

spheres = st.builds(
    lambda x, y, r: HyperSphere((x, y), r), coordinate, coordinate, radius
)


@given(stored=st.lists(spheres, min_size=1, max_size=25), probe=spheres)
# The y-edges 0.6000000000000001 and 0.6 intersect to within EPSILON
# but floor into different grid cells without the tolerance.
@example(
    stored=[HyperSphere((0.0, 1.1), 0.5)],
    probe=HyperSphere((0.0, 0.5), 0.1),
)
@settings(max_examples=200, deadline=None)
def test_candidates_superset_of_bbox_intersections(stored, probe):
    region_set = _RegionSet(cell=0.05)
    for region in stored:
        region_set.add(region)
    candidates = region_set.candidates(probe)
    probe_box = probe.bounding_box()
    for region in stored:
        if region.bounding_box().intersect(probe_box) is not None:
            assert any(c is region for c in candidates), (
                "grid prefilter dropped an intersecting region"
            )


@given(stored=st.lists(spheres, min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
def test_candidates_are_deduplicated(stored):
    region_set = _RegionSet(cell=0.05)
    for region in stored:
        region_set.add(region)
    big_probe = HyperSphere((0.0, 0.0), 5.0)
    candidates = region_set.candidates(big_probe)
    assert len({id(c) for c in candidates}) == len(candidates)
