"""The flat probe: both descriptions against the ``HyperRect`` oracle.

The descriptions keep each entry's bounding box as plain float tuples,
built once at ``add``, and compare numbers on a probe.  The reference
they must reproduce exactly is the comparison they replaced::

    entry.region.bounding_box().intersect(query.bounding_box()) is not None

for every shape a template can produce, at the edges where a rewritten
comparison would first go wrong: zero-radius spheres, boxes that touch
or miss by a fraction of EPSILON, and inverted (``low > high``) boxes.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import CacheEntry, CacheManager
from repro.core.description import ArrayDescription, RTreeDescription
from repro.geometry.regions import (
    EPSILON,
    ConvexPolytope,
    Halfspace,
    HyperRect,
    HyperSphere,
)
from repro.relational.result import ResultTable
from repro.relational.schema import Schema
from repro.templates.skyserver_templates import (
    RADIAL_TEMPLATE_ID,
    RECT_TEMPLATE_ID,
)

TEMPLATE = "flat"
DESCRIPTIONS = [ArrayDescription, RTreeDescription]


def entry_for(entry_id, region, template_id=TEMPLATE):
    return CacheEntry(
        entry_id=entry_id,
        template_id=template_id,
        cache_key=(template_id, entry_id),
        region=region,
        signature="",
        truncated=False,
        byte_size=100,
        row_count=10,
        result=ResultTable.empty(Schema.of()),
    )


def reference(live, query):
    """Insertion-ordered ids the replaced comparison would keep."""
    box = query.bounding_box()
    return [
        entry.entry_id
        for entry in live.values()
        if entry.region.bounding_box().intersect(box) is not None
    ]


# Coordinates sit on a coarse grid, nudged by fractions and multiples
# of EPSILON, so touching and just-missing boxes are the common case
# rather than a measure-zero accident.
coordinates = st.builds(
    lambda cell, nudge: cell + nudge,
    st.integers(-2, 2).map(float),
    st.sampled_from(
        [0.0, EPSILON / 2, -EPSILON / 2, EPSILON, 2 * EPSILON, -2 * EPSILON]
    ),
)
points = st.tuples(coordinates, coordinates)
# Half-widths include zero (a point) and negatives (low > high).
half_widths = st.sampled_from([0.0, EPSILON / 2, 0.5, 1.0, 2.5, -0.25, -1.0])


def box_around(center, half_widths):
    return HyperRect(
        tuple(c - h for c, h in zip(center, half_widths)),
        tuple(c + h for c, h in zip(center, half_widths)),
    )


def polytope(center, widths):
    """A diamond's halfspaces inside an arbitrary (declared) bbox: the
    description must use the declared box, not the facets."""
    facets = tuple(
        Halfspace((sx, sy), sx * center[0] + sy * center[1] + 1.0)
        for sx in (1.0, -1.0)
        for sy in (1.0, -1.0)
    )
    return ConvexPolytope(facets, box_around(center, widths))


regions = st.one_of(
    st.builds(
        HyperSphere,
        points,
        st.sampled_from([0.0, EPSILON / 2, 0.5, 1.0, 2.5]),
    ),
    st.builds(
        box_around, points, st.tuples(half_widths, half_widths)
    ),
    st.builds(polytope, points, st.tuples(half_widths, half_widths)),
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), regions),
        st.tuples(st.just("remove"), st.integers(0, 10_000)),
        st.tuples(st.just("probe"), regions),
    ),
    min_size=1,
    max_size=80,
)


@pytest.mark.parametrize("kind", DESCRIPTIONS)
@given(ops=operations, final_probes=st.lists(regions, min_size=1, max_size=6))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_candidates_equal_the_box_intersection_oracle(kind, ops, final_probes):
    # A small fan-out so 80 operations split and condense the tree.
    description = (
        RTreeDescription(max_entries=4)
        if kind is RTreeDescription
        else ArrayDescription()
    )
    live = {}
    next_id = 1

    def check(query):
        found, _probe_ms = description.candidates(TEMPLATE, query)
        ids = [entry.entry_id for entry in found]
        if kind is ArrayDescription:
            assert ids == reference(live, query)  # insertion order
        else:
            assert sorted(ids) == sorted(reference(live, query))

    for action, argument in ops:
        if action == "add":
            live[next_id] = entry_for(next_id, argument)
            description.add(live[next_id])
            next_id += 1
        elif action == "remove":
            if not live:
                continue
            victim = sorted(live)[argument % len(live)]
            description.remove(live.pop(victim))
        else:
            check(argument)
        if kind is RTreeDescription and TEMPLATE in description._trees:
            tree = description._trees[TEMPLATE]
            tree.check_invariants()
            assert len(tree) == len(live)
    for query in final_probes:
        check(query)


@pytest.mark.parametrize("kind", DESCRIPTIONS)
def test_nan_coordinates_stay_candidates_as_intersect_keeps_them(kind):
    """``intersect`` never rejects on a NaN axis (every ``>`` is
    false); a form input of ``nan`` must not change what is probed."""
    nan = float("nan")
    description = kind()
    live = {
        1: entry_for(1, HyperSphere((0.0, 0.0), 1.0)),
        2: entry_for(2, HyperSphere((nan, 0.0), 1.0)),
        3: entry_for(3, HyperSphere((5.0, 5.0), 1.0)),
    }
    for entry in live.values():
        description.add(entry)
    for query in (HyperSphere((nan, 0.5), 1.0), HyperSphere((0.5, 0.5), 1.0)):
        found, _ = description.candidates(TEMPLATE, query)
        assert sorted(e.entry_id for e in found) == reference(live, query)


def scan_reference(live, query):
    """Insertion-ordered ids the flat linear scan keeps: the four
    comparisons on every axis of every live entry.  It differs from
    ``intersect`` only on a box with a NaN on one edge of an axis,
    which the scan rejects by its other edge."""
    box = query.bounding_box()

    def kept(entry):
        own = entry.region.bounding_box()
        return not any(
            lo > q_hi + EPSILON
            or q_lo > hi + EPSILON
            or lo > hi + EPSILON
            or q_lo > q_hi + EPSILON
            for lo, hi, q_lo, q_hi in zip(
                own.lows, own.highs, box.lows, box.highs
            )
        )

    return [entry.entry_id for entry in live.values() if kept(entry)]


def check_array(description, live, queries, oracle=reference):
    for query in queries:
        found, _ = description.candidates(TEMPLATE, query)
        assert [e.entry_id for e in found] == oracle(live, query)


def add_all(description, regions, first_id=1):
    live = {}
    for entry_id, region in enumerate(regions, first_id):
        live[entry_id] = entry_for(entry_id, region)
        description.add(live[entry_id])
    return live


def test_array_sorts_on_a_spread_axis_when_one_is_degenerate():
    """Every box at z = 0 (the scalability bench's grid): the array
    must not sort on z, where every low edge is equal."""
    description = ArrayDescription()
    live = add_all(
        description,
        [
            HyperSphere((i % 9 * 0.3, i // 9 * 0.2, 0.0), 0.25)
            for i in range(90)
        ],
    )
    assert description._zones[TEMPLATE].axis != 2
    queries = [
        HyperSphere((x * 0.35, y * 0.45, 0.0), r)
        for x in range(8)
        for y in range(5)
        for r in (0.0, 0.3)
    ] + [HyperRect((-9.0, -9.0, -EPSILON), (9.0, 9.0, -EPSILON))]
    check_array(description, live, queries)


def test_array_probe_after_the_widest_box_leaves():
    description = ArrayDescription()
    live = add_all(
        description,
        [HyperRect((0.0, 0.0), (5.0, 1.0))]
        + [HyperSphere((i * 0.5, (i % 3) * 0.5), 0.1) for i in range(12)],
    )
    queries = [HyperSphere((x * 0.4, 0.5), 0.05) for x in range(16)]
    check_array(description, live, queries)
    description.remove(live.pop(1))
    check_array(description, live, queries)
    live.update(
        add_all(description, [HyperRect((2.0, -1.0), (3.0, 2.0))], 100)
    )
    check_array(description, live, queries)


def test_array_nan_on_the_sort_axis():
    """A NaN edge on the sort axis cannot be bisected: such a row is
    read by every probe, and a query with such a NaN reads every row,
    as the scan did."""
    nan = float("nan")
    description = ArrayDescription()
    live = add_all(
        description,
        [HyperSphere((0.0, y * 1.0), 0.5) for y in range(6)]
        + [
            HyperSphere((0.0, nan), 0.5),
            HyperRect((-0.5, 2.0), (0.5, nan)),
            HyperRect((-0.5, nan), (0.5, 9.0)),
            HyperRect((-0.5, 30.0), (0.5, 30.0)),
        ],
    )
    zone = description._zones[TEMPLATE]
    assert zone.axis == 1
    assert len(zone.side) == 3
    queries = [
        HyperSphere((0.0, nan), 1.0),
        HyperRect((-1.0, nan), (1.0, 2.0)),
        HyperRect((-1.0, 2.0), (1.0, nan)),
        HyperSphere((0.0, 3.0), 0.2),
        HyperSphere((nan, 3.0), 0.2),
        HyperSphere((0.0, 40.0), 0.2),
        HyperRect((-1.0, -50.0), (1.0, -40.0)),
    ]
    check_array(description, live, queries, scan_reference)
    for entry_id in (8, 3, 7):
        description.remove(live.pop(entry_id))
        check_array(description, live, queries, scan_reference)


def test_array_many_equal_sort_keys():
    """Equal low edges keep their add order, and ``remove`` takes out
    exactly the row it names among them."""
    description = ArrayDescription()
    live = add_all(
        description,
        [HyperRect((1.0, y * 0.1), (1.0 + w, y * 0.1 + 0.5))
         for y in range(4)
         for w in (0.0, 2.0, 0.5, 1.0)]
        + [HyperRect((0.0, 0.0), (9.0, 0.0))],
    )
    queries = [
        HyperSphere((x * 0.5, y * 0.25), 0.1)
        for x in range(8)
        for y in range(4)
    ]
    check_array(description, live, queries)
    for victim in (6, 2, 14, 15, 1, 9):
        description.remove(live.pop(victim))
        check_array(description, live, queries)
    live.update(add_all(description, [HyperRect((1.0, 0.0), (2.0, 0.2))], 50))
    check_array(description, live, queries)


@pytest.fixture()
def hyperrects_built(monkeypatch):
    """Counts every ``HyperRect`` constructed, by any route."""
    built = []
    checked_init = HyperRect.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        checked_init(self, *args, **kwargs)

    monkeypatch.setattr(HyperRect, "__init__", counting_init)
    return built


@pytest.mark.parametrize("kind", DESCRIPTIONS)
def test_no_box_is_built_per_entry_or_per_node(kind, hyperrects_built):
    """One probe over 1,000 entries, one add, one remove: only the
    query's own box and the added entry's box are constructed."""
    description = kind()
    entries = [
        entry_for(i + 1, HyperSphere((i % 32 * 0.1, i // 32 * 0.1, 0.0), 0.15))
        for i in range(1_001)
    ]
    for entry in entries[:1_000]:
        description.add(entry)
    query = HyperSphere((1.6, 1.6, 0.0), 0.3)

    del hyperrects_built[:]
    found, _ = description.candidates(TEMPLATE, query)
    assert len(found) > 8  # spread over several leaves of the tree
    assert len(hyperrects_built) == 1

    del hyperrects_built[:]
    description.add(entries[1_000])
    assert len(hyperrects_built) == 1

    del hyperrects_built[:]
    description.remove(entries[500])
    assert len(hyperrects_built) == 0


@pytest.mark.parametrize("kind", DESCRIPTIONS)
def test_boxes_reaching_a_description_were_checked_at_the_boundary(
    kind, templates, origin, monkeypatch
):
    """The descriptions read ``lows``/``highs`` without looking at
    them again, so every region ``TemplateManager.bind`` hands them —
    and the box built from it at ``add`` — must have been through the
    validating, float-coercing constructors."""
    checked = []
    for shape in (HyperSphere, HyperRect):
        post_init = shape.__post_init__

        def recording(self, post_init=post_init):
            post_init(self)
            checked.append(self)

        monkeypatch.setattr(shape, "__post_init__", recording)
    mags = {"r_min": -9999, "r_max": 9999}
    cache = CacheManager(kind())
    for template_id, params in (
        (RADIAL_TEMPLATE_ID, {"ra": 164, "dec": 8, "radius": 10, **mags}),
        (
            RECT_TEMPLATE_ID,
            {"ra_min": 163, "ra_max": 164, "dec_min": 7, "dec_max": 8, **mags},
        ),
    ):
        del checked[:]
        bound = templates.bind(template_id, params)  # integer form inputs
        entry, _ = cache.store(
            bound, origin.execute_bound(bound).result, "sig", False
        )
        box = entry.region.bounding_box()
        assert any(seen is entry.region for seen in checked)
        assert box in checked  # the box ``add`` built, or the rect itself
        assert all(type(x) is float for x in box.lows + box.highs)
        found, _ = cache.description.candidates(template_id, bound.region)
        assert found == [entry]


@pytest.mark.parametrize("kind", DESCRIPTIONS)
def test_probe_never_raises_while_another_thread_stores(
    kind, templates, origin, radial_params
):
    """``store`` adds and evicts under ``proxy.cache``, and the serve
    path's probe, ``CacheManager.candidates``, takes the same lock: the
    array's bisect and slice never see a list that moved between them."""
    bounds = [
        templates.bind(
            RADIAL_TEMPLATE_ID,
            dict(radial_params, ra=162.0 + i * 0.1, radius=3.0 + i % 5),
        )
        for i in range(40)
    ]
    results = [origin.execute_bound(bound).result for bound in bounds]
    budget = 6 * max(result.byte_size() for result in results)
    cache = CacheManager(kind(), max_bytes=budget)
    iterations = 2_000
    failures = []
    done = threading.Event()

    def store():
        try:
            for i in range(iterations):
                slot = i % len(bounds)
                cache.store(bounds[slot], results[slot], "sig", False)
        except Exception as error:  # surfaced by the assertion below
            failures.append(error)
        finally:
            done.set()

    def probe():
        try:
            i = 0
            while not done.is_set() or i < iterations:
                cache.candidates(
                    RADIAL_TEMPLATE_ID, bounds[i % len(bounds)].region
                )
                i += 1
        except Exception as error:
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=store), threading.Thread(target=probe)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert cache.evictions > 0
