"""The origin's template plans against the SQL they replaced.

A query template is planned once and run per query
(``OriginServer.execute_bound``), and a remainder runs the same plan
with its holes as a row filter (``execute_remainder``,
``hole_filter``).  Neither is its own oracle here: each is compared
with what the origin did before — the free-SQL path (``execute_sql``)
over the bound statement's text, and over the remainder statement with
one ``AND NOT <hole predicate>`` per hole (:mod:`tests.remainder_sql`).
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.extensions.triangle import (
    TRIANGLE_TEMPLATE_ID,
    register_triangle_search,
    triangle_function_template,
)
from repro.geometry.regions import EPSILON, HyperRect, HyperSphere
from repro.relational.errors import RelationalError
from repro.relational.expressions import Not
from repro.server.origin import OriginServer, hole_filter
from repro.templates.errors import TemplateError
from repro.templates.skyserver_templates import (
    NEAREST_TEMPLATE_ID,
    RADIAL_TEMPLATE_ID,
    RECT_TEMPLATE_ID,
    radial_function_template,
    rect_function_template,
)
from repro.workload.generator import RadialTraceConfig, generate_radial_trace
from repro.workload.rect_generator import RectTraceConfig, generate_rect_trace
from tests.conftest import SMALL_SKY
from tests.interpreter import evaluate
from tests.remainder_sql import region_predicate, remainder_statement


@pytest.fixture(scope="module")
def site():
    """A private origin with all four templates, the triangle too."""
    origin = OriginServer.skyserver(SMALL_SKY)
    register_triangle_search(
        origin.catalog.functions,
        origin.catalog.table("PhotoPrimary"),
        origin.templates,
    )
    return origin


def outcome(execute):
    """A result, or the type and text of what refused it."""
    try:
        return execute().result
    except (RelationalError, TemplateError) as exc:
        return type(exc).__name__, str(exc)


# ------------------------------------------------------ template plans
#: Coordinates on the small sky (ra 160..168, dec 5..11) and past it.
ra = st.one_of(st.integers(158, 170), st.floats(158.0, 170.0))
dec = st.one_of(st.integers(3, 13), st.floats(3.0, 13.0))
size = st.one_of(st.integers(1, 40), st.floats(0.01, 40.0))
magnitudes = st.one_of(
    st.just({"r_min": -9999.0, "r_max": 9999.0}),
    st.builds(
        lambda low, width: {"r_min": low, "r_max": low + width},
        st.floats(10.0, 25.0),
        st.floats(0.0, 6.0),
    ),
)


@st.composite
def queries(draw):
    """(template id, parameters) over the four built-in templates."""
    a, b, s = draw(ra), draw(dec), draw(size)
    degrees = s / 60
    template_id, params = draw(
        st.sampled_from(
            [
                (RADIAL_TEMPLATE_ID, {"ra": a, "dec": b, "radius": s}),
                (NEAREST_TEMPLATE_ID, {"ra": a, "dec": b, "radius": s}),
                (
                    RECT_TEMPLATE_ID,
                    {"ra_min": a, "ra_max": a + degrees,
                     "dec_min": b, "dec_max": b + degrees},
                ),
                (
                    TRIANGLE_TEMPLATE_ID,
                    {"ra1": a - degrees, "dec1": b - degrees,
                     "ra2": a + degrees, "dec2": b - degrees,
                     "ra3": a, "dec3": b + degrees},
                ),
            ]
        )
    )
    return template_id, {**params, **draw(magnitudes)}


class TestTemplatePlan:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @example(query=(RADIAL_TEMPLATE_ID,
                    {"ra": 164.0, "dec": 8.0, "radius": 10.0,
                     "r_min": -9999.0, "r_max": 9999.0}))
    @example(query=(NEAREST_TEMPLATE_ID,
                    {"ra": 164.0, "dec": 8.0, "radius": 3,
                     "r_min": 18.0, "r_max": 22.5}))
    @example(query=(RECT_TEMPLATE_ID,
                    {"ra_min": 165, "ra_max": 164, "dec_min": 7,
                     "dec_max": 8, "r_min": -9999.0, "r_max": 9999.0}))
    @given(query=queries())
    def test_a_plan_answers_what_the_bound_sql_answers(self, site, query):
        template_id, params = query
        bound = site.templates.bind(template_id, params)
        planned = outcome(lambda: site.execute_bound(bound))
        free = outcome(lambda: site.execute_sql(bound.statement.to_sql()))
        assert planned == free

    def test_the_plan_is_built_once_per_template_object(self, site):
        params = {"ra": 164.0, "dec": 8.0, "radius": 5.0,
                  "r_min": -9999.0, "r_max": 9999.0}
        site.execute_bound(site.templates.bind(RADIAL_TEMPLATE_ID, params))
        plan = site._plans[RADIAL_TEMPLATE_ID]
        site.execute_bound(
            site.templates.bind(RADIAL_TEMPLATE_ID, dict(params, ra=165.0))
        )
        assert site._plans[RADIAL_TEMPLATE_ID] is plan


# --------------------------------------------------------- hole filter
def maybe_null(draw, point):
    """``point`` with (now and then) one coordinate NULL."""
    if draw(st.integers(0, 5)) == 0:
        point[draw(st.integers(0, len(point) - 1))] = None
    return point


coordinate = st.floats(-2.0, 2.0, allow_nan=False)
extent = st.floats(1e-3, 1.0)


@st.composite
def sphere_cases(draw):
    center = [draw(coordinate) for _ in range(3)]
    hole = HyperSphere(center, draw(extent))
    kind = draw(st.sampled_from(["random", "boundary", "shell"]))
    if kind == "random":
        point = [c + draw(st.floats(-2.0, 2.0)) * hole.radius
                 for c in hole.center]
    else:
        point = list(hole.center)
        axis = draw(st.integers(0, 2))
        reach = hole.radius + (EPSILON / 2 if kind == "shell" else 0.0)
        point[axis] += draw(st.sampled_from([-1.0, 1.0])) * reach
    return kind, hole, maybe_null(draw, point)


@st.composite
def rect_cases(draw):
    lows = [draw(coordinate) for _ in range(2)]
    hole = HyperRect(lows, [low + draw(extent) for low in lows])
    kind = draw(st.sampled_from(["random", "boundary", "shell"]))
    bounds = list(zip(hole.lows, hole.highs))
    if kind == "random":
        point = [draw(st.floats(lo - (hi - lo), hi + (hi - lo)))
                 for lo, hi in bounds]
    elif kind == "boundary":
        point = [draw(st.sampled_from([lo, hi, (lo + hi) / 2]))
                 for lo, hi in bounds]
    else:
        point = [(lo + hi) / 2 for lo, hi in bounds]
        axis = draw(st.integers(0, 1))
        lo, hi = bounds[axis]
        point[axis] = draw(
            st.sampled_from([lo - EPSILON / 2, hi + EPSILON / 2])
        )
    return kind, hole, maybe_null(draw, point)


TRIANGLE = triangle_function_template()


@st.composite
def polytope_cases(draw):
    a, b = draw(coordinate), draw(coordinate)
    s = draw(extent)
    vertices = [(a - s, b - s), (a + s, b - s), (a, b + s)]
    hole = TRIANGLE.region_for(
        dict(zip(TRIANGLE.params, [x for vertex in vertices for x in vertex]))
    )
    kind = draw(st.sampled_from(["random", "boundary", "shell"]))
    if kind == "random":
        point = [a + draw(st.floats(-2.0, 2.0)) * s,
                 b + draw(st.floats(-2.0, 2.0)) * s]
    else:
        x, y = draw(st.sampled_from(vertices))
        step = EPSILON / 2 if kind == "shell" else 0.0
        point = [x + (x - a) * step / s, y + (y - b) * step / s]
    return kind, hole, maybe_null(draw, point)


def sql_excludes(ftemplate, hole, point) -> bool:
    """The remainder SQL's verdict: the row goes unless ``NOT <hole>``
    is true."""
    env = {
        expr.name.lower(): value
        for expr, value in zip(ftemplate.point_exprs, point)
    }
    return evaluate(Not(region_predicate(ftemplate, hole)), env) is not True


SHAPES = {
    "sphere": (sphere_cases(), radial_function_template()),
    "rect": (rect_cases(), rect_function_template()),
    "polytope": (polytope_cases(), TRIANGLE),
}


class TestHoleFilter:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_the_filter_is_the_sql_predicate(self, shape):
        cases, ftemplate = SHAPES[shape]

        @settings(max_examples=400, deadline=None, derandomize=True)
        @given(case=cases)
        def check(case):
            kind, hole, point = case
            excluded = hole_filter([hole], ftemplate.dims)(point)
            assert excluded == sql_excludes(ftemplate, hole, point)
            if kind == "shell" and None not in point and shape != "polytope":
                # The trap: inside the widened test, outside the SQL.
                # (A polytope widens n . x, not the distance, so a
                # shell point may fall outside its widened test too.)
                assert hole.contains_point(point) and not excluded

        check()

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_many_holes_exclude_what_any_one_does(self, shape):
        cases, ftemplate = SHAPES[shape]

        @settings(max_examples=100, deadline=None, derandomize=True)
        @given(found=st.lists(cases, min_size=2, max_size=4))
        def check(found):
            holes = [hole for _, hole, _ in found]
            inside = hole_filter(holes, ftemplate.dims)
            for _, _, point in found:
                assert inside(point) == any(
                    sql_excludes(ftemplate, hole, point) for hole in holes
                )

        check()

    def test_a_hole_the_filter_cannot_test_is_refused(self):
        sphere = HyperSphere((0.0, 0.0, 1.0), 0.1)
        with pytest.raises(TemplateError, match="at least one hole"):
            hole_filter([], 3)
        with pytest.raises(TemplateError, match="3-d remainder hole"):
            hole_filter([sphere], 2)


# -------------------------------------------------- remainders on traces
def trace_remainders(trace, n_holes_cycle=(1, 2, 3)):
    """Each query with the regions of the queries just before it as its
    holes (the shape of an overlap's remainder)."""
    queries = list(trace)
    for index in range(1, len(queries)):
        n_holes = n_holes_cycle[index % len(n_holes_cycle)]
        yield queries[index], queries[max(0, index - n_holes):index]


@pytest.mark.parametrize(
    "trace",
    [
        generate_radial_trace(
            RadialTraceConfig(n_queries=80, sky=SMALL_SKY, seed=5)
        ),
        generate_rect_trace(
            RectTraceConfig(n_queries=80, sky=SMALL_SKY, seed=6)
        ),
    ],
    ids=["radial", "rect"],
)
def test_a_remainder_answers_what_its_sql_answers(site, trace):
    cut = 0
    for query, before in trace_remainders(trace):
        bound = site.templates.bind(query.template_id, query.param_dict())
        holes = [
            site.templates.bind(q.template_id, q.param_dict()).region
            for q in before
        ]
        planned = site.execute_remainder(bound, holes).result
        sql = remainder_statement(bound, holes).to_sql()
        assert planned == site.execute_sql(sql).result
        cut += len(planned) < len(site.execute_bound(bound).result)
    assert cut > 10  # the holes did exclude rows


def test_threads_share_the_plans(site):
    """Many threads forward and ask for remainders through one origin
    whose plans they build and share: every answer is the serial one."""
    origin = OriginServer(site.catalog, site.templates)
    trace = list(
        generate_radial_trace(
            RadialTraceConfig(n_queries=24, sky=SMALL_SKY, seed=7)
        )
    )
    bounds = [
        site.templates.bind(q.template_id, q.param_dict()) for q in trace
    ]
    jobs = [(bound, [bounds[i - 1].region] if i % 2 else None)
            for i, bound in enumerate(bounds)]

    def answer(job):
        bound, holes = job
        if holes is None:
            return origin.execute_bound(bound).result
        return origin.execute_remainder(bound, holes).result

    expected = [answer(job) for job in jobs]
    origin._plans.clear()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(3):
                got = list(pool.map(answer, jobs, timeout=60))
                assert got == expected
                origin._plans.clear()
    finally:
        sys.setswitchinterval(switch)
