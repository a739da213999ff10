"""Compiled local evaluation equals the interpreter it replaced.

``LocalEvaluator`` runs a plan compiled once per query template over
tuple positions.  Its reference lives here, not in ``src/``: the
dict-per-row region filter and the interpreted ORDER BY / TOP the
evaluator used to run, plus the template's output rules interpreted
over the same dicts.  For random regions of every template shape —
spheres (radial, nearest, the bookstore), rectangles (rect) and
polytopes (triangle) — both must produce the same rows, cell for cell;
and ``Region.point_test`` must decide exactly what ``contains_point``
and the per-shape formulas it replaced decide.
"""

import importlib.util
import math
import types
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.evaluation import LocalEvaluator
from repro.core.rewrite import to_result_scope
from repro.extensions.triangle import (
    TRIANGLE_TEMPLATE_ID,
    register_triangle_search,
)
from repro.geometry.regions import (
    EPSILON,
    ConvexPolytope,
    Halfspace,
    HyperRect,
    HyperSphere,
)
from repro.geometry.relations import RegionRelation, relate
from repro.relational.result import ResultTable, sort_rows
from repro.server.origin import OriginServer
from repro.skydata.generator import SkyCatalogConfig
from repro.templates.errors import TemplateError
from repro.templates.query_template import QueryTemplate
from repro.templates.skyserver_templates import (
    NEAREST_TEMPLATE_ID,
    RADIAL_SQL,
    RADIAL_TEMPLATE_ID,
    RECT_TEMPLATE_ID,
    radial_function_template,
)
from tests.interpreter import interpret, parameter_environment

SKY = SkyCatalogConfig(
    n_objects=2_000,
    ra_min=160.0,
    ra_max=168.0,
    dec_min=5.0,
    dec_max=11.0,
    seed=11,
)
MAGS = {"r_min": -9999.0, "r_max": 9999.0}
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


# ------------------------------------------------------------- reference
def interpreted_select(bound, entries):
    """The evaluator before compilation: one environment per cached
    row, the point expressions and the output rules interpreted."""
    template = bound.template
    ftemplate = template.function_template
    region = bound.region
    params = parameter_environment(
        dict(
            zip(ftemplate.params, bound.statement.source.argument_values())
        )
    )
    # Each rule writes the output column of the select item that reads
    # the function's column bare, whatever that column is named.
    binding = template.statement.source.binding_name.lower()
    _, defined_by = template.statement.output_scope
    targets = {
        output: rule
        for column, rule in ftemplate.outputs
        for output, expr in defined_by.items()
        if expr.to_sql().lower() in (column, f"{binding}.{column}")
    }
    collected = None
    for entry in entries:
        names = [name.lower() for name in entry.result.column_names]
        whole = relate(region, entry.region) in (
            RegionRelation.EQUAL, RegionRelation.CONTAINS
        )
        kept = []
        for row in entry.result.rows:
            env = dict(zip(names, row))
            point = tuple(
                float(interpret(expr, env)) for expr in ftemplate.point_exprs
            )
            if whole or region.contains_point(point):
                values = list(row)
                for output, rule in targets.items():
                    values[names.index(output)] = interpret(
                        rule, {**params, **env}
                    )
                kept.append(tuple(values))
        table = ResultTable(entry.result.schema, kept)
        collected = (
            table
            if collected is None
            else collected.merge_dedup(table, template.key_column)
        )
    return collected


def interpreted_finalize(bound, result):
    statement = bound.statement
    if statement.order_by:
        names = [name.lower() for name in result.column_names]

        def key(item):
            expr = to_result_scope(bound.template, item.expression)
            return (
                lambda row: interpret(expr, dict(zip(names, row))),
                item.descending,
            )

        result = ResultTable(
            result.schema,
            sort_rows(result.rows, [key(i) for i in statement.order_by]),
        )
    if statement.top is not None:
        result = result.top_n(statement.top)
    return result


# --------------------------------------------------------------- sources
def load_bookstore():
    spec = importlib.util.spec_from_file_location(
        "custom_function_template", EXAMPLES / "custom_function_template.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def sky():
    origin = OriginServer.skyserver(SKY)
    register_triangle_search(origin.catalog.functions, origin.templates)
    return origin


@pytest.fixture(scope="module")
def bookstore():
    module = load_bookstore()
    catalog = module.build_bookstore(n_books=600)
    return OriginServer(catalog, module.build_templates(catalog.functions))


def cached(origin, template_id, params, entry_id=0):
    """A cache entry for one call: the origin's rows and its region."""
    bound = origin.templates.bind(template_id, params)
    return types.SimpleNamespace(
        entry_id=entry_id,
        result=origin.execute_bound(bound).result,
        region=bound.region,
    )


def check(origin, template_id, entry_params, query_params, cached_as=None):
    """Compiled and interpreted evaluation of ``query_params`` over
    entries cached for ``entry_params`` (by ``cached_as``, default the
    query's own template)."""
    templates = origin.templates
    entries = [
        cached(origin, cached_as or template_id, params, entry_id)
        for entry_id, params in enumerate(entry_params)
    ]
    bound = templates.bind(template_id, query_params)
    inside = {
        entry.entry_id for entry in entries
        if relate(bound.region, entry.region)
        in (RegionRelation.EQUAL, RegionRelation.CONTAINS)
    }
    evaluator = LocalEvaluator()
    compiled = evaluator.finalize(
        bound, evaluator.select_in_region(bound, entries, inside).result
    )
    reference = interpreted_finalize(
        bound, interpreted_select(bound, entries)
    )
    assert compiled.column_names == reference.column_names
    assert list(compiled.rows) == list(reference.rows)
    return compiled


ra = st.floats(min_value=161.0, max_value=167.0)
dec = st.floats(min_value=6.0, max_value=10.0)
arcmin = st.floats(min_value=1.0, max_value=40.0)
half = st.floats(min_value=0.05, max_value=0.8)

SETTINGS = settings(max_examples=25, deadline=None)


# --------------------------------------------------------------- spheres
@SETTINGS
@given(ra=ra, dec=dec, radius=arcmin)
def test_radial(sky, ra, dec, radius):
    wide = {"ra": 164.0, "dec": 8.0, "radius": 45.0, **MAGS}
    beside = {**wide, "ra": 165.0, "radius": 30.0}
    query = {"ra": ra, "dec": dec, "radius": radius, **MAGS}
    check(sky, RADIAL_TEMPLATE_ID, [wide, beside], query)


@SETTINGS
@given(ra=ra, dec=dec, radius=arcmin)
def test_nearest_orders_by_the_recomputed_distance(sky, ra, dec, radius):
    """Over the radial rows of a cone that holds the query's (the
    nearest template's own entries are truncated), ORDER BY distance
    TOP 1 picks the origin's nearest object."""
    wide = {"ra": 164.0, "dec": 8.0, "radius": 300.0, **MAGS}
    query = {"ra": ra, "dec": dec, "radius": radius, **MAGS}
    compiled = check(
        sky, NEAREST_TEMPLATE_ID, [wide], query, cached_as=RADIAL_TEMPLATE_ID
    )
    bound = sky.templates.bind(NEAREST_TEMPLATE_ID, query)
    assert compiled == sky.execute_bound(bound).result


@SETTINGS
@given(
    price=st.floats(min_value=20.0, max_value=120.0),
    pages=st.integers(min_value=200, max_value=900),
    year=st.integers(min_value=1960, max_value=2000),
    distance=st.floats(min_value=0.02, max_value=0.2),
)
def test_bookstore_similarity(bookstore, price, pages, year, distance):
    wide = {"price": 70.0, "pages": 550, "year": 1980, "distance": 0.35}
    query = {
        "price": price, "pages": pages, "year": year, "distance": distance,
    }
    bounds = {"price_min": 0.0, "price_max": 10_000.0}
    check(
        bookstore,
        "bookstore.similar",
        [{**wide, **bounds}],
        {**query, **bounds},
    )


def test_bookstore_contained_answer_is_the_origins(bookstore):
    """The example's ``<Output name="similarity">`` rule gives the very
    floats ``fSimilarBooks`` computes for the narrower search."""
    bounds = {"price_min": 0.0, "price_max": 10_000.0}
    wide = {"price": 70.0, "pages": 550, "year": 1980, "distance": 0.35}
    inner = {"price": 72.0, "pages": 540, "year": 1981, "distance": 0.1}
    compiled = check(
        bookstore, "bookstore.similar", [{**wide, **bounds}],
        {**inner, **bounds},
    )
    bound = bookstore.templates.bind("bookstore.similar", {**inner, **bounds})
    want = bookstore.execute_bound(bound).result
    assert len(want) > 5
    assert Counter(compiled.rows) == Counter(want.rows)


# ------------------------------------------- select items and sort keys
VARIANTS = {
    # A column merely named ``distance`` is not the function's.
    "radial.r_as_distance": RADIAL_SQL.replace(
        "n.distance", "p.r AS distance"
    ),
    # The function's distance under another name is.
    "radial.distance_as_d": RADIAL_SQL.replace(
        "n.distance", "n.distance AS d, p.r AS distance"
    ),
    # Sort keys the closure compiler leaves to the interpreter.
    "radial.predicate_order": RADIAL_SQL + (
        " ORDER BY p.r > 18.0, p.type IN (3, 6), p.g IS NULL,"
        " n.distance DESC"
    ),
    "radial.zero_division_order": RADIAL_SQL + " ORDER BY p.r / (p.r - p.r)",
}
WIDE = {"ra": 164.0, "dec": 8.0, "radius": 45.0, **MAGS}
NARROW = {**WIDE, "ra": 164.1, "dec": 8.05, "radius": 20.0}


@pytest.fixture(scope="module")
def variants(sky):
    for template_id, sql in VARIANTS.items():
        sky.templates.register_query_template(
            QueryTemplate.from_sql(
                template_id, sql, radial_function_template(),
                key_column="objID",
            )
        )
    return sky


@pytest.mark.parametrize(
    "template_id", ["radial.r_as_distance", "radial.distance_as_d"]
)
def test_the_rule_rewrites_the_item_reading_the_column(variants, template_id):
    """The recompute writes the output column of the select item that
    reads ``n.distance`` bare, not whichever column is named
    ``distance``: a contained answer is the origin's either way."""
    compiled = check(variants, template_id, [WIDE], NARROW)
    bound = variants.templates.bind(template_id, NARROW)
    want = variants.execute_bound(bound).result
    assert len(want) > 5
    assert Counter(compiled.rows) == Counter(want.rows)


def test_predicate_sort_keys_order_like_the_origin(variants):
    compiled = check(variants, "radial.predicate_order", [WIDE], NARROW)
    bound = variants.templates.bind("radial.predicate_order", NARROW)
    assert compiled == variants.execute_bound(bound).result


def test_a_failing_sort_key_is_a_template_error(variants):
    entry = cached(variants, RADIAL_TEMPLATE_ID, WIDE)
    bound = variants.templates.bind("radial.zero_division_order", NARROW)
    evaluator = LocalEvaluator()
    local = evaluator.select_in_region(bound, [entry], ()).result
    with pytest.raises(TemplateError, match="cannot evaluate a cached"):
        evaluator.finalize(bound, local)


# ----------------------------------------------------------------- rects
@SETTINGS
@given(ra=ra, dec=dec, width=half, height=half)
def test_rect(sky, ra, dec, width, height):
    wide = {
        "ra_min": 162.0, "ra_max": 166.0, "dec_min": 6.5, "dec_max": 9.5,
        **MAGS,
    }
    query = {
        "ra_min": ra - width, "ra_max": ra + width,
        "dec_min": dec - height, "dec_max": dec + height,
        **MAGS,
    }
    check(sky, RECT_TEMPLATE_ID, [wide], query)


# ------------------------------------------------------------- polytopes
def triangle(ra, dec, size):
    return {
        "ra1": ra - size, "dec1": dec - size,
        "ra2": ra + size, "dec2": dec - size,
        "ra3": ra, "dec3": dec + size,
        **MAGS,
    }


@SETTINGS
@given(ra=ra, dec=dec, size=half)
def test_triangle(sky, ra, dec, size):
    check(
        sky,
        TRIANGLE_TEMPLATE_ID,
        [triangle(164.0, 8.0, 2.5)],
        triangle(ra, dec, size),
    )


# ------------------------------------------------------ point membership
def old_contains_point(region, point):
    """The per-shape tests ``point_test`` replaced, as they were."""
    if isinstance(region, HyperSphere):
        dist2 = sum((x - c) ** 2 for x, c in zip(point, region.center))
        return dist2 <= (region.radius + EPSILON) ** 2
    if isinstance(region, HyperRect):
        return all(
            lo - EPSILON <= x <= hi + EPSILON
            for x, lo, hi in zip(point, region.lows, region.highs)
        )
    return all(
        sum(n * x for n, x in zip(h.normal, point)) <= h.offset + EPSILON
        for h in region.halfspaces
    )


coordinate = st.floats(min_value=-2.0, max_value=2.0)
extent = st.floats(min_value=0.0, max_value=2.0)


@st.composite
def regions_and_points(draw):
    dims = draw(st.sampled_from((2, 3)))
    center = tuple(draw(coordinate) for _ in range(dims))
    kind = draw(st.sampled_from(("sphere", "rect", "polytope")))
    if kind == "sphere":
        region = HyperSphere(center, draw(extent))
    else:
        half = tuple(draw(extent) for _ in range(dims))
        box = HyperRect(
            tuple(c - h for c, h in zip(center, half)),
            tuple(c + h for c, h in zip(center, half)),
        )
        region = box
        if kind == "polytope":
            faces = [
                Halfspace(
                    tuple(draw(coordinate) for _ in range(dims - 1))
                    + (1.0,),
                    draw(coordinate),
                )
                for _ in range(draw(st.integers(1, 4)))
            ]
            region = ConvexPolytope(tuple(faces), box)
    point = tuple(draw(coordinate) for _ in range(dims))
    return region, point


@given(pair=regions_and_points(), pad=st.integers(0, 3))
@example(
    pair=(HyperSphere((0.0, 0.0, 0.0), 1.0), (1.0 + EPSILON, 0.0, 0.0)),
    pad=1,
)
def test_point_test_is_contains_point(pair, pad):
    region, point = pair
    # The point's coordinates at shuffled positions of a wider row.
    dims = len(point)
    positions = [pad + (dims - 1 - axis) for axis in range(dims)]
    row = [math.nan] * (pad + dims + 1)
    for axis, position in enumerate(positions):
        row[position] = point[axis]
    inside = region.point_test(positions)(tuple(row))
    assert inside == region.contains_point(point)
    assert inside == old_contains_point(region, point)
