"""Cache coherence: the data-version flush.

The determinism that justifies caching (paper property 1) holds only
while the base data is fixed.  When the origin announces a new data
version, the proxy must flush — otherwise it would keep serving
snapshots of the old database.
"""

import pytest

from repro.core.proxy import FunctionProxy
from repro.core.stats import QueryStatus
from repro.relational.catalog import Catalog
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.types import ColumnType
from repro.server.origin import OriginServer
from repro.sqlparser.parser import parse_expression
from repro.templates.function_template import FunctionTemplate, Shape
from repro.templates.manager import TemplateManager
from repro.templates.query_template import QueryTemplate
from repro.udf.registry import TableFunction


@pytest.fixture()
def mutable_origin():
    """A tiny origin whose TVF reads the table live (no frozen index),
    so appended rows become visible immediately."""
    catalog = Catalog()
    points = Table(
        "Points",
        Schema.of(
            ("id", ColumnType.INT),
            ("x", ColumnType.FLOAT),
            ("y", ColumnType.FLOAT),
        ),
        primary_key="id",
    )
    points.insert_many([(1, 1.0, 1.0), (2, 2.0, 2.0), (3, 9.0, 9.0)])
    catalog.add_table(points)

    def f_in_box(catalog_, args):
        x_min, x_max, y_min, y_max = (float(a) for a in args)
        return [
            row
            for row in points.rows
            if x_min <= row[1] <= x_max and y_min <= row[2] <= y_max
        ]

    catalog.functions.register_table(
        TableFunction(
            name="fInBox",
            params=("x_min", "x_max", "y_min", "y_max"),
            schema=points.schema,
            impl=f_in_box,
        )
    )
    templates = TemplateManager(catalog.functions)
    ftemplate = FunctionTemplate(
        name="fInBox",
        params=("x_min", "x_max", "y_min", "y_max"),
        shape=Shape.HYPERRECT,
        dims=2,
        point_exprs=(parse_expression("x"), parse_expression("y")),
        low_exprs=(
            parse_expression("$x_min"), parse_expression("$y_min"),
        ),
        high_exprs=(
            parse_expression("$x_max"), parse_expression("$y_max"),
        ),
    )
    templates.register_function_template(ftemplate)
    templates.register_query_template(
        QueryTemplate.from_sql(
            "points.box",
            "SELECT id, x, y FROM fInBox($x_min, $x_max, $y_min, $y_max) n",
            ftemplate,
            key_column="id",
        )
    )
    origin = OriginServer(catalog, templates)
    return origin, points


BOX = {"x_min": 0.0, "x_max": 5.0, "y_min": 0.0, "y_max": 5.0}


def ids(result):
    key = result.schema.position("id")
    return {row[key] for row in result.rows}


def test_stale_cache_flushes_on_version_bump(mutable_origin):
    origin, points = mutable_origin
    proxy = FunctionProxy(origin, origin.templates)
    bound = origin.templates.bind("points.box", BOX)

    first = proxy.serve(bound)
    assert ids(first.result) == {1, 2}

    # The database changes: a new point lands inside the cached region.
    points.insert((4, 3.0, 3.0))

    # Without a version bump the proxy (correctly, per its contract)
    # still serves the cached snapshot.
    stale = proxy.serve(bound)
    assert stale.record.status is QueryStatus.EXACT
    assert ids(stale.result) == {1, 2}

    # After the bump, the cache flushes and the fresh row appears.
    origin.bump_data_version()
    fresh = proxy.serve(bound)
    assert fresh.record.contacted_origin
    assert ids(fresh.result) == {1, 2, 4}
    assert proxy.invalidations == 1


def test_flush_empties_cache_completely(mutable_origin):
    origin, _points = mutable_origin
    proxy = FunctionProxy(origin, origin.templates)
    proxy.serve(origin.templates.bind("points.box", BOX))
    other = dict(BOX, x_min=6.0, x_max=12.0, y_min=6.0, y_max=12.0)
    proxy.serve(origin.templates.bind("points.box", other))
    assert len(proxy.cache) == 2

    origin.bump_data_version()
    proxy.serve(origin.templates.bind("points.box", BOX))
    # Only the re-fetched entry remains.
    assert len(proxy.cache) == 1


def test_origin_without_version_is_treated_as_immutable(mutable_origin):
    origin, _points = mutable_origin
    proxy = FunctionProxy(origin, origin.templates)
    del origin.data_version  # an origin that never exposes versions
    proxy.serve(origin.templates.bind("points.box", BOX))
    repeat = proxy.serve(origin.templates.bind("points.box", BOX))
    assert repeat.record.status is QueryStatus.EXACT
    assert proxy.invalidations <= 1  # at most the initial transition
