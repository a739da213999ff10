"""A triangular sky search: the polytope region shape, end to end.

``fGetObjFromTriangle(ra1, dec1, ra2, dec2, ra3, dec3)`` returns the
objects inside the (flat-sky) triangle with the given vertices.  The
vertices **must be in counter-clockwise order**: for a CCW triangle,
each directed edge ``(p, q)`` bounds the interior with the halfspace

    (q_dec - p_dec) * ra + (p_ra - q_ra) * dec  <=  same expression at p

and exactly those three inequalities form the function template's
polytope.  The function rejects clockwise or degenerate vertex lists so
that its behaviour always matches the registered template.

Everything else — caching, containment answering, remainder queries —
falls out of the framework unchanged; the tests drive a zoomed-in
triangle query from the cache without contacting the origin.
"""

from __future__ import annotations

from typing import Any

from repro.relational.schema import Schema
from repro.relational.types import ColumnType
from repro.sqlparser.parser import parse_expression
from repro.templates.function_template import (
    FunctionTemplate,
    HalfspaceSpec,
    Shape,
)
from repro.templates.manager import TemplateManager
from repro.templates.query_template import QueryTemplate
from repro.udf.registry import FunctionRegistry, TableFunction, UdfError

TRIANGLE_TEMPLATE_ID = "skyserver.triangle"

TRIANGLE_SCHEMA = Schema.of(
    ("objID", ColumnType.INT),
    ("ra", ColumnType.FLOAT),
    ("dec", ColumnType.FLOAT),
    ("type", ColumnType.INT),
)

TRIANGLE_SQL = (
    "SELECT n.objID, n.ra, n.dec, n.type, p.u, p.g, p.r "
    "FROM fGetObjFromTriangle($ra1, $dec1, $ra2, $dec2, $ra3, $dec3) n "
    "JOIN PhotoPrimary p ON n.objID = p.objID "
    "WHERE p.r BETWEEN $r_min AND $r_max"
)


def _signed_area(vertices) -> float:
    (x1, y1), (x2, y2), (x3, y3) = vertices
    return 0.5 * ((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))


def _edge_halfspace_expr(p: int, q: int) -> HalfspaceSpec:
    """The template halfspace for the directed edge vertex p -> q."""
    normal = (
        parse_expression(f"$dec{q} - $dec{p}"),
        parse_expression(f"$ra{p} - $ra{q}"),
    )
    offset = parse_expression(
        f"($dec{q} - $dec{p}) * $ra{p} + ($ra{p} - $ra{q}) * $dec{p}"
    )
    return HalfspaceSpec(normal=normal, offset=offset)


def triangle_function_template() -> FunctionTemplate:
    """Polytope template: three edge halfspaces plus a vertex bbox."""
    return FunctionTemplate(
        name="fGetObjFromTriangle",
        params=("ra1", "dec1", "ra2", "dec2", "ra3", "dec3"),
        shape=Shape.POLYTOPE,
        dims=2,
        point_exprs=(parse_expression("ra"), parse_expression("dec")),
        low_exprs=(
            parse_expression("least($ra1, $ra2, $ra3)"),
            parse_expression("least($dec1, $dec2, $dec3)"),
        ),
        high_exprs=(
            parse_expression("greatest($ra1, $ra2, $ra3)"),
            parse_expression("greatest($dec1, $dec2, $dec3)"),
        ),
        halfspace_specs=(
            _edge_halfspace_expr(1, 2),
            _edge_halfspace_expr(2, 3),
            _edge_halfspace_expr(3, 1),
        ),
        description="Objects inside a CCW (ra, dec) triangle: a 2-d "
        "convex polytope of three halfspaces.",
    )


def triangle_query_template() -> QueryTemplate:
    return QueryTemplate.from_sql(
        template_id=TRIANGLE_TEMPLATE_ID,
        sql=TRIANGLE_SQL,
        function_template=triangle_function_template(),
        key_column="objID",
        description="Triangular sky search joined back to PhotoPrimary.",
    )


def register_triangle_search(
    registry: FunctionRegistry, templates: TemplateManager
) -> None:
    """Register the triangle TVF at the origin and its templates.

    The candidates are ``fGetObjFromRect``'s answer for the vertices'
    bounding box (by objID, read through the site's one zone index), so
    ``registry`` must hold the SkyServer library.
    """

    def f_get_obj_from_triangle(catalog, args) -> list[tuple[Any, ...]]:
        values = [float(a) for a in args]
        vertices = [(values[0], values[1]), (values[2], values[3]),
                    (values[4], values[5])]
        area = _signed_area(vertices)
        if area <= 0:
            raise UdfError(
                "fGetObjFromTriangle: vertices must be in counter-"
                "clockwise order and non-degenerate"
            )
        # Interior test: inside every CCW edge halfspace.
        edges = []
        for (px, py), (qx, qy) in (
            (vertices[0], vertices[1]),
            (vertices[1], vertices[2]),
            (vertices[2], vertices[0]),
        ):
            normal = (qy - py, px - qx)
            offset = normal[0] * px + normal[1] * py
            edges.append((normal, offset))

        ra_values = [v[0] for v in vertices]
        dec_values = [v[1] for v in vertices]
        box = registry.call_table(
            "fGetObjFromRect",
            catalog,
            [min(ra_values), max(ra_values), min(dec_values), max(dec_values)],
        )
        return [
            (object_id, ra, dec, object_type)
            for object_id, ra, dec, _, _, _, object_type in box
            if all(
                normal[0] * ra + normal[1] * dec <= offset + 1e-12
                for normal, offset in edges
            )
        ]

    registry.register_table(
        TableFunction(
            name="fGetObjFromTriangle",
            params=("ra1", "dec1", "ra2", "dec2", "ra3", "dec3"),
            schema=TRIANGLE_SCHEMA,
            impl=f_get_obj_from_triangle,
            deterministic=True,
            description="Objects inside a CCW (ra, dec) triangle.",
        )
    )
    templates.register_function_template(triangle_function_template())
    templates.register_query_template(triangle_query_template())
