"""Built-in templates for the SkyServer search forms.

These reproduce the paper's two worked examples:

* the **Radial** search form (Figure 1/2), backed by
  ``fGetNearbyObjEq`` and abstracted as a 3-d hypersphere around the
  search direction's unit vector (Figure 3) — the angular radius in
  arcminutes maps to the chord ``2 * sin(radians(radius / 60) / 2)``;
* the **Rectangular** search form, backed by ``fGetObjFromRect`` and
  abstracted as a 2-d rectangle in (ra, dec).

Both query templates join the function result with PhotoPrimary on
``objID`` for attribute expansion (the paper's semantics-preserving
join) and carry an r-band magnitude range as the "other predicates".
The magnitude bounds default to the full range in the info files, so a
plain form submission has no effective extra filter.
"""

from __future__ import annotations

from repro.sqlparser.parser import parse_expression
from repro.templates.function_template import FunctionTemplate, Shape
from repro.templates.info_file import TemplateInfoFile
from repro.templates.manager import TemplateManager
from repro.templates.query_template import QueryTemplate

RADIAL_TEMPLATE_ID = "skyserver.radial"
RECT_TEMPLATE_ID = "skyserver.rect"
NEAREST_TEMPLATE_ID = "skyserver.nearest"

RADIAL_FORM = "Radial"
RECT_FORM = "Rectangular"
NEAREST_FORM = "Nearest"

# Wide-open magnitude defaults: no effective r-band filter.
MAG_MIN_DEFAULT = -9999.0
MAG_MAX_DEFAULT = 9999.0

RADIAL_SQL = (
    "SELECT p.objID, p.ra, p.dec, p.cx, p.cy, p.cz, p.type, "
    "p.u, p.g, p.r, p.i, p.z, n.distance "
    "FROM fGetNearbyObjEq($ra, $dec, $radius) n "
    "JOIN PhotoPrimary p ON n.objID = p.objID "
    "WHERE p.r BETWEEN $r_min AND $r_max"
)

RECT_SQL = (
    "SELECT p.objID, p.ra, p.dec, p.cx, p.cy, p.cz, p.type, "
    "p.u, p.g, p.r, p.i, p.z "
    "FROM fGetObjFromRect($ra_min, $ra_max, $dec_min, $dec_max) n "
    "JOIN PhotoPrimary p ON n.objID = p.objID "
    "WHERE p.r BETWEEN $r_min AND $r_max"
)

# The nearest-object search: the SkyServer's fGetNearestObjEq is the
# TOP-1-by-distance cut of the radial search.  Such results are
# truncated region answers, so the proxy caches them for exact-match
# reuse only (the truncation guard makes this safe automatically).
NEAREST_SQL = (
    "SELECT TOP 1 p.objID, p.ra, p.dec, p.cx, p.cy, p.cz, p.type, "
    "p.u, p.g, p.r, p.i, p.z, n.distance "
    "FROM fGetNearbyObjEq($ra, $dec, $radius) n "
    "JOIN PhotoPrimary p ON n.objID = p.objID "
    "WHERE p.r BETWEEN $r_min AND $r_max "
    "ORDER BY n.distance"
)


#: ``n.distance`` is measured from the call's centre: the chord from the
#: centre's unit vector to the object's, in arcminutes — the same float
#: operations ``nearby_rows`` performs, so a recomputed cell equals the
#: origin's with ``==``.
RADIAL_DISTANCE_RULE = (
    "degrees(2.0 * asin(least(dist("
    "cos(radians($ra)) * cos(radians($dec)), "
    "sin(radians($ra)) * cos(radians($dec)), "
    "sin(radians($dec)), cx, cy, cz), 2.0) / 2.0)) * 60.0"
)


def radial_function_template() -> FunctionTemplate:
    """The paper's Figure 3 template for ``fGetNearbyObjEq``."""
    return FunctionTemplate(
        name="fGetNearbyObjEq",
        params=("ra", "dec", "radius"),
        shape=Shape.HYPERSPHERE,
        dims=3,
        center_exprs=(
            parse_expression("cos(radians($ra)) * cos(radians($dec))"),
            parse_expression("sin(radians($ra)) * cos(radians($dec))"),
            parse_expression("sin(radians($dec))"),
        ),
        radius_expr=parse_expression("2.0 * sin(radians($radius / 60.0) / 2.0)"),
        point_exprs=(
            parse_expression("cx"),
            parse_expression("cy"),
            parse_expression("cz"),
        ),
        description=(
            "All objects within $radius arcminutes of ($ra, $dec): a 3-d "
            "hypersphere around the search direction's unit vector."
        ),
        # Past 180 degrees the chord folds back: the sphere would
        # describe a *smaller* cap than the function searches.  (Below
        # zero the radius check in ``region_for`` already refuses.)
        domains=(("radius", float("-inf"), 10800.0),),
        outputs=(("distance", parse_expression(RADIAL_DISTANCE_RULE)),),
    )


def rect_function_template() -> FunctionTemplate:
    """Template for ``fGetObjFromRect``: a 2-d (ra, dec) rectangle."""
    return FunctionTemplate(
        name="fGetObjFromRect",
        params=("ra_min", "ra_max", "dec_min", "dec_max"),
        shape=Shape.HYPERRECT,
        dims=2,
        low_exprs=(
            parse_expression("$ra_min"),
            parse_expression("$dec_min"),
        ),
        high_exprs=(
            parse_expression("$ra_max"),
            parse_expression("$dec_max"),
        ),
        point_exprs=(parse_expression("ra"), parse_expression("dec")),
        description="All objects inside an (ra, dec) rectangle.",
    )


def radial_query_template() -> QueryTemplate:
    return QueryTemplate.from_sql(
        template_id=RADIAL_TEMPLATE_ID,
        sql=RADIAL_SQL,
        function_template=radial_function_template(),
        key_column="objID",
        description="The Radial search form's function-embedded query.",
    )


def rect_query_template() -> QueryTemplate:
    return QueryTemplate.from_sql(
        template_id=RECT_TEMPLATE_ID,
        sql=RECT_SQL,
        function_template=rect_function_template(),
        key_column="objID",
        description="The Rectangular search form's function-embedded query.",
    )


def nearest_query_template() -> QueryTemplate:
    return QueryTemplate.from_sql(
        template_id=NEAREST_TEMPLATE_ID,
        sql=NEAREST_SQL,
        function_template=radial_function_template(),
        key_column="objID",
        description="The Nearest-object search: TOP 1 by distance.",
    )


def nearest_info_file() -> TemplateInfoFile:
    return TemplateInfoFile(
        form_name=NEAREST_FORM,
        template_id=NEAREST_TEMPLATE_ID,
        field_map={"ra": "ra", "dec": "dec", "radius": "radius"},
        defaults={
            "radius": 3.0,  # the real form defaults to a small cone
            "r_min": MAG_MIN_DEFAULT,
            "r_max": MAG_MAX_DEFAULT,
        },
    )


def radial_info_file() -> TemplateInfoFile:
    return TemplateInfoFile(
        form_name=RADIAL_FORM,
        template_id=RADIAL_TEMPLATE_ID,
        field_map={
            "ra": "ra",
            "dec": "dec",
            "radius": "radius",
            "min_mag": "r_min",
            "max_mag": "r_max",
        },
        defaults={"r_min": MAG_MIN_DEFAULT, "r_max": MAG_MAX_DEFAULT},
    )


def rect_info_file() -> TemplateInfoFile:
    return TemplateInfoFile(
        form_name=RECT_FORM,
        template_id=RECT_TEMPLATE_ID,
        field_map={
            "min_ra": "ra_min",
            "max_ra": "ra_max",
            "min_dec": "dec_min",
            "max_dec": "dec_max",
            "min_mag": "r_min",
            "max_mag": "r_max",
        },
        defaults={"r_min": MAG_MIN_DEFAULT, "r_max": MAG_MAX_DEFAULT},
    )


def register_skyserver_templates(manager: TemplateManager) -> None:
    """Register the search forms' templates and info files.

    The Radial and Nearest templates share one function template
    (``fGetNearbyObjEq``): the paper notes a function template "may
    apply to other functions if they have the same query semantics".
    """
    manager.register_function_template(radial_function_template())
    manager.register_function_template(rect_function_template())
    manager.register_query_template(radial_query_template())
    manager.register_query_template(rect_query_template())
    manager.register_query_template(nearest_query_template())
    manager.register_info_file(radial_info_file())
    manager.register_info_file(rect_info_file())
    manager.register_info_file(nearest_info_file())
