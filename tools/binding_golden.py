#!/usr/bin/env python
"""Capture what binding a template produces, as canonical JSON.

``capture()`` binds the radial, rectangular, nearest and
triangle-extension templates to seeded parameter sets and records
everything downstream code compares byte for byte: the bound SQL (the
HTTP hop's body), the proxy's signature and cache key (journal
payloads), the region's floats as ``float.hex()`` (warm restart
compares re-bound regions with ``==``), remainder SQL for 1, 3 and 16
holes of every shape (rendered by the test oracle
``tests/remainder_sql.py``: the origin no longer receives SQL for a
remainder, and this section pins the oracle to the SQL it did
receive), ``finalize`` row order over a seeded cached table, and the
text of each binding error.

``tests/templates/golden/bindings.json`` is this tool's output at the
commit *before* expressions got one definition of their children and
``$``-parameters became environment values;
``tests/templates/test_binding_parity.py`` compares ``capture()``
against it.  Regenerating the golden is re-running this tool by hand::

    python tools/binding_golden.py > tests/templates/golden/bindings.json
"""

from __future__ import annotations

import json
import pathlib
import random
import sys
from typing import Any

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # the remainder SQL oracle, in tests/

from repro.core.evaluation import LocalEvaluator  # noqa: E402
from repro.core.remainder import build_remainder  # noqa: E402
from repro.extensions.triangle import (  # noqa: E402
    TRIANGLE_TEMPLATE_ID,
    triangle_function_template,
    triangle_query_template,
)
from repro.geometry.regions import (  # noqa: E402
    ConvexPolytope,
    HyperRect,
    HyperSphere,
    Region,
)
from repro.relational.catalog import Catalog  # noqa: E402
from repro.relational.executor import Executor  # noqa: E402
from repro.relational.expressions import compile_expression  # noqa: E402
from repro.relational.result import ResultTable  # noqa: E402
from repro.relational.schema import Schema  # noqa: E402
from repro.relational.types import ColumnType  # noqa: E402
from repro.sqlparser.ast import bind_expression  # noqa: E402
from repro.sqlparser.parser import parse_expression, parse_select  # noqa: E402
from repro.templates.function_template import (  # noqa: E402
    FunctionTemplate,
    Shape,
)
from repro.templates.manager import TemplateManager  # noqa: E402
from repro.templates.query_template import QueryTemplate  # noqa: E402
from tests.remainder_sql import remainder_statement  # noqa: E402
from repro.templates.skyserver_templates import (  # noqa: E402
    NEAREST_TEMPLATE_ID,
    RADIAL_TEMPLATE_ID,
    RECT_TEMPLATE_ID,
    radial_function_template,
    register_skyserver_templates,
)

SEED = 339
BINDINGS_PER_TEMPLATE = 50
REMAINDER_CASES = 20
HOLE_COUNTS = (1, 3, 16)
TEMPLATE_IDS = (
    RADIAL_TEMPLATE_ID,
    RECT_TEMPLATE_ID,
    NEAREST_TEMPLATE_ID,
    TRIANGLE_TEMPLATE_ID,
)

#: Two keys, one descending, no TOP: the Nearest template's TOP 1 would
#: show one row of the order only.
ORDERED_TEMPLATE_ID = "golden.ordered"
ORDERED_SQL = (
    "SELECT p.objID, p.cx, p.cy, p.cz, p.type, n.distance "
    "FROM fGetNearbyObjEq($ra, $dec, $radius) n "
    "JOIN PhotoPrimary p ON n.objID = p.objID "
    "WHERE p.r BETWEEN $r_min AND $r_max "
    "ORDER BY p.type DESC, n.distance"
)


def _manager() -> TemplateManager:
    manager = TemplateManager()
    register_skyserver_templates(manager)
    manager.register_function_template(triangle_function_template())
    manager.register_query_template(triangle_query_template())
    manager.register_query_template(
        QueryTemplate.from_sql(
            ORDERED_TEMPLATE_ID,
            ORDERED_SQL,
            manager.function_template("fGetNearbyObjEq"),
            key_column="objID",
        )
    )
    return manager


def _number(rng: random.Random, low: float, high: float) -> float | int:
    """An int, a rounded float or a full-precision float in [low, high]."""
    value = rng.uniform(low, high)
    roll = rng.random()
    if roll < 0.2:
        return int(value)
    if roll < 0.7:
        return round(value, rng.choice((1, 3, 6)))
    return value


def _magnitudes(rng: random.Random) -> dict[str, float | int]:
    if rng.random() < 0.5:
        return {"r_min": -9999.0, "r_max": 9999.0}
    low = _number(rng, 12.0, 18.0)
    return {"r_min": low, "r_max": _number(rng, 18.0, 24.0)}


def _params(template_id: str, rng: random.Random) -> dict[str, Any]:
    """One seeded parameter set; southern declinations included."""
    ra = _number(rng, 0.0, 359.0)
    dec = _number(rng, -80.0, 80.0)
    if template_id == RECT_TEMPLATE_ID:
        return {
            "ra_min": ra,
            "ra_max": ra + _number(rng, 1.0, 3.0),
            "dec_min": dec,
            "dec_max": dec + _number(rng, 1.0, 3.0),
            **_magnitudes(rng),
        }
    if template_id == TRIANGLE_TEMPLATE_ID:
        size = _number(rng, 1.0, 2.5)
        return {  # counter-clockwise, as the function demands
            "ra1": ra - size,
            "dec1": dec - size,
            "ra2": ra + size,
            "dec2": dec - size,
            "ra3": ra,
            "dec3": dec + size,
            **_magnitudes(rng),
        }
    return {
        "ra": ra,
        "dec": dec,
        "radius": _number(rng, 0.5, 30.0),
        **_magnitudes(rng),
    }


def _near(params: dict[str, Any], rng: random.Random) -> dict[str, Any]:
    """The same shape moved a little: its region overlaps ``params``'."""
    shift = {
        axis: round(rng.uniform(-0.05, 0.05), 4) for axis in ("ra", "dec")
    }
    return {
        name: value + shift.get(name.rstrip("123").split("_")[0], 0)
        for name, value in params.items()
    }


def _hex(values: Any) -> list[str]:
    return [float(value).hex() for value in values]


def region_floats(region: Region) -> dict[str, Any]:
    """Every float of a region, exactly."""
    if isinstance(region, HyperSphere):
        return {
            "shape": "sphere",
            "center": _hex(region.center),
            "radius": float(region.radius).hex(),
        }
    if isinstance(region, HyperRect):
        return {
            "shape": "rect",
            "lows": _hex(region.lows),
            "highs": _hex(region.highs),
        }
    assert isinstance(region, ConvexPolytope)
    return {
        "shape": "polytope",
        "bbox": region_floats(region.bbox),
        "halfspaces": [
            {"normal": _hex(half.normal), "offset": float(half.offset).hex()}
            for half in region.halfspaces
        ],
    }


def _bindings(
    manager: TemplateManager, rng: random.Random
) -> list[dict[str, Any]]:
    out = []
    for template_id in TEMPLATE_IDS:
        template = manager.query_template(template_id)
        for _ in range(BINDINGS_PER_TEMPLATE):
            params = _params(template_id, rng)
            bound = manager.bind(template_id, params)
            out.append(
                {
                    "template": template_id,
                    "sql": bound.statement.to_sql(),
                    "signature": bound.signature,
                    "cache_key": bound.cache_key(),
                    "region": region_floats(bound.region),
                    "parameter_names": template.parameter_names,
                    "function_params": bound.function_params,
                }
            )
    return out


def _form_bindings(manager: TemplateManager) -> list[dict[str, Any]]:
    """Raw form strings: ints, floats and exponents as the web tier
    parses them."""
    forms = [
        ("Radial", {"ra": "164", "dec": "8", "radius": "10"}),
        ("Radial", {"ra": "164.25", "dec": "-8.5", "radius": "1e1"}),
        (
            "Radial",
            {
                "ra": "0.1",
                "dec": "89.9",
                "radius": "3",
                "min_mag": "14",
                "max_mag": "21.5",
            },
        ),
        (
            "Rectangular",
            {
                "min_ra": "163",
                "max_ra": "164.5",
                "min_dec": "-1",
                "max_dec": "7.25",
            },
        ),
        ("Nearest", {"ra": "164", "dec": "8"}),
    ]
    out = []
    for form, values in forms:
        bound = manager.bind_form(form, values)
        out.append(
            {
                "form": form,
                "sql": bound.statement.to_sql(),
                "signature": bound.signature,
                "cache_key": bound.cache_key(),
                "region": region_floats(bound.region),
            }
        )
    return out


def _remainders(
    manager: TemplateManager, rng: random.Random
) -> list[dict[str, Any]]:
    """Sphere holes under radial / nearest, rect under rectangular,
    polytope under the triangle; 1, 3 and 16 holes each."""
    out = []
    for case in range(REMAINDER_CASES):
        template_id = TEMPLATE_IDS[case % len(TEMPLATE_IDS)]
        n_holes = HOLE_COUNTS[case % len(HOLE_COUNTS)]
        params = _params(template_id, rng)
        bound = manager.bind(template_id, params)
        holes = [
            manager.bind(template_id, _near(params, rng)).region
            for _ in range(n_holes)
        ]
        remainder = build_remainder(bound, holes)
        out.append(
            {
                "template": template_id,
                "n_holes": remainder.n_holes,
                "hole_shape": region_floats(holes[0])["shape"],
                "sql": remainder_statement(bound, holes).to_sql(),
            }
        )
    return out


def _cached_table(rng: random.Random, columns: list[str]) -> ResultTable:
    """A seeded stand-in for a cached result: tied types, tied and
    missing distances."""
    integers = ("objID", "type")
    schema = Schema.of(
        *(
            (name, ColumnType.INT if name in integers else ColumnType.FLOAT)
            for name in columns
        )
    )
    rows = []
    for obj_id in range(1, 41):
        row: dict[str, Any] = {
            name: round(rng.random(), 6) for name in columns
        }
        row["objID"] = obj_id
        row["type"] = rng.choice((3, 6, None))
        row["distance"] = rng.choice(
            (None, 1.5, round(rng.uniform(0.0, 10.0), 3))
        )
        rows.append(tuple(row[name] for name in columns))
    return ResultTable(schema, rows)


def _finalized(
    manager: TemplateManager, rng: random.Random
) -> list[dict[str, Any]]:
    params = {
        "ra": 164.0,
        "dec": 8.0,
        "radius": 10.0,
        "r_min": -9999.0,
        "r_max": 9999.0,
    }
    out = []
    for template_id in (NEAREST_TEMPLATE_ID, ORDERED_TEMPLATE_ID):
        bound = manager.bind(template_id, params)
        columns = list(bound.statement.output_names)
        table = _cached_table(rng, columns)
        result = LocalEvaluator().finalize(bound, table)
        key = columns.index("objID")
        out.append(
            {
                "template": template_id,
                "rows_in": len(table),
                "order": [row[key] for row in result.rows],
            }
        )
    return out


def _error(action) -> str:
    try:
        action()
    except Exception as exc:  # the type and the text are the capture
        return f"{type(exc).__name__}: {exc}"
    return "no error"


def _errors(manager: TemplateManager) -> dict[str, str]:
    radial = manager.query_template(RADIAL_TEMPLATE_ID)
    sphere = radial_function_template()
    unknown_call = FunctionTemplate(
        name="fBroken",
        params=("x",),
        shape=Shape.HYPERRECT,
        dims=1,
        point_exprs=(parse_expression("ra"),),
        low_exprs=(parse_expression("nosuch($x)"),),
        high_exprs=(parse_expression("$x"),),
    )
    free_sql = parse_select(
        "SELECT n.objID FROM fGetNearbyObjEq($ra, 8.0, 10.0) n"
    )
    return {
        "statement_bind_missing": _error(
            lambda: radial.statement.bind({"ra": 1.0, "r_min": 0.0})
        ),
        "bind_expression_missing": _error(
            lambda: bind_expression(parse_expression("$a + $b"), {"b": 1})
        ),
        "region_missing": _error(lambda: sphere.region_for({"ra": 1.0})),
        "region_cannot_evaluate": _error(
            lambda: unknown_call.region_for({"x": 1.0})
        ),
        "region_not_a_number": _error(
            lambda: manager.bind(
                RECT_TEMPLATE_ID,
                {
                    "ra_min": "abc",
                    "ra_max": 2.0,
                    "dec_min": 1.0,
                    "dec_max": 2.0,
                    "r_min": 0.0,
                    "r_max": 1.0,
                },
            )
        ),
        "region_null": _error(
            lambda: sphere.region_for({"ra": None, "dec": 1.0, "radius": 1.0})
        ),
        "region_negative_radius": _error(
            lambda: sphere.region_for({"ra": 1.0, "dec": 1.0, "radius": -1.0})
        ),
        "unbound_evaluate": _error(
            lambda: compile_expression(parse_expression("$a + 1"))(())
        ),
        "unbound_argument": _error(free_sql.source.argument_values),
        "executor_non_constant": _error(
            lambda: Executor(Catalog()).execute(free_sql)
        ),
    }


def capture() -> dict[str, Any]:
    manager = _manager()
    rng = random.Random(SEED)
    return {
        "bindings": _bindings(manager, rng),
        "form_bindings": _form_bindings(manager),
        "remainders": _remainders(manager, rng),
        "finalize": _finalized(manager, rng),
        "errors": _errors(manager),
    }


def render(captured: dict[str, Any]) -> str:
    """Canonical JSON, one line per element of a list section, so a
    drifted golden diffs by binding, not by file."""

    def compact(value: Any) -> str:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))

    sections = []
    for key in sorted(captured):
        value = captured[key]
        if isinstance(value, list):
            body = ",\n".join(compact(item) for item in value)
            sections.append(f"{compact(key)}:[\n{body}\n]")
        else:
            sections.append(f"{compact(key)}:{compact(value)}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def main() -> int:
    sys.stdout.write(render(capture()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
