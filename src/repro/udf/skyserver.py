"""The SkyServer function library.

Reimplementations of the SDSS SkyServer functions the paper names
(Section 1 and Section 2): the table-valued spatial search functions
``fGetNearbyObjEq``, ``fGetObjFromRect``, and ``fGetNearbyObjXYZ``, and
the scalar helpers ``fPhotoFlags``, ``fPhotoType``, and
``fDistanceArcMinEq``.

All spatial functions run against a PhotoPrimary table through one
:class:`~repro.skydata.index.ZoneIndex` (declination zones sorted by RA,
the zone scan of the SkyServer's own spatial library), so a cone across
RA 0°/360° or over a pole finds every row inside it, and are registered
as deterministic.  A deliberately *non-deterministic* specimen,
``fRandomSample``, is also provided so tests can exercise registration's
refusal of a template over a non-deterministic function (paper Section
3.1, property 1).
"""

from __future__ import annotations

import math
import random
from operator import itemgetter
from typing import Any

from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.types import ColumnType
from repro.skydata.generator import PHOTO_FLAGS, TYPE_GALAXY, TYPE_STAR
from repro.skydata.index import ZoneIndex
from repro.skydata.sphere import (
    ARCMIN_PER_DEGREE,
    angular_distance_arcmin,
    chord_bound,
    chord_to_arcmin,
    radec_to_unit,
)
from repro.udf.registry import (
    FunctionRegistry,
    ScalarFunction,
    TableFunction,
    UdfError,
)

# Result schema of the radial search functions.  The coordinate columns
# (cx, cy, cz) satisfy the paper's "result attribute availability"
# property: the proxy needs each tuple's point in region space.
NEARBY_OBJ_SCHEMA = Schema.of(
    ("objID", ColumnType.INT),
    ("ra", ColumnType.FLOAT),
    ("dec", ColumnType.FLOAT),
    ("cx", ColumnType.FLOAT),
    ("cy", ColumnType.FLOAT),
    ("cz", ColumnType.FLOAT),
    ("type", ColumnType.INT),
    ("distance", ColumnType.FLOAT),
)

RECT_OBJ_SCHEMA = Schema.of(
    ("objID", ColumnType.INT),
    ("ra", ColumnType.FLOAT),
    ("dec", ColumnType.FLOAT),
    ("cx", ColumnType.FLOAT),
    ("cy", ColumnType.FLOAT),
    ("cz", ColumnType.FLOAT),
    ("type", ColumnType.INT),
)

PHOTO_TYPES = {"GALAXY": TYPE_GALAXY, "STAR": TYPE_STAR}

#: Beyond 180 degrees a cone is the whole sphere, and the chord the
#: radial template describes it by (``2 sin(r / 2)``) stops growing
#: with the radius — the proxy would cache the sky under a tiny region.
MAX_RADIUS_ARCMIN = 180.0 * ARCMIN_PER_DEGREE


def _photo_flags(name: Any) -> int:
    try:
        return PHOTO_FLAGS[str(name).upper()]
    except KeyError:
        raise UdfError(f"unknown photo flag {name!r}") from None


def _photo_type(name: Any) -> int:
    try:
        return PHOTO_TYPES[str(name).upper()]
    except KeyError:
        raise UdfError(f"unknown photo type {name!r}") from None


def register_skyserver_functions(
    registry: FunctionRegistry, photo_primary: Table
) -> None:
    """Register the SkyServer library bound to a PhotoPrimary table,
    over one zone index built here."""
    index = ZoneIndex(photo_primary)
    position = photo_primary.schema.position
    ra_at, dec_at = position("ra"), position("dec")
    #: A table row's share of a result tuple (``RECT_OBJ_SCHEMA``).
    project = itemgetter(
        position("objID"), ra_at, dec_at,
        position("cx"), position("cy"), position("cz"), position("type"),
    )
    #: The unit vector stored with each object — ``radec_to_unit`` of
    #: its (ra, dec), written once by the catalogue generator.
    unit_vector = itemgetter(position("cx"), position("cy"), position("cz"))

    def nearby_rows(
        ra: float, dec: float, radius_arcmin: float
    ) -> list[tuple[Any, ...]]:
        if radius_arcmin < 0:
            raise UdfError(f"negative search radius: {radius_arcmin}")
        if radius_arcmin > MAX_RADIUS_ARCMIN:
            raise UdfError(
                f"search radius beyond 180 degrees: {radius_arcmin}"
            )
        # ``angular_distance_arcmin`` with the centre's vector built
        # once and each object's read, not recomputed: same floats.
        # The chord bound spares ``chord_to_arcmin`` the candidates
        # that are surely outside; it never drops a row the ``<=``
        # keeps.
        centre = radec_to_unit(ra, dec)
        bound = chord_bound(radius_arcmin)
        rows = []
        for row in index.candidates_in_cone(centre, radius_arcmin):
            chord = math.dist(centre, unit_vector(row))
            if chord <= bound:
                distance = chord_to_arcmin(min(chord, 2.0))
                if distance <= radius_arcmin:
                    rows.append((*project(row), distance))
        # Nearest first, as the real one does; ties keep index order.
        rows.sort(key=lambda r: r[-1])
        return rows

    def f_get_nearby_obj_eq(catalog, args) -> list[tuple[Any, ...]]:
        ra, dec, radius_arcmin = (float(a) for a in args)
        return nearby_rows(ra, dec, radius_arcmin)

    def f_get_nearby_obj_xyz(catalog, args) -> list[tuple[Any, ...]]:
        nx, ny, nz, radius_arcmin = (float(a) for a in args)
        norm = math.sqrt(nx * nx + ny * ny + nz * nz)
        if norm == 0:
            raise UdfError("fGetNearbyObjXYZ: zero direction vector")
        dec = math.degrees(math.asin(nz / norm))
        ra = math.degrees(math.atan2(ny / norm, nx / norm)) % 360.0
        return nearby_rows(ra, dec, radius_arcmin)

    def f_get_obj_from_rect(catalog, args) -> list[tuple[Any, ...]]:
        ra_min, ra_max, dec_min, dec_max = (float(a) for a in args)
        if ra_min > ra_max or dec_min > dec_max:
            raise UdfError("fGetObjFromRect: empty rectangle")
        rows = []
        for row in index.candidates_in_rect(ra_min, ra_max, dec_min, dec_max):
            if (
                ra_min <= row[ra_at] <= ra_max
                and dec_min <= row[dec_at] <= dec_max
            ):
                rows.append(project(row))
        rows.sort(key=lambda r: r[0])  # deterministic order by objID
        return rows

    registry.register_table(
        TableFunction(
            name="fGetNearbyObjEq",
            params=("ra", "dec", "radius"),
            schema=NEARBY_OBJ_SCHEMA,
            impl=f_get_nearby_obj_eq,
            deterministic=True,
            description="Objects within radius arcmin of (ra, dec).",
            query_dependent=("distance",),
        )
    )
    registry.register_table(
        TableFunction(
            name="fGetNearbyObjXYZ",
            params=("nx", "ny", "nz", "radius"),
            schema=NEARBY_OBJ_SCHEMA,
            impl=f_get_nearby_obj_xyz,
            deterministic=True,
            description="Objects within radius arcmin of a unit vector.",
            query_dependent=("distance",),
        )
    )
    registry.register_table(
        TableFunction(
            name="fGetObjFromRect",
            params=("ra_min", "ra_max", "dec_min", "dec_max"),
            schema=RECT_OBJ_SCHEMA,
            impl=f_get_obj_from_rect,
            deterministic=True,
            description="Objects inside an (ra, dec) rectangle.",
        )
    )
    registry.register_scalar(
        ScalarFunction(
            name="fPhotoFlags",
            params=("name",),
            impl=_photo_flags,
            deterministic=True,
            description="Bit value of a named photo flag.",
        )
    )
    registry.register_scalar(
        ScalarFunction(
            name="fPhotoType",
            params=("name",),
            impl=_photo_type,
            deterministic=True,
            description="Type code of a named photometric class.",
        )
    )
    registry.register_scalar(
        ScalarFunction(
            name="fDistanceArcMinEq",
            params=("ra1", "dec1", "ra2", "dec2"),
            impl=angular_distance_arcmin,
            deterministic=True,
            description="Great-circle distance between two points, arcmin.",
        )
    )

    # Deliberately non-deterministic *across calls* (the proxy must
    # refuse to cache it), but seeded so whole-experiment replays stay
    # reproducible (FP305, tools/lint.py).
    sample_rng = random.Random(0xF5A)

    def f_random_sample(catalog, args) -> list[tuple[Any, ...]]:
        count = int(args[0])
        rows = []
        n = len(photo_primary)
        for _ in range(max(count, 0)):
            rows.append(project(photo_primary.rows[sample_rng.randrange(n)]))
        return rows

    registry.register_table(
        TableFunction(
            name="fRandomSample",
            params=("count",),
            schema=RECT_OBJ_SCHEMA,
            impl=f_random_sample,
            deterministic=False,
            description="A random object sample (non-deterministic; "
            "exists to exercise registration's determinism check).",
        )
    )


__all__ = [
    "NEARBY_OBJ_SCHEMA",
    "PHOTO_TYPES",
    "RECT_OBJ_SCHEMA",
    "register_skyserver_functions",
]
