"""A zone index over (ra, dec) positions.

The real SkyServer accelerates its spatial functions with a Hierarchical
Triangular Mesh index; its table-valued-function library also answers
cones with a *zone* scan (Gray, Szalay & Fekete, "Using Table Valued
Functions in SQL Server 2005 To Implement a Spatial Data Library"),
which is what this index is.  The sky is cut into declination zones
:data:`ZONE_DEG` high; the rows are kept in one flat list sorted by
(zone, RA), so a search visits the zones its declination range touches
and, in each, takes the RA window by two binary searches.  The index is
read-only, built once per origin server over the PhotoPrimary table.

RA is a circle: a window is reduced mod 360 and split in two where it
crosses 0°/360°, and a cone that reaches a pole takes every RA.  The
candidates are a superset of the answer; callers apply the exact
predicate.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Any, Sequence

import numpy as np

from repro.relational.table import Table
from repro.skydata.sphere import ARCMIN_PER_DEGREE

#: Height of a declination zone, degrees.  Chosen by measurement on the
#: radial traffic the benchmarks replay (radii of 1.5–12′ over the
#: default catalogue); see DESIGN.md, guard 6.
ZONE_DEG = 0.05

#: A cone's window is that of a cone this much wider (relative, then
#: absolute degrees), so a row whose computed distance rounds onto the
#: radius is never outside it: rounding moves a distance by ~1e-14°.
_PAD_REL = 1e-9
_PAD_DEG = 1e-12


def _zone(dec: float) -> int:
    return math.floor(dec / ZONE_DEG)


class ZoneIndex:
    """PhotoPrimary's rows sorted by (declination zone, RA)."""

    def __init__(self, table: Table) -> None:
        position = table.schema.position
        ra_of = itemgetter(position("ra"))
        dec_of = itemgetter(position("dec"))
        rows = table.rows
        raw = np.fromiter(map(ra_of, rows), float, len(rows))
        ras = raw % 360.0
        zones = np.floor(
            np.fromiter(map(dec_of, rows), float, len(rows)) / ZONE_DEG
        ).astype(np.int16)  # |dec| <= 90: a zone fits 16 bits
        order = np.lexsort((ras, zones))  # stable: ties in catalogue order
        zones = zones[order]
        self._zone_min = int(zones[0]) if len(zones) else 0
        zone_max = int(zones[-1]) if len(zones) else -1
        #: Row positions of zone ``_zone_min + k`` are
        #: ``[_starts[k], _starts[k + 1])``.
        self._starts: list[int] = np.searchsorted(
            zones, np.arange(self._zone_min, zone_max + 2)
        ).tolist()
        self.rows: list[tuple[Any, ...]] = list(
            map(rows.__getitem__, order.tolist())
        )
        # The sort key is RA mod 360: each row's own float where that is
        # its RA already (every row, for a generated catalogue), so the
        # RA list shares the rows' floats instead of making new ones.
        self._ras: list[float] = list(map(ra_of, self.rows))
        ras, raw = ras[order], raw[order]
        for k in np.flatnonzero(ras != raw).tolist():
            self._ras[k] = float(ras[k])

    def _candidates(
        self, dec_min: float, dec_max: float,
        windows: Sequence[tuple[float, float]],
    ) -> list[tuple[Any, ...]]:
        """Rows of the zones ``[dec_min, dec_max]`` touches whose RA
        lies in one of the closed ``windows`` (ascending, in [0, 360]).
        Two binary searches per zone and window, however large the
        range: the zones visited are the index's own, at most."""
        starts, ras, rows = self._starts, self._ras, self.rows
        first = max(_zone(dec_min) - self._zone_min, 0)
        last = min(_zone(dec_max) - self._zone_min, len(starts) - 2)
        out: list[tuple[Any, ...]] = []
        for k in range(first, last + 1):
            start, end = starts[k], starts[k + 1]
            for lo, hi in windows:
                i = bisect_left(ras, lo, start, end)
                j = bisect_right(ras, hi, i, end)
                out += rows[i:j]
        return out

    def candidates_in_rect(
        self, ra_min: float, ra_max: float, dec_min: float, dec_max: float
    ) -> list[tuple[Any, ...]]:
        """Rows possibly inside the box, in index order."""
        return self._candidates(dec_min, dec_max, _ra_windows(ra_min, ra_max))

    def candidates_in_cone(
        self, centre: Sequence[float], radius_arcmin: float
    ) -> list[tuple[Any, ...]]:
        """Rows possibly within ``radius_arcmin`` of the unit vector
        ``centre``, in index order.

        The window is taken about the vector's own (ra, dec), whatever
        degrees it was built from.  Its RA half-width is the cone's
        widest extent, ``asin(sin r / cos dec)``; a cone that reaches a
        pole (``|dec| + r >= 90°``) takes every RA.
        """
        x, y, z = centre
        ra = math.degrees(math.atan2(y, x))
        dec = math.degrees(math.atan2(z, math.hypot(x, y)))
        radius = radius_arcmin / ARCMIN_PER_DEGREE * (1 + _PAD_REL) + _PAD_DEG
        if abs(dec) + radius >= 90.0:
            windows = ((0.0, 360.0),)
        else:
            widest = math.sin(math.radians(radius)) / math.cos(
                math.radians(dec)
            )
            half = 180.0 if widest >= 1.0 else math.degrees(math.asin(widest))
            windows = _ra_windows(ra - half, ra + half)
        return self._candidates(dec - radius, dec + radius, windows)


def _ra_windows(lo: float, hi: float) -> tuple[tuple[float, float], ...]:
    """``[lo, hi]`` as closed windows of RA in [0, 360], split at the
    seam; a window of 360° or more is every RA."""
    if hi - lo >= 360.0:
        return ((0.0, 360.0),)
    hi -= lo - lo % 360.0
    lo %= 360.0
    if hi <= 360.0:
        return ((lo, hi),)
    return ((0.0, hi - 360.0), (lo, 360.0))
