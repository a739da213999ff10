"""A grid spatial index over (ra, dec) positions.

The real SkyServer accelerates its spatial functions with a Hierarchical
Triangular Mesh index.  For the reproduction, a uniform (ra, dec) grid
gives the same asymptotic benefit — candidate pruning before the exact
distance test — with far less machinery.  The index is read-only, built
once per origin server over the PhotoPrimary table.

The grid stores *row positions* into the indexed table, so lookups
return indices that callers resolve against ``table.rows``.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.relational.table import Table
from repro.skydata.sphere import ARCMIN_PER_DEGREE


class SkyGridIndex:
    """Uniform grid over the (ra, dec) plane.

    ``cell_deg`` trades memory for pruning power; the default of 0.25
    degrees keeps a typical radial search (radius under an degree) to a
    handful of cells.
    """

    def __init__(self, table: Table, cell_deg: float = 0.25) -> None:
        if cell_deg <= 0:
            raise ValueError(f"cell size must be positive: {cell_deg}")
        self.table = table
        self.cell_deg = cell_deg
        ra_pos = table.schema.position("ra")
        dec_pos = table.schema.position("dec")
        self._ra_pos = ra_pos
        self._dec_pos = dec_pos
        self._cells: dict[tuple[int, int], list[int]] = {}
        for row_index, row in enumerate(table.rows):
            key = self._cell_of(row[ra_pos], row[dec_pos])
            self._cells.setdefault(key, []).append(row_index)

    def _cell_of(self, ra: float, dec: float) -> tuple[int, int]:
        return (
            int(math.floor(ra / self.cell_deg)),
            int(math.floor(dec / self.cell_deg)),
        )

    def candidates_in_rect(
        self, ra_min: float, ra_max: float, dec_min: float, dec_max: float
    ) -> Iterable[int]:
        """Row positions of all objects possibly inside the box.

        The grid may return extra candidates near cell borders; callers
        must apply the exact predicate.  RA wraparound at 360 degrees is
        not handled — the synthetic catalog and workloads stay away from
        the wrap point (documented in DESIGN.md).  Never visits more
        cells than are occupied, however large the box.
        """
        lo_i = int(math.floor(ra_min / self.cell_deg))
        hi_i = int(math.floor(ra_max / self.cell_deg))
        lo_j = int(math.floor(dec_min / self.cell_deg))
        hi_j = int(math.floor(dec_max / self.cell_deg))
        if (hi_i - lo_i + 1) * (hi_j - lo_j + 1) > len(self._cells):
            # A box of more cells than the index holds (a radius of
            # many degrees widens RA by up to 1/cos(89.9)): walk the
            # occupied cells instead, in the order the loops below
            # would reach them — i-major, j-minor.
            for key in sorted(
                key
                for key in self._cells
                if lo_i <= key[0] <= hi_i and lo_j <= key[1] <= hi_j
            ):
                yield from self._cells[key]
            return
        for i in range(lo_i, hi_i + 1):
            for j in range(lo_j, hi_j + 1):
                yield from self._cells.get((i, j), ())

    def candidates_in_circle(
        self, ra: float, dec: float, radius_arcmin: float
    ) -> Iterable[int]:
        """Row positions of all objects possibly within the radius.

        The RA half-width is widened by ``1 / cos(dec)`` because a degree
        of RA shrinks toward the poles; clamped for dec near +-90.
        """
        radius_deg = radius_arcmin / ARCMIN_PER_DEGREE
        cos_dec = max(
            math.cos(math.radians(min(abs(dec) + radius_deg, 89.9))), 1e-6
        )
        ra_half = radius_deg / cos_dec
        return self.candidates_in_rect(
            ra - ra_half, ra + ra_half, dec - radius_deg, dec + radius_deg
        )
