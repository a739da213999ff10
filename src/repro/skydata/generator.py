"""Synthetic PhotoPrimary catalog generation.

The generator produces an SDSS-like object table inside a configurable
(ra, dec) window.  Object positions are a mixture of

* a uniform background (fraction ``1 - cluster_fraction``), and
* Gaussian clusters around randomly placed hotspot centers — real sky
  surveys are clustered, and the clustering is what gives radial
  searches their skewed result sizes.

Magnitudes (u, g, r, i, z) are drawn from plausible ranges, ``type``
from the SDSS photometric type codes, and ``flags`` as a random bitmask;
these only feed the templates' "other predicates", so realism beyond
range and selectivity is not required.

Generation is deterministic given ``seed``.
"""

from __future__ import annotations

import gc
import struct
from dataclasses import dataclass, field

import numpy as np

from repro.relational.catalog import Catalog
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.types import ColumnType
from repro.skydata.sphere import radec_to_unit

# SDSS photometric type codes used by the ``type`` column.
TYPE_GALAXY = 3
TYPE_STAR = 6
TYPE_CODES = (TYPE_GALAXY, TYPE_STAR)

# Named PhotoFlags bits (a small subset of the real mask).
PHOTO_FLAGS = {
    "SATURATED": 0x1,
    "EDGE": 0x2,
    "BLENDED": 0x4,
    "CHILD": 0x8,
    "COSMIC_RAY": 0x10,
    "BRIGHT": 0x20,
}

PHOTO_PRIMARY_SCHEMA = Schema.of(
    ("objID", ColumnType.INT),
    ("ra", ColumnType.FLOAT),
    ("dec", ColumnType.FLOAT),
    ("cx", ColumnType.FLOAT),
    ("cy", ColumnType.FLOAT),
    ("cz", ColumnType.FLOAT),
    ("u", ColumnType.FLOAT),
    ("g", ColumnType.FLOAT),
    ("r", ColumnType.FLOAT),
    ("i", ColumnType.FLOAT),
    ("z", ColumnType.FLOAT),
    ("type", ColumnType.INT),
    ("flags", ColumnType.INT),
    ("run", ColumnType.INT),
    ("camcol", ColumnType.INT),
    ("field", ColumnType.INT),
)

# A PhotoPrimary row as a numpy record and as the same bytes to unpack,
# and the rows generated per batch.
_CELLS = {ColumnType.INT: ("<i8", "q"), ColumnType.FLOAT: ("<f8", "d")}
_ROW_DTYPE = np.dtype(
    [(c.name, _CELLS[c.type][0]) for c in PHOTO_PRIMARY_SCHEMA]
)
_ROW_STRUCT = struct.Struct(
    "<" + "".join(_CELLS[c.type][1] for c in PHOTO_PRIMARY_SCHEMA)
)
_CHUNK_ROWS = 4_096


@dataclass(frozen=True)
class SkyCatalogConfig:
    """Parameters of the synthetic catalog.

    The defaults give roughly 0.05 objects per square arcminute, so a
    30-arcminute radial search returns on the order of a hundred tuples
    — the same order as the paper's average result file (~26 KB of XML
    per query over the Radial trace).
    """

    n_objects: int = 200_000
    ra_min: float = 150.0
    ra_max: float = 190.0
    dec_min: float = 0.0
    dec_max: float = 30.0
    cluster_fraction: float = 0.4
    n_clusters: int = 40
    cluster_sigma_deg: float = 0.5
    seed: int = 20040101  # the paper's publication year, for flavour

    def __post_init__(self) -> None:
        if self.n_objects < 0:
            raise ValueError("n_objects must be non-negative")
        if self.ra_min >= self.ra_max or self.dec_min >= self.dec_max:
            raise ValueError("empty sky window")
        if not 0.0 <= self.cluster_fraction <= 1.0:
            raise ValueError("cluster_fraction must be in [0, 1]")
        if self.cluster_fraction > 0 and self.n_clusters < 1:
            raise ValueError("clustered generation needs at least one cluster")


def generate_positions(config: SkyCatalogConfig) -> np.ndarray:
    """(n, 2) array of (ra, dec) positions for the configured mixture."""
    rng = np.random.default_rng(config.seed)
    n_clustered = int(round(config.n_objects * config.cluster_fraction))
    n_uniform = config.n_objects - n_clustered

    uniform_ra = rng.uniform(config.ra_min, config.ra_max, n_uniform)
    uniform_dec = rng.uniform(config.dec_min, config.dec_max, n_uniform)

    if n_clustered:
        centers_ra = rng.uniform(config.ra_min, config.ra_max, config.n_clusters)
        centers_dec = rng.uniform(config.dec_min, config.dec_max, config.n_clusters)
        membership = rng.integers(0, config.n_clusters, n_clustered)
        clustered_ra = centers_ra[membership] + rng.normal(
            0.0, config.cluster_sigma_deg, n_clustered
        )
        clustered_dec = centers_dec[membership] + rng.normal(
            0.0, config.cluster_sigma_deg, n_clustered
        )
        ra = np.concatenate([uniform_ra, clustered_ra])
        dec = np.concatenate([uniform_dec, clustered_dec])
    else:
        ra, dec = uniform_ra, uniform_dec

    ra = np.clip(ra, config.ra_min, config.ra_max)
    dec = np.clip(dec, config.dec_min, config.dec_max)
    return np.column_stack([ra, dec])


def build_photo_primary(config: SkyCatalogConfig) -> Table:
    """Generate the PhotoPrimary table for ``config``."""
    rng = np.random.default_rng(config.seed + 1)
    positions = generate_positions(config)
    n = len(positions)

    magnitudes = {
        band: rng.uniform(14.0, 24.0, n) for band in ("u", "g", "r", "i", "z")
    }
    types = rng.choice(TYPE_CODES, n, p=[0.6, 0.4])
    # Each flag bit set independently with small probability.
    flags = np.zeros(n, dtype=np.int64)
    for bit in PHOTO_FLAGS.values():
        flags |= np.where(rng.random(n) < 0.05, bit, 0)
    runs = rng.integers(100, 200, n)
    camcols = rng.integers(1, 7, n)
    fields = rng.integers(1, 1000, n)
    columns = dict(
        magnitudes, type=types, flags=flags, run=runs, camcol=camcols,
        field=fields,
    )

    # The rows skip per-cell coercion: unpacking a record gives a tuple
    # of the Python ints and floats the schema declares.  Records, not
    # column lists, so each row's floats are allocated together and a
    # query that reads a row reads adjacent memory; and a chunk at a
    # time, so no whole-catalogue copy raises peak memory.  Cyclic GC
    # is off meanwhile: tuples of numbers cannot form a cycle, yet each
    # chunk's new rows would trigger young-generation passes over them.
    table = Table("PhotoPrimary", PHOTO_PRIMARY_SCHEMA, primary_key="objID")
    collecting = gc.isenabled()
    gc.disable()
    try:
        for start in range(0, n, _CHUNK_ROWS):
            chunk = slice(start, start + _CHUNK_ROWS)
            block = np.empty(len(positions[chunk]), _ROW_DTYPE)
            block["objID"] = np.arange(start + 1, start + 1 + len(block))
            block["ra"], block["dec"] = positions[chunk].T
            block["cx"], block["cy"], block["cz"] = zip(*map(
                radec_to_unit, block["ra"].tolist(), block["dec"].tolist()
            ))
            for name, column in columns.items():
                block[name] = column[chunk]
            table.append_typed(list(_ROW_STRUCT.iter_unpack(block.tobytes())))
    finally:
        if collecting:
            gc.enable()
    return table


def build_sky_catalog(
    config: SkyCatalogConfig | None = None, functions=None
) -> Catalog:
    """A catalog holding a generated PhotoPrimary table.

    The SkyServer function library is *not* registered here — the origin
    server does that, because the functions need the spatial index it
    builds (see :func:`repro.udf.skyserver.register_skyserver_functions`).
    """
    config = config or SkyCatalogConfig()
    catalog = Catalog(functions=functions)
    catalog.add_table(build_photo_primary(config))
    return catalog
