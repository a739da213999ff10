"""PhotoPrimary's rows, pinned cell by cell.

``golden/photo_primary.json`` holds a SHA-256 over every row that
``build_photo_primary`` generated, computed before the catalogue was
loaded from typed columns: for each cell, its Python type name and its
exact value (``float.hex`` for a float, the decimal digits for an int).
A change in any bit of any float, or an int turned float, moves it.

Regenerate (only when the catalogue is *meant* to change) with::

    PYTHONPATH=src python -m tests.skydata.test_photo_primary_digest
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.harness.config import ExperimentScale
from repro.skydata.generator import SkyCatalogConfig, build_photo_primary
from repro.skydata.index import ZoneIndex
from repro.skydata.sphere import radec_to_unit
from tests.integration.test_whole_sky import BAND, POLAR

GOLDEN = Path(__file__).resolve().parent / "golden" / "photo_primary.json"

CATALOGUES = {
    "default": ExperimentScale.default().sky,
    "whole_sky_band": BAND,
    "polar_cap": POLAR,
}


def cell_text(value) -> str:
    exact = value.hex() if isinstance(value, float) else str(value)
    return f"{type(value).__name__}:{exact}"


def row_digest(config: SkyCatalogConfig) -> dict:
    table = build_photo_primary(config)
    digest = hashlib.sha256()
    for row in table.rows:
        digest.update(",".join(map(cell_text, row)).encode())
        digest.update(b"\n")
    return {"rows": len(table), "sha256": digest.hexdigest()}


@pytest.mark.parametrize("name", sorted(CATALOGUES))
def test_rows_are_identical(name):
    golden = json.loads(GOLDEN.read_text())
    assert row_digest(CATALOGUES[name]) == golden[name]


def test_an_empty_catalogue_builds_and_indexes():
    table = build_photo_primary(SkyCatalogConfig(n_objects=0))
    assert len(table) == 0
    assert table.lookup(1) is None
    index = ZoneIndex(table)
    assert index.candidates_in_cone(radec_to_unit(160.0, 10.0), 30.0) == []
    assert index.candidates_in_rect(0.0, 360.0, -90.0, 90.0) == []


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(
            {name: row_digest(config) for name, config in CATALOGUES.items()},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
