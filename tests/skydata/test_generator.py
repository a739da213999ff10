"""Synthetic catalog generation."""

import pytest

from repro.relational.errors import CatalogError
from repro.skydata.generator import (
    PHOTO_PRIMARY_SCHEMA,
    SkyCatalogConfig,
    build_photo_primary,
    build_sky_catalog,
    generate_positions,
)
from repro.skydata.sphere import radec_to_unit

SMALL = SkyCatalogConfig(
    n_objects=2_000, ra_min=100.0, ra_max=110.0, dec_min=0.0, dec_max=10.0
)


class TestConfig:
    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            SkyCatalogConfig(ra_min=10.0, ra_max=10.0)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            SkyCatalogConfig(n_objects=-1)

    def test_rejects_bad_cluster_fraction(self):
        with pytest.raises(ValueError):
            SkyCatalogConfig(cluster_fraction=1.5)


class TestPositions:
    def test_count_and_window(self):
        positions = generate_positions(SMALL)
        assert len(positions) == 2_000
        assert positions[:, 0].min() >= SMALL.ra_min
        assert positions[:, 0].max() <= SMALL.ra_max
        assert positions[:, 1].min() >= SMALL.dec_min
        assert positions[:, 1].max() <= SMALL.dec_max

    def test_deterministic_by_seed(self):
        a = generate_positions(SMALL)
        b = generate_positions(SMALL)
        assert (a == b).all()

    def test_different_seed_differs(self):
        import dataclasses

        other = dataclasses.replace(SMALL, seed=SMALL.seed + 1)
        assert (generate_positions(SMALL) != generate_positions(other)).any()

    def test_pure_uniform_mixture(self):
        import dataclasses

        uniform = dataclasses.replace(SMALL, cluster_fraction=0.0)
        assert len(generate_positions(uniform)) == SMALL.n_objects


class TestPhotoPrimary:
    def test_schema_and_count(self):
        table = build_photo_primary(SMALL)
        assert table.schema is PHOTO_PRIMARY_SCHEMA
        assert len(table) == SMALL.n_objects

    def test_unit_vectors_match_radec(self):
        table = build_photo_primary(SMALL)
        schema = table.schema
        row = table.rows[123]
        expected = radec_to_unit(
            row[schema.position("ra")], row[schema.position("dec")]
        )
        got = tuple(
            row[schema.position(c)] for c in ("cx", "cy", "cz")
        )
        assert got == pytest.approx(expected)

    def test_magnitudes_in_range(self):
        table = build_photo_primary(SMALL)
        r_pos = table.schema.position("r")
        values = [row[r_pos] for row in table.rows]
        assert min(values) >= 14.0
        assert max(values) <= 24.0

    def test_primary_key_lookup(self):
        table = build_photo_primary(SMALL)
        assert table.lookup(1) is not None
        assert table.lookup(SMALL.n_objects) is not None
        assert table.lookup(SMALL.n_objects + 1) is None


class TestCatalog:
    def test_build_sky_catalog(self):
        catalog = build_sky_catalog(SMALL)
        assert catalog.has_table("photoprimary")
        assert len(catalog.table("PhotoPrimary")) == SMALL.n_objects

    def test_catalog_rejects_duplicate_table(self):
        catalog = build_sky_catalog(SMALL)
        with pytest.raises(CatalogError):
            catalog.add_table(build_photo_primary(SMALL))
