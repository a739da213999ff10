"""SkyServer function library vs brute force over the catalog."""

import random

import pytest

from repro.skydata.index import ZoneIndex
from repro.skydata.sphere import angular_distance_arcmin, radec_to_unit
from repro.udf.registry import UdfError


@pytest.fixture(scope="module")
def photo_primary(origin):
    return origin.catalog.table("PhotoPrimary")


@pytest.fixture(scope="module")
def functions(origin):
    return origin.catalog.functions


def brute_force_circle(table, ra, dec, radius):
    schema = table.schema
    ra_pos, dec_pos, id_pos = (
        schema.position("ra"), schema.position("dec"),
        schema.position("objID"),
    )
    return {
        row[id_pos]
        for row in table.rows
        if angular_distance_arcmin(ra, dec, row[ra_pos], row[dec_pos])
        <= radius
    }


class TestNearbyObjEq:
    def test_matches_brute_force(self, origin, photo_primary, functions):
        rows = functions.call_table(
            "fGetNearbyObjEq", origin.catalog, [164.0, 8.0, 20.0]
        )
        got = {row[0] for row in rows}
        assert got == brute_force_circle(photo_primary, 164.0, 8.0, 20.0)
        assert got  # the fixture window is dense enough to be non-trivial

    def test_sorted_by_distance(self, origin, functions):
        rows = functions.call_table(
            "fGetNearbyObjEq", origin.catalog, [164.0, 8.0, 30.0]
        )
        distances = [row[-1] for row in rows]
        assert distances == sorted(distances)

    def test_zero_radius(self, origin, functions):
        rows = functions.call_table(
            "fGetNearbyObjEq", origin.catalog, [164.0, 8.0, 0.0]
        )
        assert rows == []

    def test_negative_radius_raises(self, origin, functions):
        with pytest.raises(UdfError):
            functions.call_table(
                "fGetNearbyObjEq", origin.catalog, [164.0, 8.0, -1.0]
            )


    def test_half_the_sphere_is_the_largest_cone(self, origin, functions):
        """180 degrees is the whole sky; past it the radial template's
        chord ``2 sin(r / 2)`` shrinks again and would describe the
        sky by a tiny region, so the function refuses."""
        everything = functions.call_table(
            "fGetNearbyObjEq", origin.catalog, [164.0, 8.0, 10800.0]
        )
        assert len(everything) == len(origin.catalog.table("PhotoPrimary"))
        with pytest.raises(UdfError, match="beyond 180 degrees"):
            functions.call_table(
                "fGetNearbyObjEq", origin.catalog, [164.0, 8.0, 10800.0001]
            )

    def test_rows_equal_the_per_candidate_reference(
        self, origin, photo_primary, functions
    ):
        """The function reads each object's stored unit vector and
        builds the centre's once; the reference recomputes both from
        degrees for every candidate.  Whole tuples, float distance
        included, must be ``==``."""
        index = ZoneIndex(photo_primary)
        schema = photo_primary.schema
        at = {name: schema.position(name) for name in schema.names}

        def reference(ra, dec, radius):
            rows = []
            for row in index.candidates_in_cone(
                radec_to_unit(ra, dec), radius
            ):
                distance = angular_distance_arcmin(
                    ra, dec, row[at["ra"]], row[at["dec"]]
                )
                if distance <= radius:
                    rows.append(
                        tuple(
                            row[at[name]]
                            for name in (
                                "objID", "ra", "dec", "cx", "cy", "cz", "type"
                            )
                        )
                        + (distance,)
                    )
            rows.sort(key=lambda r: r[-1])
            return rows

        rng = random.Random(339)
        cases = [
            (
                rng.uniform(159.0, 169.0),
                rng.uniform(4.0, 12.0),
                rng.choice((0.5, 3.0, 10.0, 30.0, 90.0)),
            )
            for _ in range(500)
        ]
        # The antipode (every chord within rounding of 2.0), the pole
        # (the RA widening at its clamp) and the largest cone.
        cases += [
            (344.0, -8.0, 10800.0),
            (164.0, 89.95, 5000.0),
            (164.0, 8.0, 10800.0),
        ]
        compared = 0
        for ra, dec, radius in cases:
            got = functions.call_table(
                "fGetNearbyObjEq", origin.catalog, [ra, dec, radius]
            )
            assert got == reference(ra, dec, radius), (ra, dec, radius)
            compared += len(got)
        assert compared > 10_000


class TestNearbyObjXYZ:
    def test_agrees_with_eq_variant(self, origin, functions):
        from repro.skydata.sphere import radec_to_unit

        ra, dec, radius = 163.0, 7.5, 15.0
        eq_rows = functions.call_table(
            "fGetNearbyObjEq", origin.catalog, [ra, dec, radius]
        )
        xyz = radec_to_unit(ra, dec)
        xyz_rows = functions.call_table(
            "fGetNearbyObjXYZ", origin.catalog, [*xyz, radius]
        )
        assert {r[0] for r in eq_rows} == {r[0] for r in xyz_rows}

    def test_zero_vector_raises(self, origin, functions):
        with pytest.raises(UdfError):
            functions.call_table(
                "fGetNearbyObjXYZ", origin.catalog, [0, 0, 0, 10.0]
            )


class TestObjFromRect:
    def test_matches_brute_force(self, origin, photo_primary, functions):
        args = [163.0, 164.0, 7.0, 8.0]
        rows = functions.call_table(
            "fGetObjFromRect", origin.catalog, args
        )
        schema = photo_primary.schema
        ra_pos, dec_pos, id_pos = (
            schema.position("ra"), schema.position("dec"),
            schema.position("objID"),
        )
        expected = {
            row[id_pos]
            for row in photo_primary.rows
            if 163.0 <= row[ra_pos] <= 164.0 and 7.0 <= row[dec_pos] <= 8.0
        }
        assert {row[0] for row in rows} == expected
        assert expected

    def test_empty_rect_raises(self, origin, functions):
        with pytest.raises(UdfError):
            functions.call_table(
                "fGetObjFromRect", origin.catalog, [164.0, 163.0, 7.0, 8.0]
            )

    def test_ordered_by_objid(self, origin, functions):
        rows = functions.call_table(
            "fGetObjFromRect", origin.catalog, [162.0, 165.0, 6.0, 9.0]
        )
        ids = [row[0] for row in rows]
        assert ids == sorted(ids)


class TestScalars:
    def test_photo_flags(self, functions):
        assert functions.call_scalar("fPhotoFlags", ["SATURATED"]) == 0x1
        assert functions.call_scalar("fPhotoFlags", ["bright"]) == 0x20

    def test_photo_flags_unknown_raises(self, functions):
        with pytest.raises(UdfError):
            functions.call_scalar("fPhotoFlags", ["NOT_A_FLAG"])

    def test_photo_type(self, functions):
        assert functions.call_scalar("fPhotoType", ["GALAXY"]) == 3
        assert functions.call_scalar("fPhotoType", ["star"]) == 6

    def test_distance_arcmin(self, functions):
        # One degree of declination is 60 arcminutes.
        distance = functions.call_scalar(
            "fDistanceArcMinEq", [100.0, 10.0, 100.0, 11.0]
        )
        assert distance == pytest.approx(60.0, rel=1e-6)


class TestDeterminismFlags:
    def test_spatial_functions_are_deterministic(self, functions):
        for name in ("fGetNearbyObjEq", "fGetObjFromRect",
                     "fGetNearbyObjXYZ"):
            assert functions.is_deterministic(name)

    def test_random_sample_is_not(self, functions):
        assert not functions.is_deterministic("fRandomSample")
