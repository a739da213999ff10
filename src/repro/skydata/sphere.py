"""Celestial-sphere geometry helpers.

The SkyServer's radial search ``fGetNearbyObjEq(ra, dec, radius)``
returns objects within ``radius`` arcminutes of the point (ra, dec) on
the celestial sphere.  Angular proximity on the unit sphere maps exactly
to Euclidean proximity of unit vectors: two directions separated by an
angle ``theta`` have chord distance ``2 * sin(theta / 2)``.

This equivalence is what makes the paper's Figure 3 template correct:
the function is "finding all points that are bounded by a 3-D
hypersphere" centered on the search direction's unit vector, with the
radius converted from arcminutes to a chord length.  All conversions for
that mapping live here.
"""

from __future__ import annotations

import math

ARCMIN_PER_DEGREE = 60.0


def radec_to_unit(ra_deg: float, dec_deg: float) -> tuple[float, float, float]:
    """Unit vector for equatorial coordinates given in degrees.

    Matches the SkyServer's (cx, cy, cz) columns:
    ``(cos(ra)cos(dec), sin(ra)cos(dec), sin(dec))``.
    """
    ra = math.radians(ra_deg)
    dec = math.radians(dec_deg)
    cos_dec = math.cos(dec)
    return (
        math.cos(ra) * cos_dec,
        math.sin(ra) * cos_dec,
        math.sin(dec),
    )


def arcmin_to_chord(radius_arcmin: float) -> float:
    """Chord length on the unit sphere subtending ``radius_arcmin``."""
    if radius_arcmin < 0:
        raise ValueError(f"negative angular radius: {radius_arcmin}")
    theta = math.radians(radius_arcmin / ARCMIN_PER_DEGREE)
    return 2.0 * math.sin(theta / 2.0)


def chord_bound(radius_arcmin: float) -> float:
    """A chord that no point ``chord_to_arcmin`` places within
    ``radius_arcmin`` exceeds: :func:`arcmin_to_chord` widened by
    ``1e-9`` relative and ``1e-15`` absolute (DESIGN.md, guard 6)."""
    return arcmin_to_chord(radius_arcmin) * (1 + 1e-9) + 1e-15


def chord_to_arcmin(chord: float) -> float:
    """Inverse of :func:`arcmin_to_chord` (chord must be in [0, 2])."""
    if not 0.0 <= chord <= 2.0:
        raise ValueError(f"chord length out of range [0, 2]: {chord}")
    theta = 2.0 * math.asin(chord / 2.0)
    return math.degrees(theta) * ARCMIN_PER_DEGREE


def angular_distance_arcmin(
    ra1: float, dec1: float, ra2: float, dec2: float
) -> float:
    """Great-circle distance between two (ra, dec) points, in arcmin.

    Computed through the chord (numerically stable for the small angles
    radial searches use, unlike the plain spherical law of cosines).
    """
    v1 = radec_to_unit(ra1, dec1)
    v2 = radec_to_unit(ra2, dec2)
    chord = math.dist(v1, v2)
    # Floating error can push the chord a hair above 2.0 for antipodes.
    chord = min(chord, 2.0)
    return chord_to_arcmin(chord)
