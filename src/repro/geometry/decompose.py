"""Rectangle difference decomposition.

Semantic caches over rectangular predicates classically represent a
remainder as a *set of disjoint boxes* rather than a NOT-predicate
(e.g. Dar et al.'s region coalescing).  For the paper's rectangular
template this module provides that representation:

``subtract_rect(base, hole)`` slices ``base \\ hole`` into at most
``2 * dims`` disjoint axis-aligned boxes using the standard slab sweep:
for each dimension, split off the part of the base below the hole and
the part above it, then clamp the working box to the hole's extent and
continue with the next dimension.

``decompose_difference(base, holes)`` folds the subtraction over many
holes.  The proxy's default remainder path ships NOT-predicates (like
the paper); box decomposition is exposed for rect workloads where the
origin prefers several simple range queries — see
``repro.core.remainder.build_box_remainders``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.geometry.regions import GeometryError, HyperRect


def subtract_rect(base: HyperRect, hole: HyperRect) -> list[HyperRect]:
    """Disjoint boxes covering ``base`` minus ``hole``.

    Returns ``[base]`` unchanged when the two are disjoint, and ``[]``
    when the hole covers the base.  Pieces are closed boxes; shared
    faces between a piece and the hole belong to the hole (so piece
    interiors never intersect the hole, and pieces are pairwise
    disjoint up to measure-zero faces — the right semantics for
    range-query remainders).
    """
    if base.dims != hole.dims:
        raise GeometryError(
            f"dimension mismatch: {base.dims}-d base vs {hole.dims}-d hole"
        )
    if base.intersect(hole) is None:
        return [base]

    pieces: list[HyperRect] = []
    lows = list(base.lows)
    highs = list(base.highs)
    for dim in range(base.dims):
        if hole.lows[dim] > lows[dim]:
            below_highs = list(highs)
            below_highs[dim] = hole.lows[dim]
            pieces.append(HyperRect(tuple(lows), tuple(below_highs)))
        if hole.highs[dim] < highs[dim]:
            above_lows = list(lows)
            above_lows[dim] = hole.highs[dim]
            pieces.append(HyperRect(tuple(above_lows), tuple(highs)))
        lows[dim] = max(lows[dim], hole.lows[dim])
        highs[dim] = min(highs[dim], hole.highs[dim])
    return [piece for piece in pieces if not piece.is_empty()]


def decompose_difference(
    base: HyperRect, holes: Iterable[HyperRect]
) -> list[HyperRect]:
    """Disjoint boxes covering ``base`` minus the union of ``holes``."""
    pieces = [base]
    for hole in holes:
        next_pieces: list[HyperRect] = []
        for piece in pieces:
            next_pieces.extend(subtract_rect(piece, hole))
        pieces = next_pieces
        if not pieces:
            break
    return pieces


def total_volume(pieces: Sequence[HyperRect]) -> float:
    """Sum of piece volumes (pieces are disjoint by construction)."""
    from repro.geometry.measure import region_volume

    return sum(region_volume(piece) for piece in pieces)
