"""The caching schemes compared in the paper's evaluation.

Five configurations (Sections 3.2 and 4.2):

* ``NO_CACHE`` — a tunneling proxy ("NC"): every query forwarded.
* ``PASSIVE`` — exact-match caching only ("PC").
* ``FULL_SEMANTIC`` — the "First" active scheme: exact match, query
  containment, region containment, and general cache-intersecting
  queries via probe + remainder queries (Dar et al.).
* ``REGION_CONTAINMENT`` — the "Second" scheme: like full semantic
  caching but the only overlap handled is region containment (the new
  query's region contains cached regions); other overlaps are
  forwarded whole.
* ``CONTAINMENT_ONLY`` — the "Third" scheme: exact match and query
  containment only; every overlap is forwarded whole.  The paper's
  conclusion recommends this one as "efficient and practical".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


@dataclass(frozen=True)
class SchemePolicy:
    """What a caching scheme is allowed to do."""

    caches: bool
    handles_containment: bool
    handles_region_containment: bool
    handles_overlap: bool

    def __post_init__(self) -> None:
        if self.handles_overlap and not self.handles_region_containment:
            raise ValueError(
                "overlap handling subsumes region containment; a scheme "
                "cannot handle general overlap without it"
            )
        if self.handles_containment and not self.caches:
            raise ValueError("an active scheme must cache")

    def describe(self) -> dict[str, bool]:
        """The capability flags, for the explain layer's decision
        traces: which cache cases this scheme was *allowed* to try."""
        return {
            "caches": self.caches,
            "handles_containment": self.handles_containment,
            "handles_region_containment": self.handles_region_containment,
            "handles_overlap": self.handles_overlap,
        }


class CachingScheme(enum.Enum):
    """The five proxy configurations of the evaluation."""

    NO_CACHE = "nc"
    PASSIVE = "pc"
    FULL_SEMANTIC = "ac-full"
    REGION_CONTAINMENT = "ac-region"
    CONTAINMENT_ONLY = "ac-containment"

    @property
    def policy(self) -> SchemePolicy:
        return _POLICIES[self]


_POLICIES = {
    CachingScheme.NO_CACHE: SchemePolicy(
        caches=False,
        handles_containment=False,
        handles_region_containment=False,
        handles_overlap=False,
    ),
    CachingScheme.PASSIVE: SchemePolicy(
        caches=True,
        handles_containment=False,
        handles_region_containment=False,
        handles_overlap=False,
    ),
    CachingScheme.FULL_SEMANTIC: SchemePolicy(
        caches=True,
        handles_containment=True,
        handles_region_containment=True,
        handles_overlap=True,
    ),
    CachingScheme.REGION_CONTAINMENT: SchemePolicy(
        caches=True,
        handles_containment=True,
        handles_region_containment=True,
        handles_overlap=False,
    ),
    CachingScheme.CONTAINMENT_ONLY: SchemePolicy(
        caches=True,
        handles_containment=True,
        handles_region_containment=False,
        handles_overlap=False,
    ),
}
