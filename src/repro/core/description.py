"""Cache descriptions: the metadata structure probed per query.

The *cache description* (paper Figure 4) records, for every cached
result, the region its query selected.  Answering a new query starts by
probing the description for cached regions that could relate to the new
region.  The paper compares two implementations:

* **array** (``ACNR``) — a flat list, linearly scanned;
* **R-tree** (``ACR``) — bounding boxes indexed in an R-tree.

Both return *candidates*; the query processor then runs the exact
region-relation check on each.  Each returns the amount of simulated
work its probe or update performed (already converted to milliseconds
via the supplied cost model), so the two implementations are charged
differently exactly as the paper's measurements show: the R-tree visits
fewer entries per probe but pays more per maintenance operation.

Entries of different *templates* live in disjoint sub-descriptions:
regions from different templates inhabit different coordinate spaces
(a 3-d chord sphere vs a 2-d sky rectangle) and are never compared.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.core.costs import ProxyCostModel
from repro.core.rtree import RTree
from repro.geometry.regions import EPSILON, Region

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.cache import CacheEntry


class CacheDescription(Protocol):
    """Probe-and-maintain interface shared by array and R-tree."""

    #: Short implementation tag ("array", "rtree"); the profiler names
    #: its probe stage ``probe.<kind>`` after it.
    kind: str

    def add(self, entry: "CacheEntry") -> float:
        """Index an entry; returns simulated maintenance milliseconds."""

    def remove(self, entry: "CacheEntry") -> float:
        """Unindex an entry; returns simulated maintenance milliseconds."""

    def candidates(
        self, template_id: str, region: Region
    ) -> tuple[list["CacheEntry"], float]:
        """Entries of ``template_id`` possibly related to ``region``.

        Returns ``(candidates, probe_ms)``.  May overapproximate (the
        caller runs exact relation checks) but must never miss an entry
        whose region intersects ``region``.
        """


class ArrayDescription:
    """Flat per-template entry lists, scanned linearly (ACNR).

    Each entry's bounding box is built once, at ``add``, and kept
    beside it as one flat row ``(entry, *lows, *highs)`` of plain
    floats; a probe builds only the query's own box and compares
    numbers.
    """

    kind = "array"

    def __init__(self, costs: ProxyCostModel | None = None) -> None:
        self.costs = costs or ProxyCostModel()
        self._by_template: dict[str, dict[int, tuple]] = {}

    def add(self, entry: "CacheEntry") -> float:
        box = entry.region.bounding_box()
        bucket = self._by_template.setdefault(entry.template_id, {})
        bucket[entry.entry_id] = (entry, *box.lows, *box.highs)
        return self.costs.array_update_ms

    def remove(self, entry: "CacheEntry") -> float:
        bucket = self._by_template.get(entry.template_id, {})
        bucket.pop(entry.entry_id, None)
        return self.costs.array_update_ms

    def candidates(
        self, template_id: str, region: Region
    ) -> tuple[list["CacheEntry"], float]:
        bucket = self._by_template.get(template_id, {})
        # One C-level copy: ``store`` mutates the bucket under
        # ``proxy.cache`` while this probe runs outside it.
        rows = list(bucket.values())
        # Linear scan: every entry of the template is touched, so every
        # entry is charged.
        probe_ms = self.costs.check_per_array_entry_ms * len(rows)
        box = region.bounding_box()
        dims = len(box.lows)
        # ``entry.region.bounding_box().intersect(box) is not None``,
        # one axis at a time over the rows still standing.  Two boxes
        # are apart on an axis iff ``max(lo, q_lo) > min(hi, q_hi) +
        # EPSILON``; float addition is monotone, so that is the four
        # ``>`` tests below (one of them on the query alone), which
        # also reject a box that is itself empty and, like
        # ``intersect``, never reject on a NaN.
        for axis, (q_lo, q_hi) in enumerate(zip(box.lows, box.highs), 1):
            q_hi += EPSILON
            if q_lo > q_hi:
                return [], probe_ms
            high = axis + dims
            rows = [
                row
                for row in rows
                if not (
                    row[axis] > q_hi
                    or q_lo > row[high] + EPSILON
                    or row[axis] > row[high] + EPSILON
                )
            ]
        return [row[0] for row in rows], probe_ms


class RTreeDescription:
    """Per-template R-trees over region bounding boxes (ACR)."""

    kind = "rtree"

    def __init__(
        self, costs: ProxyCostModel | None = None, max_entries: int = 8
    ) -> None:
        self.costs = costs or ProxyCostModel()
        self.max_entries = max_entries
        self._trees: dict[str, RTree] = {}
        self._entries: dict[str, dict[int, "CacheEntry"]] = {}

    def _tree_for(self, entry: "CacheEntry") -> RTree:
        tree = self._trees.get(entry.template_id)
        if tree is None:
            tree = RTree(entry.region.dims, max_entries=self.max_entries)
            self._trees[entry.template_id] = tree
        return tree

    def add(self, entry: "CacheEntry") -> float:
        tree = self._tree_for(entry)
        tree.insert(entry.entry_id, entry.region.bounding_box())
        self._entries.setdefault(entry.template_id, {})[
            entry.entry_id
        ] = entry
        return self.costs.rtree_update_per_node_ms * max(
            tree.nodes_visited, 1
        )

    def remove(self, entry: "CacheEntry") -> float:
        tree = self._trees.get(entry.template_id)
        if tree is None or entry.entry_id not in tree:
            return 0.0
        tree.delete(entry.entry_id)
        self._entries.get(entry.template_id, {}).pop(entry.entry_id, None)
        return self.costs.rtree_update_per_node_ms * max(
            tree.nodes_visited, 1
        )

    def candidates(
        self, template_id: str, region: Region
    ) -> tuple[list["CacheEntry"], float]:
        tree = self._trees.get(template_id)
        if tree is None:
            return [], 0.0
        ids = tree.search(region.bounding_box())
        probe_ms = self.costs.check_per_rtree_node_ms * tree.nodes_visited
        # ``.get``: this probe runs outside ``proxy.cache``, so an
        # entry the search just found can be evicted before it is
        # looked up.
        found = map(self._entries.get(template_id, {}).get, ids)
        return [entry for entry in found if entry is not None], probe_ms
