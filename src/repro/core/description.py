"""Cache descriptions: the metadata structure probed per query.

The *cache description* (paper Figure 4) records, for every cached
result, the region its query selected.  Answering a new query starts by
probing the description for cached regions that could relate to the new
region.  The paper compares two implementations:

* **array** (``ACNR``) — a flat list, charged as a linear scan (it
  is kept sorted on one axis, so a probe reads only the entries that
  can reach the query);
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

import itertools
from bisect import bisect_left, bisect_right, insort
from operator import itemgetter
from typing import TYPE_CHECKING, Protocol

from repro.core.costs import ProxyCostModel
from repro.core.rtree import RTree
from repro.geometry.regions import EPSILON, Region
from repro.locking import guarded_by

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


@guarded_by(
    "proxy.cache", "by_id", "sorted", "side", "axis", "key", "order",
    "reach", "adds",
)
class _Zone:
    """One template's rows, by entry id and sorted on one axis.

    A row is ``(entry, *lows, *highs, seq)``, ``seq`` counting adds.
    ``sorted`` keeps the rows in (low edge on ``axis``, ``seq``) order,
    except those whose extent on ``axis`` is NaN (a NaN edge, or both
    edges at one infinity): ``side`` keeps them, and every probe reads
    it.  ``reach`` is at least the widest extent in ``sorted``; it does
    not shrink when a row leaves (a probe stays exact, and reads a
    wider slice until the next re-sort).  ``axis`` is the one along
    which the live rows' low edges spread widest, chosen again, and
    the rows re-sorted, at the 1st, 2nd, 4th, 8th ... add: amortized
    O(log n) per add, and no setting.
    """

    def __init__(self, dims: int) -> None:
        self.dims, self.axis, self.reach, self.adds = dims, 0, 0.0, 0
        self.key, self.order = itemgetter(1), list(range(dims))
        self.by_id: dict[int, tuple] = {}
        self.sorted: list[tuple] = []
        self.side: list[tuple] = []

    def _sortable(self, row: tuple) -> bool:
        """Whether ``row`` belongs in ``sorted`` (then ``reach`` is
        widened to it); a row that does not is put in ``side``."""
        width = row[1 + self.dims + self.axis] - row[1 + self.axis]
        if width != width:
            self.side.append(row)
        else:
            self.reach = max(self.reach, width)
        return width == width

    def add(self, row: tuple) -> None:
        self.by_id[row[0].entry_id] = row
        self.adds += 1
        if self.adds & (self.adds - 1) == 0:
            self._sort()
        elif self._sortable(row):
            # After any equal low edge: ``row`` has the largest ``seq``.
            insort(self.sorted, row, key=self.key)

    def _sort(self) -> None:
        # The axis of the widest spread of low edges (a NaN edge can only
        # mislead this choice, never a probe's result).
        lows = zip(*(row[1 : 1 + self.dims] for row in self.by_id.values()))
        spreads = [max(edges) - min(edges) for edges in lows]
        self.axis = max(range(self.dims), key=spreads.__getitem__)
        self.key = itemgetter(1 + self.axis)
        # The order a probe compares axes in: the sort axis last, since
        # a slice has mostly passed it already.
        self.order = sorted(range(self.dims), key=self.axis.__eq__)
        self.side, self.reach = [], 0.0
        # ``by_id`` iterates in add order and the sort is stable, so
        # equal low edges stay in ``seq`` order.
        self.sorted = sorted(
            filter(self._sortable, self.by_id.values()),
            key=self.key,
        )

    def remove(self, entry_id: int) -> None:
        row = self.by_id.pop(entry_id, None)
        if row in self.side:
            self.side.remove(row)
        elif row is not None:
            key = itemgetter(1 + self.axis, -1)  # (low edge, seq)
            del self.sorted[bisect_left(self.sorted, key(row), key=key)]

    def reaching(self, q_lo: float, q_hi: float) -> list[tuple]:
        """The rows whose low edge on ``axis`` lies in
        ``[q_lo - reach - margin, q_hi + EPSILON]``, and ``side``: every
        row the probe's comparisons on ``axis`` can keep.

        A kept row has ``lo <= fl(q_hi + EPSILON)``, the upper bound
        exactly.  It also has ``q_lo <= fl(hi + EPSILON)`` and
        ``fl(hi - lo) <= reach``, so ``lo >= q_lo - reach - EPSILON``
        up to the rounding of those two operations and of the two
        subtractions below (``lo + (hi - lo)`` can miss ``hi`` by an
        ulp).  A kept row lies within reach of the query, so each of
        the four errs by at most 2**-53 of a magnitude below ``|q_lo| +
        |q_hi| + |reach| + EPSILON``; ``margin`` allows 2**-40 of that
        magnitude plus one.
        An infinity makes the lower bound infinite or NaN, and a NaN
        bound (a NaN in the query) compares false with every key, so
        ``bisect_left`` returns 0 and ``bisect_right`` the length: the
        probe then reads every row.
        """
        key = self.key
        margin = EPSILON + 2**-40 * (
            1.0 + abs(q_lo) + abs(q_hi) + abs(self.reach)
        )
        start = bisect_left(self.sorted, q_lo - self.reach - margin, key=key)
        stop = bisect_right(self.sorted, q_hi + EPSILON, key=key)
        return self.sorted[start:stop] + self.side


@guarded_by("proxy.cache", "_zones", "_seq")
class ArrayDescription:
    """Per-template entry arrays, each sorted on one axis (ACNR).

    Each entry's bounding box is built once, at ``add``, and kept
    beside it as one flat row ``(entry, *lows, *highs, seq)`` of plain
    floats; a probe builds only the query's own box, bisects to the
    rows that can reach it on the sort axis (:class:`_Zone`) and
    compares numbers on those.  The simulated charge still models the
    paper's linear scan: every entry of the template.
    """

    kind = "array"

    def __init__(self, costs: ProxyCostModel | None = None) -> None:
        self.costs = costs or ProxyCostModel()
        self._zones: dict[str, _Zone] = {}
        self._seq = itertools.count()

    def add(self, entry: "CacheEntry") -> float:
        box = entry.region.bounding_box()
        zone = self._zones.get(entry.template_id)
        if zone is None:
            zone = self._zones[entry.template_id] = _Zone(len(box.lows))
        zone.add((entry, *box.lows, *box.highs, next(self._seq)))
        return self.costs.array_update_ms

    def remove(self, entry: "CacheEntry") -> float:
        if entry.template_id in self._zones:
            self._zones[entry.template_id].remove(entry.entry_id)
        return self.costs.array_update_ms

    def candidates(
        self, template_id: str, region: Region
    ) -> tuple[list["CacheEntry"], float]:
        zone = self._zones.get(template_id)
        if zone is None:
            return [], 0.0
        # Charged as the paper's linear scan: every entry of the template.
        probe_ms = self.costs.check_per_array_entry_ms * len(zone.by_id)
        box = region.bounding_box()
        dims = len(box.lows)
        rows = zone.reaching(box.lows[zone.axis], box.highs[zone.axis])
        # ``entry.region.bounding_box().intersect(box) is not None``,
        # one axis at a time over the rows still standing.  Two boxes
        # are apart on an axis iff ``max(lo, q_lo) > min(hi, q_hi) +
        # EPSILON``; float addition is monotone, so that is the four
        # ``>`` tests below (one of them on the query alone), which
        # also reject a box that is itself empty and, like
        # ``intersect``, never reject on an axis whose edges are both
        # NaN.  A box with one NaN edge is judged by its other edge,
        # where ``intersect`` may keep it.
        for axis in zone.order:
            q_lo, q_hi = box.lows[axis], box.highs[axis] + EPSILON
            if q_lo > q_hi:
                return [], probe_ms
            axis, high = axis + 1, axis + 1 + dims
            rows = [
                row
                for row in rows
                if not (
                    row[axis] > q_hi
                    or q_lo > row[high] + EPSILON
                    or row[axis] > row[high] + EPSILON
                )
            ]
        if len(rows) > 1:
            rows.sort(key=itemgetter(-1))  # add order
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
        # ``.get``: a caller probing outside ``proxy.cache`` (the serve
        # path takes it) can see an entry the search just found evicted
        # before it is looked up.
        found = map(self._entries.get(template_id, {}).get, ids)
        return [entry for entry in found if entry is not None], probe_ms
