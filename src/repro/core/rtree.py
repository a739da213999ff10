"""An R-tree over bounding boxes (Guttman, 1984).

The proxy's *cache description* can be indexed by an R-tree ("ACR" in
the paper's Figure 5) instead of a flat array ("ACNR").  The paper finds
the R-tree does not help — the description is small enough that linear
scan wins once maintenance cost is counted — and this implementation
exists to reproduce exactly that comparison, so it reports the node
visits and restructure operations the cost model charges for.

Standard Guttman R-tree: quadratic split, least-enlargement subtree
choice, condense-on-delete with reinsertion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.geometry.regions import EPSILON, HyperRect

#: A box inside the tree: ``(lows, highs)``, the two corner tuples of a
#: checked :class:`HyperRect`, read once at ``insert`` / ``search``.
#: Every operation below compares and combines these plain floats; no
#: ``HyperRect`` is built per node or per entry.
Box = tuple[tuple[float, ...], tuple[float, ...]]


class RTreeError(Exception):
    """Structural misuse: duplicate ids, unknown deletions, bad arity."""


@dataclass(eq=False, slots=True)
class _Node:
    leaf: bool
    entries: list["_Entry"] = field(default_factory=list)
    parent: "_Node | None" = None

    def mbr(self) -> Box:
        box = self.entries[0].box
        for entry in self.entries[1:]:
            box = _union(box, entry.box)
        return box


@dataclass(eq=False, slots=True)
class _Entry:
    box: Box
    child: "_Node | None" = None  # internal entries
    key: Any = None  # leaf entries


def _union(a: Box, b: Box) -> Box:
    """The minimum box enclosing both: an internal entry's expansion."""
    return tuple(map(min, a[0], b[0])), tuple(map(max, a[1], b[1]))


def _disjoint(a: Box, b: Box) -> bool:
    """``HyperRect.intersect(...) is None``: apart on some axis, or
    either box itself empty (``low > high``)."""
    for lo, hi, other_lo, other_hi in zip(*a, *b):
        if max(lo, other_lo) > min(hi, other_hi) + EPSILON:
            return True
    return False


def _covers(outer: Box, inner: Box) -> bool:
    """Corner by corner, exactly: an MBR is made by ``min``/``max`` alone."""
    for lo, hi, inner_lo, inner_hi in zip(*outer, *inner):
        if inner_lo < lo or inner_hi > hi:
            return False
    return True


def _area(box: Box) -> float:
    area = 1.0
    for lo, hi in zip(*box):
        area *= max(hi - lo, 0.0)
    return area


def _union_area(a: Box, b: Box) -> float:
    """``_area(_union(a, b))`` without building the union."""
    area = 1.0
    for lo, hi, other_lo, other_hi in zip(*a, *b):
        area *= max(max(hi, other_hi) - min(lo, other_lo), 0.0)
    return area


def _enlargement(box: Box, extra: Box) -> float:
    return _union_area(box, extra) - _area(box)


class RTree:
    """R-tree mapping opaque keys to bounding boxes.

    ``max_entries``/``min_entries`` follow Guttman's M and m.  The tree
    tracks ``nodes_visited`` (reset per operation) so the proxy cost
    model can charge search and maintenance work, and
    ``maintenance_ops`` cumulative splits/condenses for diagnostics.

    Callers hand in :class:`HyperRect` boxes; the tree reads their
    corners once and works on plain float tuples from there on.
    """

    def __init__(self, dims: int, max_entries: int = 8) -> None:
        if dims < 1:
            raise RTreeError(f"dims must be positive: {dims}")
        if max_entries < 4:
            raise RTreeError("max_entries must be at least 4")
        self.dims = dims
        self.max_entries = max_entries
        self.min_entries = max(2, max_entries // 2 - 1)
        self._root = _Node(leaf=True)
        self._boxes: dict[Any, Box] = {}
        self.nodes_visited = 0
        self.maintenance_ops = 0

    def __len__(self) -> int:
        return len(self._boxes)

    def __contains__(self, key: Any) -> bool:
        return key in self._boxes

    # ------------------------------------------------------------ search
    def search(self, box: HyperRect) -> list[Any]:
        """Keys of all entries whose box intersects ``box``.

        Sets ``nodes_visited`` to the number of tree nodes touched, the
        quantity the proxy cost model charges for an indexed check.
        """
        self._check_dims(box)
        self.nodes_visited = 0
        found: list[Any] = []
        self._search(self._root, (box.lows, box.highs), found)
        return found

    def _search(self, node: _Node, box: Box, found: list[Any]) -> None:
        self.nodes_visited += 1
        for entry in node.entries:
            if _disjoint(entry.box, box):
                continue
            if node.leaf:
                found.append(entry.key)
            else:
                self._search(entry.child, box, found)

    # ------------------------------------------------------------ insert
    def insert(self, key: Any, box: HyperRect) -> None:
        self._check_dims(box)
        if key in self._boxes:
            raise RTreeError(f"duplicate key {key!r}")
        flat = self._boxes[key] = (box.lows, box.highs)
        self.nodes_visited = 0
        self._insert_entry(_Entry(box=flat, key=key), into_leaf=True)

    def _insert_entry(self, entry: _Entry, into_leaf: bool) -> None:
        node = self._choose_node(entry.box, into_leaf)
        node.entries.append(entry)
        if entry.child is not None:
            entry.child.parent = node
        if len(node.entries) > self.max_entries:
            self._split(node)

    def _choose_node(self, box: Box, into_leaf: bool) -> _Node:
        def cost(entry: _Entry) -> tuple[float, float]:
            area = _area(entry.box)
            return _union_area(entry.box, box) - area, area

        node = self._root
        while not node.leaf:
            self.nodes_visited += 1
            if not into_leaf:
                # Subtree insertion (re-insert after condense) targets the
                # level above the subtree's height; for simplicity we only
                # re-insert leaf entries, so this branch never triggers.
                raise RTreeError("internal re-insertion is not supported")
            best = min(node.entries, key=cost)
            best.box = _union(best.box, box)
            node = best.child
        self.nodes_visited += 1
        return node

    # ------------------------------------------------------------- split
    def _split(self, node: _Node) -> None:
        self.maintenance_ops += 1
        entries = node.entries
        seed_a, seed_b = self._pick_seeds(entries)
        group_a = [seed_a]
        group_b = [seed_b]
        box_a = seed_a.box
        box_b = seed_b.box
        remaining = [e for e in entries if e is not seed_a and e is not seed_b]
        while remaining:
            # Guttman's "pick next": the entry with the greatest
            # preference for one group.
            need_a = self.min_entries - len(group_a)
            need_b = self.min_entries - len(group_b)
            if need_a >= len(remaining):
                group_a.extend(remaining)
                break
            if need_b >= len(remaining):
                group_b.extend(remaining)
                break
            best = max(
                remaining,
                key=lambda e: abs(
                    _enlargement(box_a, e.box) - _enlargement(box_b, e.box)
                ),
            )
            remaining.remove(best)
            if _enlargement(box_a, best.box) <= _enlargement(box_b, best.box):
                group_a.append(best)
                box_a = _union(box_a, best.box)
            else:
                group_b.append(best)
                box_b = _union(box_b, best.box)

        node.entries = group_a
        sibling = _Node(leaf=node.leaf, entries=group_b, parent=node.parent)
        for entry in group_b:
            if entry.child is not None:
                entry.child.parent = sibling

        if node.parent is None:
            new_root = _Node(leaf=False)
            for child in (node, sibling):
                child.parent = new_root
                new_root.entries.append(
                    _Entry(box=child.mbr(), child=child)
                )
            self._root = new_root
            return
        parent = node.parent
        self._refresh_parent_box(node)
        parent.entries.append(_Entry(box=sibling.mbr(), child=sibling))
        if len(parent.entries) > self.max_entries:
            self._split(parent)

    def _pick_seeds(self, entries: list[_Entry]) -> tuple[_Entry, _Entry]:
        areas = [_area(entry.box) for entry in entries]
        worst_pair = (entries[0], entries[1])
        worst_waste = float("-inf")
        for i, a in enumerate(entries):
            for j in range(i + 1, len(entries)):
                b = entries[j]
                waste = _union_area(a.box, b.box) - areas[i] - areas[j]
                if waste > worst_waste:
                    worst_waste = waste
                    worst_pair = (a, b)
        return worst_pair

    # ------------------------------------------------------------ delete
    def delete(self, key: Any) -> None:
        box = self._boxes.pop(key, None)
        if box is None:
            raise RTreeError(f"unknown key {key!r}")
        self.nodes_visited = 0
        leaf = self._find_leaf(self._root, key, box)
        if leaf is None:
            raise RTreeError(f"key {key!r} missing from tree structure")
        leaf.entries = [e for e in leaf.entries if e.key != key]
        self._condense(leaf)
        if not self._root.leaf and len(self._root.entries) == 1:
            self._root = self._root.entries[0].child
            self._root.parent = None

    def _find_leaf(self, node: _Node, key: Any, box: Box) -> _Node | None:
        self.nodes_visited += 1
        if node.leaf:
            if any(entry.key == key for entry in node.entries):
                return node
            return None
        for entry in node.entries:
            # A box that is itself empty (low > high) intersects
            # nothing, not even its ancestors; they still cover it.
            # For any other box, covered implies intersecting.
            if not _disjoint(entry.box, box) or _covers(entry.box, box):
                found = self._find_leaf(entry.child, key, box)
                if found is not None:
                    return found
        return None

    def _condense(self, node: _Node) -> None:
        orphans: list[_Entry] = []
        while node.parent is not None:
            parent = node.parent
            if len(node.entries) < self.min_entries:
                self.maintenance_ops += 1
                parent.entries = [
                    e for e in parent.entries if e.child is not node
                ]
                if node.leaf:
                    orphans.extend(node.entries)
                else:
                    orphans.extend(self._collect_leaf_entries(node))
            else:
                self._refresh_parent_box(node)
            node = parent
        if self._root.leaf and not self._root.entries and orphans:
            # The whole tree condensed away; rebuild from orphans.
            self._root = _Node(leaf=True)
        for entry in orphans:
            self._insert_entry(entry, into_leaf=True)

    def _collect_leaf_entries(self, node: _Node) -> list[_Entry]:
        if node.leaf:
            return list(node.entries)
        collected: list[_Entry] = []
        for entry in node.entries:
            collected.extend(self._collect_leaf_entries(entry.child))
        return collected

    def _refresh_parent_box(self, node: _Node) -> None:
        parent = node.parent
        if parent is None:
            return
        for entry in parent.entries:
            if entry.child is node and node.entries:
                entry.box = node.mbr()

    # ------------------------------------------------------------- misc
    def _check_dims(self, box: HyperRect) -> None:
        if box.dims != self.dims:
            raise RTreeError(
                f"{box.dims}-d box in a {self.dims}-d tree"
            )

    def check_invariants(self) -> None:
        """Validate structure; used by property tests."""
        keys = set()
        self._check_node(self._root, keys, is_root=True)
        if keys != set(self._boxes):
            raise RTreeError("tree keys disagree with the key map")

    def _check_node(self, node: _Node, keys: set, is_root: bool) -> None:
        if not is_root and not (
            self.min_entries <= len(node.entries) <= self.max_entries
        ):
            raise RTreeError(
                f"node has {len(node.entries)} entries, expected "
                f"[{self.min_entries}, {self.max_entries}]"
            )
        if len(node.entries) > self.max_entries:
            raise RTreeError("node overflow")
        for entry in node.entries:
            if node.leaf:
                if entry.key in keys:
                    raise RTreeError(f"duplicate key {entry.key!r} in tree")
                keys.add(entry.key)
            else:
                child = entry.child
                if child.parent is not node:
                    raise RTreeError("broken parent pointer")
                for lo, hi, clo, chi in zip(*entry.box, *child.mbr()):
                    if clo < lo - 1e-9 or chi > hi + 1e-9:
                        raise RTreeError("entry box does not cover child")
                self._check_node(child, keys, is_root=False)
