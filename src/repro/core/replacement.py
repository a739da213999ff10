"""Cache replacement policies.

The paper never names its replacement policy; DESIGN.md records LRU as
this reproduction's default assumption.  To let that assumption be
*tested* rather than trusted, replacement is pluggable, and the
replacement ablation bench replays the trace under each policy:

* :class:`LruPolicy` — evict the least recently used entry (default);
* :class:`FifoPolicy` — evict the oldest entry;
* :class:`LfuPolicy` — evict the least frequently used entry
  (ties broken by recency);
* :class:`LargestFirstPolicy` — evict the biggest entry (classic web
  caching heuristic: many small objects beat one large one);
* :class:`GreedyDualSizePolicy` — Cao & Irani's GreedyDual-Size with
  uniform miss cost: each entry carries a credit ``L + 1/size``; the
  minimum-credit entry is evicted and its credit becomes the new
  inflation level ``L``.

A policy observes insertions, accesses, and evictions, and chooses a
victim among live entries; the cache manager owns everything else.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.cache import CacheEntry


class ReplacementPolicy:
    """Base policy: observation hooks plus victim selection."""

    name = "abstract"

    def on_insert(self, entry: CacheEntry) -> None:
        """A new entry was cached."""

    def on_access(self, entry: CacheEntry) -> None:
        """An entry served (part of) a query."""

    def on_evict(self, entry: CacheEntry) -> None:
        """An entry left the cache (eviction or consolidation)."""

    def victim(self, entries: Iterable[CacheEntry]) -> CacheEntry:
        raise NotImplementedError

    def rationale(self, entry: CacheEntry) -> str:
        """Why ``entry`` was chosen as the victim (explain layer).

        Called on the entry :meth:`victim` returned, *before* it is
        removed, so policies may consult their bookkeeping.
        """
        return f"selected by {self.name}"


class LruPolicy(ReplacementPolicy):
    """Least recently used (the library default).

    Entries are kept in recency order — an insert or an access moves
    one to the end — so the victim is the first, found without a scan.
    The cache stamps each insert and access with a fresh tick, so this
    order is the ``last_used`` order.
    """

    name = "lru"

    def __init__(self) -> None:
        self._recency: dict[int, CacheEntry] = {}

    def on_insert(self, entry: CacheEntry) -> None:
        self._recency[entry.entry_id] = entry

    def on_access(self, entry: CacheEntry) -> None:
        recency = self._recency
        recency[entry.entry_id] = recency.pop(entry.entry_id, entry)

    def on_evict(self, entry: CacheEntry) -> None:
        self._recency.pop(entry.entry_id, None)

    def victim(self, entries: Iterable[CacheEntry]) -> CacheEntry:
        return next(iter(self._recency.values()))

    def rationale(self, entry: CacheEntry) -> str:
        return f"least recently used (last_used tick {entry.last_used})"


class FifoPolicy(ReplacementPolicy):
    """Oldest entry first; entry ids are allocation-ordered."""

    name = "fifo"

    def victim(self, entries: Iterable[CacheEntry]) -> CacheEntry:
        return min(entries, key=lambda e: e.entry_id)

    def rationale(self, entry: CacheEntry) -> str:
        return f"oldest entry (entry_id {entry.entry_id})"


class LfuPolicy(ReplacementPolicy):
    """Least frequently used, recency as the tiebreak."""

    name = "lfu"

    def victim(self, entries: Iterable[CacheEntry]) -> CacheEntry:
        return min(entries, key=lambda e: (e.access_count, e.last_used))

    def rationale(self, entry: CacheEntry) -> str:
        return (
            f"least frequently used ({entry.access_count} accesses, "
            f"last_used tick {entry.last_used})"
        )


class LargestFirstPolicy(ReplacementPolicy):
    """Evict the largest entry; recency breaks ties."""

    name = "largest-first"

    def victim(self, entries: Iterable[CacheEntry]) -> CacheEntry:
        return min(entries, key=lambda e: (-e.byte_size, e.last_used))

    def rationale(self, entry: CacheEntry) -> str:
        return f"largest entry ({entry.byte_size} bytes)"


class GreedyDualSizePolicy(ReplacementPolicy):
    """GreedyDual-Size with uniform miss cost (GDS(1)).

    Credit on insert/access: ``L + 1 / size_kb``; the evicted entry's
    credit becomes the new inflation level, aging everything else
    implicitly.  Favors small entries and recently useful ones without
    timestamps.
    """

    name = "gds"

    def __init__(self) -> None:
        self._inflation = 0.0
        self._credit: dict[int, float] = {}

    def _charge(self, entry: CacheEntry) -> None:
        size_kb = max(entry.byte_size / 1024.0, 1e-6)
        self._credit[entry.entry_id] = self._inflation + 1.0 / size_kb

    def on_insert(self, entry: CacheEntry) -> None:
        self._charge(entry)

    def on_access(self, entry: CacheEntry) -> None:
        self._charge(entry)

    def on_evict(self, entry: CacheEntry) -> None:
        self._credit.pop(entry.entry_id, None)

    def victim(self, entries: Iterable[CacheEntry]) -> CacheEntry:
        chosen = min(
            entries,
            key=lambda e: self._credit.get(e.entry_id, self._inflation),
        )
        self._inflation = self._credit.get(
            chosen.entry_id, self._inflation
        )
        return chosen

    def rationale(self, entry: CacheEntry) -> str:
        credit = self._credit.get(entry.entry_id, self._inflation)
        return (
            f"minimum credit ({credit:.6f} at "
            f"inflation {self._inflation:.6f})"
        )


ALL_POLICIES = (
    LruPolicy,
    FifoPolicy,
    LfuPolicy,
    LargestFirstPolicy,
    GreedyDualSizePolicy,
)
