"""The proxy's cache manager.

Stores whole query results keyed by the query that produced them,
enforces a byte budget with LRU replacement, and keeps the *cache
description* — the per-template metadata (regions and signatures) the
query processor probes — synchronized with the stored results.

Design notes
------------
* The unit of caching is one query's full result (as in the paper,
  which stores one XML result file per cached query).
* An entry whose producing query carried TOP-N and hit the limit is
  marked ``truncated``: its result is a prefix of the true region
  result, so it can serve *exact matches only*, never containment.
* LRU is an assumption — the paper does not name its replacement
  policy; DESIGN.md records the choice, and the policy is pluggable
  (:mod:`repro.core.replacement`) so the replacement ablation can
  compare alternatives.
* **Locking**: every mutation happens under the ``proxy.cache`` named
  lock (reentrant), taken by the public mutators (``store`` /
  ``clear`` / ``remove`` / ``touch``); the private helpers are only
  ever called from inside those scopes (see DESIGN.md, lock roles).
  The cache *description* is owned
  by this manager and mutated only under the same lock — that
  ownership convention is why ``core/description.py`` registers its
  fields under ``proxy.cache`` and takes no lock of its own.
  Single-dict reads stay lock-free — CPython dict gets are atomic:
  ``_by_key`` maps each key straight to its entry, so ``exact_match``
  is one read with no gap between two dicts for a concurrent eviction
  to open, and ``__len__`` / ``entry`` read one dict too.  The
  multi-step lookup takes the lock: ``candidates`` runs the
  description's probe, which bisects a sorted list and then slices it
  (a concurrent insert or delete between the two would shift the
  slice off the rows it meant).  ``entries()`` snapshots under the
  lock so callers can iterate while another thread stores.  So an
  exact hit takes ``proxy.cache`` once (``touch``) and a contained
  hit twice (the probe and ``touch``).  An entry found without the
  lock, or handed out by the probe, can lose a race with eviction
  right after; that needs no handling, because an entry carries its
  own result: an evicted entry still holds exactly the rows its
  region selected, and ``touch`` skips an entry no longer cached.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.costs import ProxyCostModel
from repro.core.description import CacheDescription
from repro.geometry.regions import Region
from repro.locking import guarded_by, named_lock, read_only, unshared
from repro.obs.decisions import EvictionRecord
from repro.relational.result import ResultTable
from repro.templates.manager import BoundQuery


class CacheError(Exception):
    """Cache misuse (unknown entries, double insertion)."""


@guarded_by("proxy.cache", "last_used", "access_count")
@read_only("result")
@dataclass(eq=False)
class CacheEntry:
    """One cached query result and its metadata.

    Identity (not value) equality: two entries are the same only if they
    are the same object; ``entry_id`` is the stable handle.  The result
    lives on the entry, beside its region (the paper keeps it as an XML
    file next to the region description, Figure 4), and is never
    replaced; ``row_count`` and ``byte_size`` are kept so the proxy can
    rank candidates without reading the rows.
    """

    entry_id: int
    template_id: str
    cache_key: tuple
    region: Region
    signature: str
    truncated: bool
    byte_size: int
    row_count: int
    result: ResultTable
    last_used: int = 0
    access_count: int = 0

    def __repr__(self) -> str:
        return (
            f"<CacheEntry {self.entry_id} {self.template_id} "
            f"{self.row_count} rows>"
        )


@unshared(
    "stored_bytes", "evicted_entries", "description_work", "evictions"
)
@dataclass
class MaintenanceReport:
    """What a cache mutation cost, for the simulated clock.

    ``evictions`` additionally names each victim with the replacement
    policy's rationale, feeding the explain layer's decision traces;
    ``evicted_entries`` stays the count the cost model charges on.
    """

    stored_bytes: int = 0
    evicted_entries: int = 0
    description_work: float = 0.0  # model-specific units (entries/nodes)
    evictions: list[EvictionRecord] = field(default_factory=list)

    def charge_ms(self, costs: ProxyCostModel) -> float:
        return (
            costs.store_ms(self.stored_bytes)
            + costs.evict_per_entry_ms * self.evicted_entries
            + self.description_work
        )


@guarded_by(
    "proxy.cache",
    "description",
    "_entries",
    "_by_key",
    "_ids",
    "_tick",
    "current_bytes",
    "insertions",
    "evictions",
)
class CacheManager:
    """Byte-budgeted LRU store of query results with a description."""

    def __init__(
        self,
        description: CacheDescription,
        max_bytes: int | None = None,
        costs: ProxyCostModel | None = None,
        policy=None,
        observer=None,
    ) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise CacheError(f"negative cache budget: {max_bytes}")
        # Imported here: replacement builds on CacheEntry from this module.
        from repro.core.replacement import LruPolicy

        self.description = description
        self.max_bytes = max_bytes
        self.costs = costs or ProxyCostModel()
        self.policy = policy or LruPolicy()
        #: Optional observability hook with a ``cache_event(kind,
        #: n_bytes, current_bytes, entries)`` method (see
        #: :class:`repro.obs.instrument.ProxyInstrumentation`).
        self.observer = observer
        #: Optional durability hook with ``admitted(entry)``,
        #: ``removed(entry, reason)`` and ``cleared(removed)`` methods
        #: (see :class:`repro.persistence.persister.CachePersister`).
        #: Reasons are ``evict`` (budget pressure), ``consolidate``
        #: (region containment) and ``replace`` (identical query
        #: re-admitted); a full flush is one ``cleared`` record, not a
        #: stream of per-entry removals.
        self.mutation_log = None  # lock-class: CachePersister
        self._lock = named_lock("proxy.cache")
        self._entries: dict[int, CacheEntry] = {}
        self._by_key: dict[tuple, CacheEntry] = {}
        self._ids = itertools.count(1)
        self._tick = itertools.count(1)
        self.current_bytes = 0
        self.insertions = 0
        self.evictions = 0

    # ------------------------------------------------------------ lookup
    def __len__(self) -> int:
        return len(self._entries)

    def exact_match(self, bound: BoundQuery) -> CacheEntry | None:
        """The entry produced by an identical query, if cached: one
        dict read, so no lock."""
        return self._by_key.get(bound.cache_key())

    def candidates(
        self, template_id: str, region: Region
    ) -> tuple[list[CacheEntry], float]:
        """The description's probe, under the lock: it bisects and then
        slices the rows ``store`` inserts and deletes in place."""
        with self._lock:
            return self.description.candidates(template_id, region)

    def exact_match_pinned(
        self, bound: BoundQuery
    ) -> tuple[CacheEntry, ResultTable] | None:
        """The exact match and its result: the serve path's lookup."""
        entry = self.exact_match(bound)
        return None if entry is None else (entry, entry.result)

    def entries(self) -> Iterable[CacheEntry]:
        with self._lock:  # snapshot: callers iterate without the lock
            return list(self._entries.values())

    def entry(self, entry_id: int) -> CacheEntry:
        try:
            return self._entries[entry_id]
        except KeyError:
            raise CacheError(f"unknown cache entry {entry_id}") from None

    def touch(self, entry: CacheEntry) -> None:
        """Record a use, for the replacement policy.

        A no-op for entries no longer cached: a candidate handed out
        by the description can lose the race with a concurrent
        eviction, and the policy must not resurrect bookkeeping for a
        dead entry."""
        with self._lock:
            if entry.entry_id not in self._entries:
                return
            entry.last_used = next(self._tick)
            entry.access_count += 1
            self.policy.on_access(entry)

    # ------------------------------------------------------------- store
    def store(
        self,
        bound: BoundQuery,
        result: ResultTable,
        signature: str,
        truncated: bool,
    ) -> tuple[CacheEntry | None, MaintenanceReport]:
        """Cache a query result, evicting LRU entries to fit.

        Returns ``(entry, report)``; ``entry`` is None when the result
        alone exceeds the whole budget (then nothing is cached — the
        paper's cache stores whole files or nothing).
        """
        report = MaintenanceReport()
        with self._lock:
            key = bound.cache_key()
            old = self._by_key.get(key)
            if old is not None:
                # Identical query raced in (e.g. after an eviction);
                # replace.
                report.description_work += self._remove(old)
                self._log_removed(old, "replace")
            size = result.byte_size()
            if self.max_bytes is not None and size > self.max_bytes:
                if old is not None:
                    self._notify("replace", old.byte_size)
                return None, report
            report.description_work += self._make_room(size, report)
            entry = CacheEntry(
                entry_id=next(self._ids),
                template_id=bound.template_id,
                cache_key=key,
                region=bound.region,
                signature=signature,
                truncated=truncated,
                byte_size=size,
                row_count=len(result),
                result=result,
                last_used=next(self._tick),
            )
            self._entries[entry.entry_id] = entry
            self._by_key[key] = entry
            self.policy.on_insert(entry)
            self.current_bytes += size
            self.insertions += 1
            report.stored_bytes = size
            report.description_work += self.description.add(entry)
            self._notify("insert", size)
            if self.mutation_log is not None:
                self.mutation_log.admitted(entry)
            return entry, report

    def clear(self) -> int:
        """Drop every entry (origin data-version change); returns the
        number of entries removed."""
        with self._lock:
            removed = 0
            for entry in list(self._entries.values()):
                self._remove(entry)
                removed += 1
            if removed:
                self._notify("clear", 0)
                if self.mutation_log is not None:
                    self.mutation_log.cleared(removed)
            return removed

    def remove(self, entry: CacheEntry) -> MaintenanceReport:
        """Remove a specific entry (region-containment consolidation).

        Idempotent: consolidation may target an entry that a concurrent
        eviction (making room for the merged result) already removed.
        """
        report = MaintenanceReport()
        with self._lock:
            if entry.entry_id in self._entries:
                report.description_work += self._remove(entry)
                self._notify("remove", entry.byte_size)
                self._log_removed(entry, "consolidate")
            return report

    # ----------------------------------------------------------- private
    def _make_room(self, incoming: int, report: MaintenanceReport) -> float:
        if self.max_bytes is None:
            return 0.0
        work = 0.0
        while self.current_bytes + incoming > self.max_bytes and self._entries:
            victim = self.policy.victim(self._entries.values())
            # Rationale before removal: policies may consult bookkeeping
            # that on_evict tears down.
            report.evictions.append(
                EvictionRecord(
                    entry_id=victim.entry_id,
                    policy=self.policy.name,
                    rationale=self.policy.rationale(victim),
                    byte_size=victim.byte_size,
                )
            )
            work += self._remove(victim)
            report.evicted_entries += 1
            self.evictions += 1
            self._notify("evict", victim.byte_size)
            self._log_removed(victim, "evict")
        return work

    def _log_removed(self, entry: CacheEntry, reason: str) -> None:
        if self.mutation_log is not None:
            self.mutation_log.removed(entry, reason)

    def _notify(self, kind: str, n_bytes: int) -> None:
        if self.observer is not None:
            self.observer.cache_event(
                kind, n_bytes, self.current_bytes, len(self._entries)
            )

    def _remove(self, entry: CacheEntry) -> float:
        self._by_key.pop(entry.cache_key, None)
        del self._entries[entry.entry_id]
        self.current_bytes -= entry.byte_size
        self.policy.on_evict(entry)
        return self.description.remove(entry)
