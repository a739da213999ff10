"""The cache persister: mutation log + snapshot cadence in one object.

A :class:`CachePersister` is the proxy's durability sidecar.  The
cache manager reports every mutation to it (the ``mutation_log`` hook
on :class:`~repro.core.cache.CacheManager`); the persister appends a
framed record to the journal and, every ``snapshot_every`` records,
writes the full live entry set to the snapshot file (atomically) and
truncates the journal.  A result is encoded once, at admit: the
persister keeps each live entry's admit frame, stamped with the data
version the entry was admitted under, and a checkpoint writes the kept
frames as they are — it encodes nothing and reads nothing from the
cache.  The write ordering is the crash-consistency argument:

1. journal append is the *only* mutation between snapshots, so a crash
   tears at most the journal tail;
2. the snapshot replaces its predecessor via ``os.replace`` and is
   fsync'd *before* the journal is truncated, so every instant has a
   complete (snapshot, journal) pair to recover from.

The write path carries no crash schedule: a crash is a state of the
disk, made by stopping the proxy and applying a seeded
:class:`~repro.faults.crash.CrashPlan` to the journal file.  The
persister is deliberately ignorant of *how* to rebuild a cache; that
is :mod:`repro.persistence.recovery`'s job.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.locking import guarded_by, named_lock, unshared
from repro.network.clock import Clock
from repro.obs.events import EV_SNAPSHOT_CHECKPOINT
from repro.persistence.errors import PersistenceError
from repro.persistence.image import admit_record
from repro.persistence.journal import Journal
from repro.persistence.records import (
    REMOVAL_REASONS,
    AdmitRecord,
    ClearRecord,
    EvictRecord,
    encode_record,
)
from repro.persistence.snapshot import load_snapshot, write_snapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.cache import CacheEntry, CacheManager

JOURNAL_NAME = "journal.bin"
SNAPSHOT_NAME = "snapshot.bin"


@guarded_by(
    "persistence.journal",
    "suspended",
    "total_records",
    "last_snapshot_ts_ms",
    "_written_ms",
    "last_recovery",
)
@guarded_by("proxy.cache", "_frames")
@unshared("_cache", "_clock", "_version_of", "_admitted_under", "_obs")
class CachePersister:
    """Journal + snapshot management for one cache directory.

    Locking: the ``persistence.journal`` named lock serializes the
    persister's bookkeeping (append counting, the recovery flags); the
    journal file itself has its own innermost lock
    (``persistence.journal.file``), taken by :class:`Journal`.
    The kept admit frames change only in the ``mutation_log`` hooks,
    which fire under ``proxy.cache``; the snapshot-cadence checkpoint
    runs inside those hooks too, and recovery's repair checkpoint
    before any serving thread exists.  ``checkpoint`` takes no lock of
    the cache's: that would add a journal→cache edge and invert the
    lock order.  The ``_cache`` / ``_clock`` / ``_version_of`` /
    ``_admitted_under`` / ``_obs`` attributes are rebound only by
    single-threaded ``bind`` wiring, hence ``unshared``.
    """

    def __init__(
        self,
        directory: str | Path,
        snapshot_every: int = 64,
        durable: bool = False,
        shard_id: str | None = None,
    ) -> None:
        if snapshot_every < 1:
            raise PersistenceError(
                f"snapshot_every must be at least 1: {snapshot_every}"
            )
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise PersistenceError(
                f"cannot create persistence directory "
                f"{self.directory}: {exc}"
            ) from exc
        self.snapshot_every = snapshot_every
        self.durable = durable
        #: The owning shard worker's id; stamped onto every admit
        #: record so its records can be replayed anywhere (recovery
        #: skips records tagged with a *different* shard).  ``None`` on
        #: a single-proxy deployment keeps the wire form unchanged.
        self.shard_id = shard_id
        self.journal = Journal(self.directory / JOURNAL_NAME)
        self.snapshot_path = self.directory / SNAPSHOT_NAME
        self._lock = named_lock("persistence.journal")
        #: Set while recovery re-admits entries; hooks become no-ops so
        #: replaying the journal does not re-journal itself.
        self.suspended = False
        self.total_records = 0  # lifetime appends, unaffected by resets
        self.last_snapshot_ts_ms: float | None = None
        #: Work-clock time of the last append or checkpoint: the
        #: snapshot-age gauge reads the age as of this write.
        self._written_ms = 0.0
        self.last_recovery: dict[str, Any] | None = None
        self._cache: "CacheManager | None" = None
        self._clock: Clock | None = None
        self._version_of: Callable[[], int | None] = lambda: None
        self._admitted_under: Callable[[], int | None] = lambda: None
        self._obs: Any = None
        #: Each live entry's admit frame, by ``entry_id``: encoded once
        #: at admit, written again by every checkpoint.
        self._frames: dict[int, bytes] = {}

    # ------------------------------------------------------------ wiring
    def bind(
        self,
        cache: "CacheManager",
        clock: Clock,
        version_of: Callable[[], int | None],
        obs: Any = None,
        *,
        admitted_under: Callable[[], int | None],
    ) -> None:
        """Attach the live proxy parts the persister reads from.

        Called by :class:`~repro.core.proxy.FunctionProxy` during
        construction.  ``version_of`` is the origin's current data
        version, which recovery fences against (the proxy's
        ``origin_data_version``).  ``admitted_under`` is the version
        the cache admits entries under (the proxy's
        ``seen_data_version``), stamped on every record.  ``clock``
        (the proxy's work clock) stamps the records.
        """
        self._cache = cache
        self._clock = clock
        self._version_of = version_of
        self._admitted_under = admitted_under
        self._obs = obs

    def current_version(self) -> int | None:
        """The origin's current data version (``version_of``)."""
        return self._version_of()

    # -------------------------------------------------- recovery bookkeeping
    def set_suspended(self, flag: bool) -> None:
        """Recovery hook: mute (or unmute) the mutation-log hooks.

        Recovery flips this around its re-admission loop so replaying
        the journal does not re-journal itself.  A locked setter, so
        recovery never holds the persister lock while calling into the
        cache (which would invert the cache→journal lock order).
        """
        with self._lock:
            self.suspended = flag

    def record_recovery(self, report: dict[str, Any]) -> None:
        """Recovery hook: publish the last recovery's report payload."""
        with self._lock:
            self.last_recovery = report

    # ------------------------------------------------- mutation-log hooks
    # While ``suspended`` (recovery's replay, a crash's memory loss) a
    # hook still keeps the frames in step with the cache and only skips
    # the append: the repair checkpoint that ends recovery writes them.
    def admitted(self, entry: "CacheEntry") -> None:
        """Cache-manager hook: ``entry`` just entered the cache."""
        frame = encode_record(
            admit_record(
                entry, self._admitted_under(), self._now_ms(), self.shard_id
            )
        )
        self._frames[entry.entry_id] = frame
        if not self.suspended:
            self._append(frame, AdmitRecord.type)

    def removed(self, entry: "CacheEntry", reason: str) -> None:
        """Cache-manager hook: ``entry`` left the cache for ``reason``."""
        if reason not in REMOVAL_REASONS:
            raise PersistenceError(f"unknown removal reason {reason!r}")
        self._frames.pop(entry.entry_id, None)
        if self.suspended:
            return
        record = EvictRecord(
            entry_id=entry.entry_id,
            reason=reason,
            data_version=self._admitted_under(),
            ts_ms=self._now_ms(),
        )
        self._append(encode_record(record), record.type)

    def cleared(self, removed: int) -> None:
        """Cache-manager hook: the whole cache was flushed."""
        self._frames.clear()
        if self.suspended:
            return
        record = ClearRecord(
            data_version=self._admitted_under(),
            removed=removed,
            ts_ms=self._now_ms(),
        )
        self._append(encode_record(record), record.type)

    # -------------------------------------------------------- snapshotting
    def checkpoint(self) -> int:
        """Write the kept admit frames as the snapshot, in ``entry_id``
        order, and truncate the journal; returns the entries written.

        Call only from the cache's mutation scope (the cadence call in
        ``_append`` runs inside the hooks) or from single-threaded code
        (recovery): the frames change in the hooks, and two unlocked
        checkpoints could interleave one's snapshot write with the
        other's journal reset.
        """
        if self._cache is None:
            raise PersistenceError(
                "persister is not bound to a cache; call bind() first"
            )
        frames = self._frames
        write_snapshot(self.snapshot_path, [frames[i] for i in sorted(frames)])
        ts_ms = self._now_ms()
        with self._lock:
            self.journal.reset()
            first = self.last_snapshot_ts_ms is None
            self.last_snapshot_ts_ms = self._written_ms = ts_ms
        obs = self._obs
        if obs is not None:
            if first:  # from now on the age gauge reads this persister
                obs.snapshot_age.computed(self._snapshot_age_when_written)
            # The flight-recorder mark, on the bundle's own clock.
            obs.telemetry_event(
                EV_SNAPSHOT_CHECKPOINT,
                entries=len(frames),
                data_version=self._admitted_under(),
            )
        return len(frames)

    def load_snapshot(self) -> tuple[AdmitRecord, ...] | None:
        """The snapshot currently on disk (may raise SnapshotFormatError)."""
        return load_snapshot(self.snapshot_path)

    # ------------------------------------------------------------- status
    def status(self) -> dict[str, Any]:
        """The ``GET /persistence`` payload."""
        return {
            "directory": str(self.directory),
            "snapshot_every": self.snapshot_every,
            "durable": self.durable,
            "shard_id": self.shard_id,
            "journal": {
                "path": str(self.journal.path),
                "size_bytes": self.journal.size_bytes,
                "records_since_snapshot": self.journal.records_appended,
            },
            "total_records": self.total_records,
            "snapshot": {
                "path": str(self.snapshot_path),
                "exists": self.snapshot_path.exists(),
                "ts_ms": self.last_snapshot_ts_ms,
                "age_seconds": self._snapshot_age_seconds(),
            },
            "last_recovery": self.last_recovery,
        }

    # ------------------------------------------------------------ private
    def _now_ms(self) -> float:
        return 0.0 if self._clock is None else self._clock.now_ms

    def _append(self, frame: bytes, record_type: str) -> None:
        with self._lock:
            self.journal.append(frame, durable=self.durable)
            self.total_records += 1
            self._written_ms = self._now_ms()
            if self._obs is not None:
                self._obs.journal_append(record_type)
            due = self.journal.records_appended >= self.snapshot_every
        # Checkpoint outside the journal lock, which it takes itself.
        # A race on the threshold at worst checkpoints twice, which is
        # harmless.
        if due:
            self.checkpoint()

    def _snapshot_age_seconds(self) -> float | None:
        if self.last_snapshot_ts_ms is None or self._clock is None:
            return None
        return max(0.0, self._clock.now_ms - self.last_snapshot_ts_ms) / 1e3

    def _snapshot_age_when_written(self) -> float:
        """The snapshot-age gauge: seconds from the last snapshot to
        the last write."""
        snapshot_ms = self.last_snapshot_ts_ms or 0.0
        return max(0.0, self._written_ms - snapshot_ms) / 1e3
