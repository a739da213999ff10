"""The append-only cache-mutation journal.

The write side is deliberately boring: open the file in append mode,
write one framed record (:mod:`repro.persistence.records`, encoded by
the caller) with unbuffered ``os.write`` calls until every byte is
down, optionally fsync, and close.  Appends are the only
mutation between snapshots, so a crash can damage *at most the tail*
of the file — which is exactly the failure the read side is built to
absorb.

The read side reads the whole file and walks its frames
(:func:`~repro.persistence.records.walk_frames`, the walk the snapshot
shares), stopping cleanly at the first torn or corrupt one.  The result
says what was read, how far, and why it stopped; deciding what the
records *mean* is recovery's job (:mod:`repro.persistence.recovery`).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.locking import guarded_by, named_lock
from repro.persistence.errors import PersistenceError
from repro.persistence.records import JournalReadResult, walk_frames

_APPEND = os.O_WRONLY | os.O_APPEND | os.O_CREAT


@guarded_by("persistence.journal.file", "records_appended")
class Journal:
    """One append-only journal file of framed cache mutations.

    ``append`` and ``reset`` serialize on the innermost persistence
    lock, ``persistence.journal.file`` — frames from two threads must
    never interleave inside the file, and the counter must match the
    frames actually written.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise PersistenceError(
                f"cannot create journal directory {self.path.parent}: {exc}"
            ) from exc
        self._lock = named_lock("persistence.journal.file")
        self.records_appended = 0

    # ----------------------------------------------------------- writing
    def append(self, frame: bytes, durable: bool = False) -> int:
        """Append one encoded record frame; returns its size in bytes."""
        with self._lock:
            fd = os.open(self.path, _APPEND, 0o666)
            try:
                view = memoryview(frame)
                while view:  # a short write leaves the rest to write
                    view = view[os.write(fd, view):]
                if durable:
                    os.fsync(fd)
            finally:
                os.close(fd)
            self.records_appended += 1
        return len(frame)

    def reset(self) -> None:
        """Truncate the journal (after a successful snapshot)."""
        with self._lock:
            with open(self.path, "wb"):
                pass
            self.records_appended = 0

    @property
    def size_bytes(self) -> int:
        try:
            return self.path.stat().st_size
        except FileNotFoundError:
            return 0

    # ----------------------------------------------------------- reading
    def read_bytes(self) -> bytes:
        """The whole file; a missing file is an empty journal."""
        try:
            return self.path.read_bytes()
        except FileNotFoundError:
            return b""

    def read(self) -> JournalReadResult:
        """Replay the file's intact record prefix.

        Never raises for file damage: a missing file is an empty
        journal, and a torn or corrupt tail terminates the walk with
        the reason recorded on the result.
        """
        return walk_frames(self.read_bytes())
