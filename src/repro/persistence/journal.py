"""The append-only cache-mutation journal.

The write side is deliberately boring: open the file in append mode,
write one framed record (:mod:`repro.persistence.records`, encoded by
the caller) with unbuffered ``os.write`` calls until every byte is
down, optionally fsync, and close.  Appends are the only
mutation between snapshots, so a crash can damage *at most the tail*
of the file — which is exactly the failure the read side is built to
absorb.

The read side streams the file in fixed-size chunks (a record ending
exactly on a chunk boundary is a tested edge case), decodes frames,
and stops cleanly at the first torn or corrupt one.  The result says
what was read, how far, and why it stopped; deciding what the records
*mean* is recovery's job (:mod:`repro.persistence.recovery`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.locking import guarded_by, named_lock, unshared
from repro.persistence.errors import PersistenceError
from repro.persistence.records import JournalRecord, iter_frames

#: Chunk size of the streaming reader.
READ_BUFFER_SIZE = 4096

_APPEND = os.O_WRONLY | os.O_APPEND | os.O_CREAT


@unshared(
    "records", "bytes_replayed", "bytes_total", "stop_reason", "stop_detail"
)
@dataclass
class JournalReadResult:
    """Everything one pass over a journal file learned.

    Built and filled by the single thread running a replay, then
    treated as read-only — hence the ``unshared`` registration.
    """

    records: list[JournalRecord] = field(default_factory=list)
    bytes_replayed: int = 0  # bytes of intact frames
    bytes_total: int = 0  # file size, damaged tail included
    stop_reason: str | None = None  # None (clean EOF) | "torn" | "corrupt"
    stop_detail: str = ""

    @property
    def clean(self) -> bool:
        return self.stop_reason is None


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
    def read(self) -> JournalReadResult:
        """Replay the file's intact record prefix.

        Never raises for file damage: a missing file is an empty
        journal, and a torn or corrupt tail terminates the walk with
        the reason recorded on the result.
        """
        result = JournalReadResult()
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            return result
        with handle:
            buffer = b""
            while True:
                chunk = handle.read(READ_BUFFER_SIZE)
                at_eof = not chunk
                buffer += chunk
                consumed = self._drain(buffer, at_eof, result)
                buffer = buffer[consumed:]
                if result.stop_reason is not None:
                    # Count the damaged tail toward the file total.
                    result.bytes_total = (
                        result.bytes_replayed
                        + len(buffer)
                        + sum(len(c) for c in iter(handle.read, b""))
                    )
                    return result
                if at_eof:
                    result.bytes_total = result.bytes_replayed + len(buffer)
                    if buffer:
                        # Clean EOF but trailing bytes: a frame that
                        # never finished writing.
                        result.stop_reason = "torn"
                        result.stop_detail = (
                            f"{len(buffer)} trailing bytes at end of file"
                        )
                    return result

    @staticmethod
    def _drain(
        buffer: bytes, at_eof: bool, result: JournalReadResult
    ) -> int:
        """Decode complete frames from ``buffer`` into ``result``.

        Returns the bytes consumed.  Incomplete tails are only
        classified as torn once ``at_eof`` says no more data is coming;
        until then they simply wait for the next chunk.
        """
        consumed = 0
        for outcome in iter_frames(buffer):
            if outcome.stop_reason == "torn" and not at_eof:
                break  # frame may complete with the next chunk
            if outcome.stop_reason is not None:
                result.stop_reason = outcome.stop_reason
                result.stop_detail = outcome.detail
                break
            assert outcome.record is not None
            result.records.append(outcome.record)
            consumed += outcome.consumed
            result.bytes_replayed += outcome.consumed
        return consumed
