"""Crash-consistent cache persistence for the function proxy.

The proxy's semantic cache used to die with the process; this package
makes it restart warm:

* :mod:`repro.persistence.atomic` — temp-file + ``os.replace`` writes,
  the only sanctioned way to write whole artifacts (lint rule FP307);
* :mod:`repro.persistence.records` — the journal record types, their
  length-prefixed, CRC32-checksummed wire format (version 3: a result
  travels as its binary table, ``ResultTable.to_bytes``), and the one
  torn-tail-tolerant walk over a file's whole bytes;
* :mod:`repro.persistence.journal` — the append-only mutation journal;
* :mod:`repro.persistence.snapshot` — periodic full-cache snapshots in
  the journal's own framing, atomically replaced, after which the
  journal is truncated;
* :mod:`repro.persistence.persister` — the
  :class:`~repro.persistence.persister.CachePersister` mutation-log
  hook the cache manager reports to: it encodes each result once, at
  admit, keeps the frame for every later snapshot, and runs the
  snapshot cadence;
* :mod:`repro.persistence.image` — the one cache-image codec, disk
  walk, and fence → re-bind → ``cache.store`` replay loop that
  recovery, crash handoff, and drain all run;
* :mod:`repro.persistence.recovery` — warm-restart replay: snapshot +
  journal prefix, version fencing against the origin's current data
  version, and the structured
  :class:`~repro.persistence.recovery.RecoveryReport`.

Everything is deterministic: journal contents are a pure function of
the mutation stream, and crash damage comes from seeded plans
(:class:`~repro.faults.crash.CrashPlan`) applied to the files after
the proxy stops, so recovery experiments replay bit-identically.
"""

from repro.persistence.atomic import atomic_write_bytes, atomic_write_text
from repro.persistence.errors import PersistenceError, SnapshotFormatError
from repro.persistence.journal import Journal
from repro.persistence.persister import (
    JOURNAL_NAME,
    SNAPSHOT_NAME,
    CachePersister,
)
from repro.persistence.records import (
    AdmitRecord,
    ClearRecord,
    EvictRecord,
    HEADER_SIZE,
    JournalReadResult,
    JournalRecord,
    WIRE_FORMAT_VERSION,
    encode_record,
    region_from_dict,
    region_to_dict,
)
from repro.persistence.recovery import RecoveryReport, recover_cache
from repro.persistence.snapshot import load_snapshot, write_snapshot

__all__ = [
    "AdmitRecord",
    "CachePersister",
    "ClearRecord",
    "EvictRecord",
    "HEADER_SIZE",
    "JOURNAL_NAME",
    "Journal",
    "JournalReadResult",
    "JournalRecord",
    "PersistenceError",
    "RecoveryReport",
    "SNAPSHOT_NAME",
    "SnapshotFormatError",
    "WIRE_FORMAT_VERSION",
    "atomic_write_bytes",
    "atomic_write_text",
    "encode_record",
    "load_snapshot",
    "recover_cache",
    "region_from_dict",
    "region_to_dict",
    "write_snapshot",
]
