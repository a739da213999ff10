"""The cache persister: mutation hooks, snapshot cadence, crash damage."""

import pytest

from repro.faults.crash import CrashPlan
from repro.persistence import (
    AdmitRecord,
    CachePersister,
    ClearRecord,
    EvictRecord,
)
from repro.persistence.errors import PersistenceError


def journal_types(rig):
    return [r.type for r in rig.persister.journal.read().records]


class TestMutationHooks:
    def test_admission_journals_an_admit_record(self, make_rig, bind_radial):
        rig = make_rig()
        entry, _ = rig.admit(bind_radial())
        records = rig.persister.journal.read().records
        assert len(records) == 1
        record = records[0]
        assert isinstance(record, AdmitRecord)
        assert record.entry_id == entry.entry_id
        assert record.template_id == entry.template_id
        assert record.data_version == 1
        assert record.params == dict(bind_radial().params)

    def test_replace_journals_evict_then_admit(self, make_rig, bind_radial):
        rig = make_rig()
        rig.admit(bind_radial())
        rig.admit(bind_radial())  # identical query replaces the entry
        records = rig.persister.journal.read().records
        assert [r.type for r in records] == ["admit", "evict", "admit"]
        assert records[1].reason == "replace"

    def test_consolidation_journals_evict(self, make_rig, bind_radial):
        rig = make_rig()
        entry, _ = rig.admit(bind_radial(radius=4.0))
        rig.cache.remove(entry)
        records = rig.persister.journal.read().records
        assert records[-1] == EvictRecord(
            entry_id=entry.entry_id,
            reason="consolidate",
            data_version=1,
            ts_ms=records[-1].ts_ms,
        )

    def test_budget_eviction_journals_evict(self, make_rig, bind_radial):
        rig = make_rig(max_bytes=None)
        first, _ = rig.admit(bind_radial(radius=4.0))
        # Shrink the budget so the next admission must evict.
        rig.cache.max_bytes = first.byte_size + 10
        rig.admit(bind_radial(ra=166.5, radius=4.0))
        evicts = [
            r
            for r in rig.persister.journal.read().records
            if isinstance(r, EvictRecord)
        ]
        assert [r.reason for r in evicts] == ["evict"]
        assert evicts[0].entry_id == first.entry_id

    def test_clear_journals_one_clear_record(self, make_rig, bind_radial):
        rig = make_rig()
        rig.admit(bind_radial())
        rig.admit(bind_radial(ra=166.0))
        removed = rig.cache.clear()
        records = rig.persister.journal.read().records
        assert [r.type for r in records] == ["admit", "admit", "clear"]
        assert records[-1] == ClearRecord(
            data_version=1, removed=removed, ts_ms=records[-1].ts_ms
        )

    def test_suspended_hooks_journal_nothing(self, make_rig, bind_radial):
        rig = make_rig()
        rig.persister.suspended = True
        rig.admit(bind_radial())
        rig.cache.clear()
        assert rig.persister.journal.read().records == []

    def test_unknown_removal_reason_rejected(self, make_rig, bind_radial):
        rig = make_rig()
        entry, _ = rig.admit(bind_radial())
        with pytest.raises(PersistenceError, match="unknown removal"):
            rig.persister.removed(entry, "rebalance")

    def test_timestamps_come_from_the_simulated_clock(
        self, make_rig, bind_radial
    ):
        rig = make_rig()
        rig.clock.advance(1234.0)
        rig.admit(bind_radial())
        record = rig.persister.journal.read().records[0]
        assert record.ts_ms == 1234.0


class TestSnapshotCadence:
    def test_checkpoint_fires_every_snapshot_every_records(
        self, make_rig, bind_radial
    ):
        rig = make_rig(snapshot_every=2)
        rig.admit(bind_radial())
        assert not rig.persister.snapshot_path.exists()
        rig.admit(bind_radial(ra=166.0))
        # Cadence hit: snapshot written, journal truncated.
        assert rig.persister.snapshot_path.exists()
        assert rig.persister.journal.size_bytes == 0
        assert len(rig.persister.load_snapshot()) == 2
        assert rig.persister.total_records == 2  # lifetime, not reset

    def test_manual_checkpoint_captures_live_entries(
        self, make_rig, bind_radial
    ):
        rig = make_rig()
        entry, _ = rig.admit(bind_radial())
        rig.admit(bind_radial(ra=166.0))
        assert rig.persister.checkpoint() == 2
        snapshot = rig.persister.load_snapshot()
        assert [e.entry_id for e in snapshot] == sorted(
            e.entry_id for e in rig.cache.entries()
        )
        assert {e.data_version for e in snapshot} == {1}
        assert rig.persister.journal.read().records == []
        assert entry.entry_id in {e.entry_id for e in snapshot}

    def test_every_snapshot_frame_carries_its_entrys_admission_version(
        self, make_rig, bind_radial
    ):
        rig = make_rig()
        first, _ = rig.admit(bind_radial())
        rig.data_version = 2
        second, _ = rig.admit(bind_radial(ra=166.0))
        appended = rig.persister.journal.path.read_bytes()
        rig.data_version = 3  # a checkpoint stamps no version of its own
        rig.persister.checkpoint()
        snapshot = rig.persister.load_snapshot()
        assert [(e.entry_id, e.data_version) for e in snapshot] == [
            (first.entry_id, 1),
            (second.entry_id, 2),
        ]
        # The snapshot is the admit frames the journal appends wrote.
        assert rig.persister.snapshot_path.read_bytes() == appended

    def test_checkpoint_requires_bind(self, tmp_path):
        persister = CachePersister(tmp_path)
        with pytest.raises(PersistenceError, match="not bound"):
            persister.checkpoint()

    def test_snapshot_every_must_be_positive(self, tmp_path):
        with pytest.raises(PersistenceError, match="snapshot_every"):
            CachePersister(tmp_path, snapshot_every=0)


class TestStatus:
    def test_status_reports_journal_and_snapshot(
        self, make_rig, bind_radial
    ):
        rig = make_rig()
        rig.admit(bind_radial())
        status = rig.persister.status()
        assert status["journal"]["records_since_snapshot"] == 1
        assert status["journal"]["size_bytes"] > 0
        assert status["total_records"] == 1
        assert status["snapshot"]["exists"] is False
        rig.persister.checkpoint()
        status = rig.persister.status()
        assert status["snapshot"]["exists"] is True
        assert status["journal"]["size_bytes"] == 0


class TestCrashInjection:
    """A crash is a state of the disk: mutate, stop, damage the files."""

    def test_torn_tail_after_a_stop_loses_only_the_last_append(
        self, make_rig, bind_radial
    ):
        rig = make_rig()
        rig.admit(bind_radial())
        intact_size = rig.persister.journal.size_bytes
        rig.admit(bind_radial(ra=166.0))
        report = CrashPlan(seed=3, damage="truncate").apply_damage(
            rig.persister.journal.path
        )
        assert report["damage"] == "truncate"
        assert rig.persister.journal.size_bytes > intact_size
        read = rig.persister.journal.read()
        assert read.stop_reason == "torn"
        assert len(read.records) == 1

    def test_clean_kill_leaves_journal_intact(self, make_rig, bind_radial):
        rig = make_rig()
        rig.admit(bind_radial())
        CrashPlan(damage="none").apply_damage(rig.persister.journal.path)
        read = rig.persister.journal.read()
        assert read.clean
        assert len(read.records) == 1
