"""Warm-restart recovery: replay, fencing, and damaged tails.

Every test drives two (or three) rigs over one persistence directory:
the first rig is the process that journaled, each later rig is a
restart recovering from the first one's files.
"""

import dataclasses

import pytest

from repro.core.replacement import ALL_POLICIES
from repro.persistence import encode_record, recover_cache
from repro.persistence.records import AdmitRecord, EvictRecord
from repro.relational.result import ResultTable
from repro.relational.schema import Schema
from repro.relational.types import ColumnType

ID = Schema.of(("objID", ColumnType.INT))
PAIRS = ResultTable(
    Schema.of(("objID", ColumnType.INT), ("ra", ColumnType.FLOAT)),
    [(1, 164.0), (2, 165.0)],
)
NAMES = ResultTable(Schema.of(("name", ColumnType.STR)), [("a",)])


def cache_keys(cache):
    return {entry.cache_key for entry in cache.entries()}


class TestWarmRestart:
    def test_restores_journaled_entries(self, make_rig, bind_radial):
        rig = make_rig()
        rig.admit(bind_radial())
        rig.admit(bind_radial(ra=166.0))
        restarted = make_rig(recovered=True)
        report = restarted.recovery_report
        assert report.clean
        assert report.entries_restored == 2
        assert report.records_replayed == 2
        assert report.record_counts == {"admit": 2}
        assert cache_keys(restarted.cache) == cache_keys(rig.cache)
        # Regions came back through the codec, not approximately.
        assert {e.region for e in restarted.cache.entries()} == {
            e.region for e in rig.cache.entries()
        }

    def test_restored_results_are_byte_identical(
        self, make_rig, bind_radial
    ):
        rig = make_rig()
        entry, _ = rig.admit(bind_radial())
        restarted = make_rig(recovered=True)
        (restored,) = restarted.cache.entries()
        assert restored.result.to_xml() == entry.result.to_xml()
        assert restored.row_count == entry.row_count
        assert restored.byte_size == entry.byte_size

    def test_report_lands_on_the_persister(self, make_rig, bind_radial):
        rig = make_rig()
        rig.admit(bind_radial())
        restarted = make_rig(recovered=True)
        stored = restarted.persister.last_recovery
        assert stored == restarted.recovery_report.to_dict()
        assert stored["entries_restored"] == 1

    def test_recovery_checkpoints_the_restored_state(
        self, make_rig, bind_radial
    ):
        rig = make_rig()
        rig.admit(bind_radial())
        restarted = make_rig(recovered=True)
        # The restore became the new snapshot; the journal is empty.
        assert restarted.persister.journal.size_bytes == 0
        snapshot = restarted.persister.load_snapshot()
        assert len(snapshot) == 1

    def test_empty_state_recovers_to_empty_cache(self, make_rig):
        restarted = make_rig(recovered=True)
        report = restarted.recovery_report
        assert report.clean
        assert not report.snapshot_loaded
        assert report.entries_restored == 0
        assert list(restarted.cache.entries()) == []


class TestReplaySemantics:
    def test_snapshot_only_recovery(self, make_rig, bind_radial):
        rig = make_rig()
        rig.admit(bind_radial())
        rig.admit(bind_radial(ra=166.0))
        rig.persister.checkpoint()
        restarted = make_rig(recovered=True)
        report = restarted.recovery_report
        assert report.snapshot_loaded
        assert report.snapshot_entries == 2
        assert report.records_replayed == 0
        assert report.entries_restored == 2

    def test_snapshot_plus_journal_tail(self, make_rig, bind_radial):
        rig = make_rig()
        rig.admit(bind_radial())
        rig.persister.checkpoint()
        rig.admit(bind_radial(ra=166.0))
        restarted = make_rig(recovered=True)
        report = restarted.recovery_report
        assert report.snapshot_entries == 1
        assert report.records_replayed == 1
        assert report.entries_restored == 2

    def test_duplicate_admit_after_evict_restores_one(
        self, make_rig, bind_radial
    ):
        rig = make_rig()
        rig.admit(bind_radial())
        rig.admit(bind_radial())  # replace: evict + fresh admit
        restarted = make_rig(recovered=True)
        report = restarted.recovery_report
        assert report.record_counts == {"admit": 2, "evict": 1}
        assert report.entries_restored == 1
        assert len(list(restarted.cache.entries())) == 1

    def test_clear_record_empties_the_image(self, make_rig, bind_radial):
        rig = make_rig()
        rig.admit(bind_radial())
        rig.admit(bind_radial(ra=166.0))
        rig.cache.clear()
        restarted = make_rig(recovered=True)
        report = restarted.recovery_report
        assert report.record_counts == {"admit": 2, "clear": 1}
        assert report.entries_restored == 0
        assert list(restarted.cache.entries()) == []


class TestVersionFencing:
    def test_stale_versions_are_fenced_out(self, make_rig, bind_radial):
        rig = make_rig()
        rig.admit(bind_radial())
        rig.admit(bind_radial(ra=166.0))
        restarted = make_rig()
        restarted.data_version = 2  # the origin moved on while we were down
        report = recover_cache(
            restarted.persister, restarted.cache, restarted.templates
        )
        assert report.entries_stale == 2
        assert report.entries_restored == 0
        assert list(restarted.cache.entries()) == []

    def test_mixed_versions_keep_only_current(self, make_rig, bind_radial):
        rig = make_rig()
        rig.admit(bind_radial())
        rig.data_version = 2  # bump mid-run: later admits carry v2
        rig.admit(bind_radial(ra=166.0))
        restarted = make_rig()
        restarted.data_version = 2
        report = recover_cache(
            restarted.persister, restarted.cache, restarted.templates
        )
        assert report.entries_stale == 1
        assert report.entries_restored == 1

    def test_versionless_origin_restores_everything(
        self, make_rig, bind_radial
    ):
        rig = make_rig()
        rig.admit(bind_radial())
        restarted = make_rig()
        restarted.data_version = None  # immutable origin: nothing to fence
        report = recover_cache(
            restarted.persister, restarted.cache, restarted.templates
        )
        assert report.entries_stale == 0
        assert report.entries_restored == 1


class TestDamagedState:
    def test_torn_tail_restores_the_prefix(self, make_rig, bind_radial):
        rig = make_rig()
        rig.admit(bind_radial())
        rig.admit(bind_radial(ra=166.0))
        rig.admit(bind_radial(ra=162.0))
        path = rig.persister.journal.path
        path.write_bytes(path.read_bytes()[:-7])
        restarted = make_rig(recovered=True)
        report = restarted.recovery_report
        assert report.stop_reason == "torn"
        assert not report.clean
        assert report.entries_restored == 2
        assert report.bytes_replayed < report.bytes_total

    def test_second_restart_after_tear_is_clean(
        self, make_rig, bind_radial
    ):
        rig = make_rig()
        rig.admit(bind_radial())
        rig.admit(bind_radial(ra=166.0))
        path = rig.persister.journal.path
        path.write_bytes(path.read_bytes()[:-7])
        first_restart = make_rig(recovered=True)
        assert first_restart.recovery_report.stop_reason == "torn"
        # recover_cache re-checkpointed: the tear is repaired on disk.
        second_restart = make_rig(recovered=True)
        report = second_restart.recovery_report
        assert report.clean
        assert report.snapshot_loaded
        assert report.entries_restored == 1

    def test_garbage_snapshot_is_diagnosed_not_fatal(
        self, make_rig, bind_radial
    ):
        rig = make_rig()
        rig.admit(bind_radial())
        rig.persister.snapshot_path.write_text("not json {")
        restarted = make_rig(recovered=True)
        report = restarted.recovery_report
        assert not report.snapshot_loaded
        assert report.snapshot_error != ""
        # The journal alone still restores the entry.
        assert report.entries_restored == 1


    @pytest.mark.parametrize(
        "damage, reason",
        [
            (lambda data: data[:-5], "torn"),
            (lambda data: data[:-1] + bytes([data[-1] ^ 0x01]), "corrupt"),
            (
                lambda data: data + encode_record(
                    EvictRecord(1, "evict", 1, 0.0)
                ),
                "'evict' record",
            ),
        ],
        ids=["torn", "bitflip", "not-an-admit"],
    )
    def test_damaged_snapshot_is_diagnosed_and_treated_as_absent(
        self, make_rig, bind_radial, damage, reason
    ):
        rig = make_rig()
        rig.admit(bind_radial())
        rig.admit(bind_radial(ra=166.0))
        rig.persister.checkpoint()
        path = rig.persister.snapshot_path
        path.write_bytes(damage(path.read_bytes()))
        rig.admit(bind_radial(ra=162.0))  # the journal tail still counts
        restarted = make_rig(recovered=True)
        report = restarted.recovery_report
        assert not report.snapshot_loaded
        assert reason in report.snapshot_error
        assert report.entries_restored == 1


class TestMaterializeFailures:
    def test_oversized_entry_is_rejected(self, make_rig, bind_radial):
        rig = make_rig()
        rig.admit(bind_radial())
        restarted = make_rig(max_bytes=10, recovered=True)
        report = restarted.recovery_report
        assert report.entries_rejected == 1
        assert report.entries_restored == 0
        assert list(restarted.cache.entries()) == []

    def test_unknown_template_is_an_error_not_a_crash(
        self, make_rig, bind_radial
    ):
        rig = make_rig()
        rig.admit(bind_radial())
        record = rig.persister.journal.read().records[0]
        assert isinstance(record, AdmitRecord)
        rig.persister.journal.append(
            encode_record(
                dataclasses.replace(
                    record, entry_id=999, template_id="retired_template"
                )
            )
        )
        restarted = make_rig(recovered=True)
        report = restarted.recovery_report
        assert report.entries_error == 1
        assert report.entries_restored == 1
        assert any("retired_template" in e for e in report.errors)

    @pytest.mark.parametrize(
        "result",
        [
            # A STR cell that is not UTF-8.
            NAMES.to_bytes()[:-1] + b"\xff",
            # A one-column header over two-cell rows: trailing bytes.
            ID.row_codec.header
            + PAIRS.to_bytes()[len(PAIRS.schema.row_codec.header):],
            # An unknown column type code (the byte after the count).
            PAIRS.to_bytes()[:6] + b"\x09" + PAIRS.to_bytes()[7:],
            b"",
            b"<ResultTable />",
            # The table blob cut short by one byte.
            PAIRS.to_bytes()[:-1],
        ],
        ids=[
            "cell-type", "row-arity", "column-type", "no-columns", "xml",
            "truncated",
        ],
    )
    def test_malformed_result_is_an_error_not_a_crash(
        self, make_rig, bind_radial, result
    ):
        rig = make_rig()
        rig.admit(bind_radial())
        record = rig.persister.journal.read().records[0]
        rig.persister.journal.append(
            encode_record(
                dataclasses.replace(
                    record, entry_id=999, params=dict(record.params, ra=166.0),
                    result=result,
                )
            )
        )
        restarted = make_rig(recovered=True)
        report = restarted.recovery_report
        assert report.clean
        assert report.entries_error == 1
        assert report.entries_restored == 1
        assert report.errors[0].startswith("entry 999 ")

    @pytest.mark.parametrize(
        "policy_cls", ALL_POLICIES, ids=lambda c: c.name
    )
    def test_budgeted_recovery_evicts_with_rationale(
        self, make_rig, bind_radial, policy_cls
    ):
        """A byte-budgeted restart evicts during restore exactly as it
        would during traffic — and the report names each victim with
        the policy's rationale (the explain layer's contract)."""
        rig = make_rig()
        sizes = []
        for ra in (164.0, 166.0, 162.0):
            entry, _ = rig.admit(bind_radial(ra=ra))
            sizes.append(entry.byte_size)
        # Every entry fits alone, but not all three together.
        budget = sum(sizes) - min(sizes)
        restarted = make_rig(
            max_bytes=budget, policy=policy_cls(), recovered=True
        )
        report = restarted.recovery_report
        assert report.entries_evicted >= 1
        assert report.entries_rejected == 0
        assert report.entries_restored == 3
        # Live entries = every restore minus the evictions made for room.
        assert (
            len(list(restarted.cache.entries()))
            == 3 - report.entries_evicted
        )
        for eviction in report.evictions:
            assert eviction["policy"] == policy_cls.name
            assert eviction["rationale"]
