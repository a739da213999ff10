"""Crash plans: validation, wire form, and seeded tail damage."""

import pytest

from repro.faults.crash import CrashPlan, CrashSession, DAMAGE_KINDS
from repro.faults.errors import FaultPlanError


class TestPlanValidation:
    def test_defaults(self):
        plan = CrashPlan()
        assert plan.seed == 0
        assert plan.crash_after_records == ()
        assert plan.damage == "truncate"
        assert plan.tail_window_bytes == 64

    def test_unknown_damage_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="damage must be one of"):
            CrashPlan(damage="shred")

    def test_tail_window_must_be_positive(self):
        with pytest.raises(FaultPlanError, match="tail window"):
            CrashPlan(tail_window_bytes=0)

    def test_crash_points_before_first_record_rejected(self):
        with pytest.raises(FaultPlanError, match="before the first record"):
            CrashPlan(crash_after_records=(0,))

    def test_duplicate_crash_points_rejected(self):
        with pytest.raises(FaultPlanError, match="duplicate"):
            CrashPlan(crash_after_records=(3, 3))

    def test_crash_points_are_sorted(self):
        plan = CrashPlan(crash_after_records=(9, 2, 5))
        assert plan.crash_after_records == (2, 5, 9)


class TestWireForm:
    def test_round_trip(self):
        plan = CrashPlan(
            seed=7,
            crash_after_records=(2, 8),
            damage="bitflip",
            tail_window_bytes=32,
        )
        rebuilt = CrashPlan.from_dict(plan.to_dict())
        assert rebuilt.to_dict() == plan.to_dict()

    def test_empty_payload_gives_defaults(self):
        assert CrashPlan.from_dict({}).to_dict() == CrashPlan().to_dict()

    def test_unknown_fields_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown crash plan"):
            CrashPlan.from_dict({"seed": 1, "kaboom": True})

    def test_non_mapping_rejected(self):
        with pytest.raises(FaultPlanError, match="JSON object"):
            CrashPlan.from_dict([1, 2])

    def test_malformed_values_rejected(self):
        with pytest.raises(FaultPlanError, match="malformed crash plan"):
            CrashPlan.from_dict({"crash_after_records": ["soon"]})


class TestSession:
    def test_should_crash_pops_points_in_order(self):
        session = CrashPlan(crash_after_records=(2, 4)).session()
        assert session.pending_crash_points() == (2, 4)
        assert not session.should_crash(1)
        assert session.should_crash(2)
        assert session.pending_crash_points() == (4,)
        assert not session.should_crash(3)
        assert session.should_crash(4)
        assert not session.should_crash(5)
        assert session.crashes_fired == 2

    def test_overshoot_still_fires(self):
        # If appends raced past the scheduled point, the next check fires.
        session = CrashPlan(crash_after_records=(2,)).session()
        assert session.should_crash(10)

    def test_sessions_are_independent(self):
        plan = CrashPlan(crash_after_records=(1,))
        first, second = plan.session(), plan.session()
        assert first.should_crash(1)
        assert second.should_crash(1)  # fresh queue per session


@pytest.fixture()
def journal_file(tmp_path):
    path = tmp_path / "journal.bin"
    path.write_bytes(bytes(range(256)))
    return path


class TestDamage:
    def test_none_leaves_the_file_alone(self, journal_file):
        before = journal_file.read_bytes()
        report = CrashPlan(damage="none").session().apply_damage(
            journal_file
        )
        assert report == {"damage": "none", "bytes": 0}
        assert journal_file.read_bytes() == before

    def test_missing_file_absorbs_damage(self, tmp_path):
        report = CrashPlan(damage="truncate").session().apply_damage(
            tmp_path / "absent.bin"
        )
        assert report == {"damage": "none", "bytes": 0}

    def test_empty_file_absorbs_damage(self, tmp_path):
        path = tmp_path / "journal.bin"
        path.write_bytes(b"")
        report = CrashPlan(damage="bitflip").session().apply_damage(path)
        assert report == {"damage": "none", "bytes": 0}
        assert path.read_bytes() == b""

    def test_truncate_cuts_within_the_tail_window(self, journal_file):
        before = journal_file.read_bytes()
        report = (
            CrashPlan(seed=5, damage="truncate", tail_window_bytes=16)
            .session()
            .apply_damage(journal_file)
        )
        cut = report["bytes"]
        assert 1 <= cut <= 16
        assert journal_file.read_bytes() == before[:-cut]

    def test_truncate_never_cuts_past_the_file(self, tmp_path):
        path = tmp_path / "journal.bin"
        path.write_bytes(b"abc")
        report = (
            CrashPlan(seed=1, damage="truncate", tail_window_bytes=64)
            .session()
            .apply_damage(path)
        )
        assert 1 <= report["bytes"] <= 3
        assert path.stat().st_size == 3 - report["bytes"]

    def test_bitflip_flips_exactly_one_bit_in_the_tail(self, journal_file):
        before = journal_file.read_bytes()
        report = (
            CrashPlan(seed=9, damage="bitflip", tail_window_bytes=16)
            .session()
            .apply_damage(journal_file)
        )
        after = journal_file.read_bytes()
        assert len(after) == len(before)
        diffs = [
            i for i, (a, b) in enumerate(zip(before, after)) if a != b
        ]
        assert diffs == [report["offset"]]
        assert report["offset"] >= len(before) - 16
        changed = before[diffs[0]] ^ after[diffs[0]]
        assert changed == 1 << report["bit"]

    @pytest.mark.parametrize("damage", DAMAGE_KINDS)
    def test_damage_is_seed_deterministic(self, tmp_path, damage):
        payload = bytes(range(200))
        outcomes = []
        for run in ("a", "b"):
            path = tmp_path / f"journal-{run}.bin"
            path.write_bytes(payload)
            plan = CrashPlan(seed=42, damage=damage, tail_window_bytes=32)
            outcomes.append(
                (plan.session().apply_damage(path), path.read_bytes())
            )
        assert outcomes[0] == outcomes[1]


class TestMalformedWireForm:
    """Counterexamples that used to be misread instead of refused."""

    def test_string_crash_points_refused(self):
        # Iterating "12" used to give crash points [1, 2].
        with pytest.raises(FaultPlanError, match="must be an array"):
            CrashPlan.from_dict({"crash_after_records": "12"})

    def test_fractional_crash_points_refused(self):
        # int() used to floor [1.9, 2.2] to [1, 2].
        with pytest.raises(FaultPlanError, match="not a whole record"):
            CrashPlan.from_dict({"crash_after_records": [1.9, 2.2]})
        with pytest.raises(FaultPlanError, match="not a whole record"):
            CrashPlan(crash_after_records=(1.5,))

    def test_integral_floats_are_record_counts(self):
        plan = CrashPlan.from_dict({"crash_after_records": [3.0, 1]})
        assert plan.to_dict()["crash_after_records"] == [1, 3]

    def test_plan_is_frozen(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            CrashPlan().seed = 3
