"""Crash plans: validation and seeded tail damage."""

from random import Random

import pytest

from repro.faults.crash import CrashPlan, DAMAGE_KINDS
from repro.faults.errors import FaultPlanError


class TestPlanValidation:
    def test_defaults(self):
        plan = CrashPlan()
        assert plan.seed == 0
        assert plan.damage == "truncate"
        assert plan.tail_window_bytes == 64

    def test_unknown_damage_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="damage must be one of"):
            CrashPlan(damage="shred")

    def test_tail_window_must_be_positive(self):
        with pytest.raises(FaultPlanError, match="tail window"):
            CrashPlan(tail_window_bytes=0)

    def test_plan_is_frozen(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            CrashPlan().seed = 3


@pytest.fixture()
def journal_file(tmp_path):
    path = tmp_path / "journal.bin"
    path.write_bytes(bytes(range(256)))
    return path


class TestDamage:
    def test_none_leaves_the_file_alone(self, journal_file):
        before = journal_file.read_bytes()
        report = CrashPlan(damage="none").apply_damage(journal_file)
        assert report == {"damage": "none", "bytes": 0}
        assert journal_file.read_bytes() == before

    def test_missing_file_absorbs_damage(self, tmp_path):
        report = CrashPlan(damage="truncate").apply_damage(
            tmp_path / "absent.bin"
        )
        assert report == {"damage": "none", "bytes": 0}

    def test_empty_file_absorbs_damage(self, tmp_path):
        path = tmp_path / "journal.bin"
        path.write_bytes(b"")
        report = CrashPlan(damage="bitflip").apply_damage(path)
        assert report == {"damage": "none", "bytes": 0}
        assert path.read_bytes() == b""

    def test_truncate_cuts_within_the_tail_window(self, journal_file):
        before = journal_file.read_bytes()
        report = CrashPlan(
            seed=5, damage="truncate", tail_window_bytes=16
        ).apply_damage(journal_file)
        cut = report["bytes"]
        assert 1 <= cut <= 16
        assert journal_file.read_bytes() == before[:-cut]

    def test_truncate_never_cuts_past_the_file(self, tmp_path):
        path = tmp_path / "journal.bin"
        path.write_bytes(b"abc")
        report = CrashPlan(
            seed=1, damage="truncate", tail_window_bytes=64
        ).apply_damage(path)
        assert 1 <= report["bytes"] <= 3
        assert path.stat().st_size == 3 - report["bytes"]

    def test_bitflip_flips_exactly_one_bit_in_the_tail(self, journal_file):
        before = journal_file.read_bytes()
        report = CrashPlan(
            seed=9, damage="bitflip", tail_window_bytes=16
        ).apply_damage(journal_file)
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
            outcomes.append((plan.apply_damage(path), path.read_bytes()))
        assert outcomes[0] == outcomes[1]

    def test_each_call_draws_from_a_fresh_seeded_stream(self, tmp_path):
        plan = CrashPlan(seed=13, damage="bitflip", tail_window_bytes=48)
        path = tmp_path / "journal.bin"
        path.write_bytes(bytes(256))
        first = plan.apply_damage(path)
        assert plan.apply_damage(path) == first  # flipped back
        assert path.read_bytes() == bytes(256)

    def test_a_passed_stream_carries_on_across_calls(self, tmp_path):
        plan = CrashPlan(seed=13, damage="truncate", tail_window_bytes=48)
        path = tmp_path / "journal.bin"
        path.write_bytes(bytes(768))
        rng = Random(13)
        cuts = [plan.apply_damage(path, rng)["bytes"] for _ in range(3)]
        fresh = Random(13)
        assert cuts == [fresh.randint(1, 48) for _ in range(3)]
        assert path.stat().st_size == 768 - sum(cuts)
