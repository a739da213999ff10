"""Shard-level fault plans: validation and draw alignment."""

from __future__ import annotations

import pytest

from repro.faults.errors import FaultPlanError
from repro.faults.plan import Fate
from repro.faults.shard import (
    SHARD_FAULT_KINDS,
    ShardCrashPlan,
    ShardFaultWindow,
)


class TestWindowValidation:
    def test_known_kinds_accepted(self):
        for kind in SHARD_FAULT_KINDS:
            window = ShardFaultWindow("shard-0", kind, 100.0, 200.0)
            assert window.kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown shard fault"):
            ShardFaultWindow("shard-0", "meltdown", 0.0)

    def test_empty_shard_id_rejected(self):
        with pytest.raises(FaultPlanError, match="needs a shard id"):
            ShardFaultWindow("", "crash", 0.0)

    def test_negative_start_rejected(self):
        with pytest.raises(FaultPlanError, match="before t=0"):
            ShardFaultWindow("shard-0", "crash", -1.0)

    def test_inverted_window_rejected(self):
        with pytest.raises(FaultPlanError, match="empty or inverted"):
            ShardFaultWindow("shard-0", "hang", 200.0, 100.0)

    def test_slow_needs_factor_at_least_one(self):
        with pytest.raises(FaultPlanError, match="factor must be >= 1"):
            ShardFaultWindow("shard-0", "slow", 0.0, factor=0.5)

    def test_open_ended_window_active_forever(self):
        window = ShardFaultWindow("shard-0", "crash", 1_000.0)
        assert not window.active(999.0)
        assert window.active(1_000.0)
        assert window.active(1e12)

    def test_nan_window_bound_refused(self):
        with pytest.raises(FaultPlanError, match="NaN"):
            ShardFaultWindow("shard-0", "hang", 0.0, float("nan"))

    def test_closed_window_half_open(self):
        window = ShardFaultWindow("shard-0", "hang", 100.0, 200.0)
        assert window.active(100.0)
        assert window.active(199.9)
        assert not window.active(200.0)


class TestPlanValidation:
    def test_error_rate_bounds(self):
        with pytest.raises(FaultPlanError, match="error_rate"):
            ShardCrashPlan(error_rate=1.5)


class TestSessionDeterminism:
    def test_one_draw_per_attempt_keeps_variants_aligned(self):
        """Adding a crash window must not perturb the error-draw
        stream: both sessions see identical transient fates on the
        un-crashed shard."""
        base = ShardCrashPlan(seed=99, error_rate=0.3)
        with_crash = ShardCrashPlan(
            seed=99,
            error_rate=0.3,
            faults=(ShardFaultWindow("shard-0", "crash", 0.0),),
        )
        session_a = base.session()
        session_b = with_crash.session()
        fates_a = []
        fates_b = []
        for step in range(200):
            # Alternate shards; shard-0 is crashed only in plan B.
            shard = f"shard-{step % 2}"
            fates_a.append(session_a.attempt(shard, 1.0 * step)[0])
            fates_b.append(session_b.attempt(shard, 1.0 * step)[0])
        # Odd steps hit shard-1 in both: identical fate streams.
        assert fates_a[1::2] == fates_b[1::2]
        # Even steps differ only in kind (crash wins), never in draws.
        assert all(k is Fate.CRASH for k in fates_b[0::2])

    def test_same_seed_same_stream(self):
        plan = ShardCrashPlan(seed=7, error_rate=0.5)
        first = [
            plan.session().attempt("s", 0.0)[0] for _ in range(1)
        ]
        second = [
            plan.session().attempt("s", 0.0)[0] for _ in range(1)
        ]
        assert first == second

    def test_slowdown_factor_multiplies_active_windows(self):
        plan = ShardCrashPlan(
            faults=(
                ShardFaultWindow("s", "slow", 0.0, 100.0, 2.0),
                ShardFaultWindow("s", "slow", 50.0, 150.0, 3.0),
            )
        )
        session = plan.session()
        assert session.slowdown("s", 25.0) == pytest.approx(2.0)
        assert session.slowdown("s", 75.0) == pytest.approx(6.0)
        assert session.slowdown("s", 125.0) == pytest.approx(3.0)
        assert session.slowdown("other", 75.0) == pytest.approx(1.0)

    def test_down_and_crashed_vocabulary(self):
        plan = ShardCrashPlan(
            faults=(
                ShardFaultWindow("dead", "crash", 10.0),
                ShardFaultWindow("stuck", "hang", 10.0, 20.0),
            )
        )
        session = plan.session()
        assert not session.down("dead", 5.0)
        assert session.down("dead", 10.0)
        assert session.attempt("dead", 10.0)[0] is Fate.CRASH
        assert session.down("stuck", 15.0)
        assert session.attempt("stuck", 15.0)[0] is Fate.HANG
        assert not session.down("stuck", 20.0)


class TestNewlyDown:
    def test_reports_each_window_once_in_start_order(self):
        plan = ShardCrashPlan(
            faults=(
                ShardFaultWindow("b", "hang", 200.0),
                ShardFaultWindow("a", "crash", 100.0),
            )
        )
        session = plan.session()
        assert session.newly_down(50.0) == []
        first = session.newly_down(250.0)
        assert first == [("a", "crash", 100.0), ("b", "hang", 200.0)]
        # Already-reported transitions never repeat.
        assert session.newly_down(300.0) == []

    def test_incremental_reporting(self):
        plan = ShardCrashPlan(
            faults=(
                ShardFaultWindow("a", "crash", 100.0),
                ShardFaultWindow("b", "crash", 200.0),
            )
        )
        session = plan.session()
        assert session.newly_down(150.0) == [("a", "crash", 100.0)]
        assert session.newly_down(250.0) == [("b", "crash", 200.0)]

