"""Fault plans: validation, wire form, and decision determinism."""

import json

import pytest

from repro.faults.errors import FaultPlanError
from repro.faults.plan import (
    ORIGIN,
    Fate,
    FaultPlan,
    OutageWindow,
    SlowdownWindow,
)


class TestWindows:
    def test_outage_half_open_interval(self):
        window = OutageWindow(100.0, 200.0)
        assert not window.active(99.9)
        assert window.active(100.0)
        assert window.active(199.9)
        assert not window.active(200.0)

    def test_empty_window_rejected(self):
        with pytest.raises(FaultPlanError):
            OutageWindow(100.0, 100.0)

    def test_inverted_window_rejected(self):
        with pytest.raises(FaultPlanError):
            SlowdownWindow(200.0, 100.0, factor=2.0)

    def test_negative_start_rejected(self):
        with pytest.raises(FaultPlanError):
            OutageWindow(-1.0, 100.0)

    def test_speedup_factor_rejected(self):
        with pytest.raises(FaultPlanError):
            SlowdownWindow(0.0, 100.0, factor=0.5)


class TestPlanValidation:
    def test_rate_out_of_range(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(error_rate=1.5)
        with pytest.raises(FaultPlanError):
            FaultPlan(timeout_rate=-0.1)

    def test_combined_rates_capped(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(error_rate=0.6, timeout_rate=0.6)

    def test_negative_version_bump_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(version_bumps=(-5.0,))


class TestWireForm:
    def test_round_trip(self):
        plan = FaultPlan(
            seed=11,
            outages=(OutageWindow(10.0, 20.0),),
            slowdowns=(SlowdownWindow(5.0, 15.0, factor=3.0),),
            error_rate=0.1,
            timeout_rate=0.05,
            version_bumps=(42.0,),
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_fields_in_declaration_order_windows_as_objects(self):
        plan = FaultPlan(
            seed=2,
            outages=(OutageWindow(1.0, 2.0),),
            slowdowns=(SlowdownWindow(0.0, 5.0, factor=2.0),),
            version_bumps=(7.0,),
        )
        assert json.dumps(plan.to_dict()) == json.dumps(
            {
                "seed": 2,
                "outages": [{"start_ms": 1.0, "end_ms": 2.0}],
                "slowdowns": [
                    {"start_ms": 0.0, "end_ms": 5.0, "factor": 2.0}
                ],
                "error_rate": 0.0,
                "timeout_rate": 0.0,
                "version_bumps": [7.0],
            }
        )

    def test_defaults_round_trip(self):
        assert FaultPlan.from_dict(FaultPlan().to_dict()) == FaultPlan()

    def test_unknown_field_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown"):
            FaultPlan.from_dict({"seed": 1, "chaos": True})

    def test_malformed_window_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"outages": [{"start_ms": 0.0}]})

    def test_non_mapping_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict([1, 2, 3])


class TestSessionDecisions:
    def test_outage_wins_inside_window(self):
        session = FaultPlan(outages=(OutageWindow(0.0, 100.0),)).session()
        assert session.attempt(ORIGIN, 50.0)[0] is Fate.OUTAGE
        assert session.attempt(ORIGIN, 100.0)[0] is Fate.NONE

    def test_decisions_replay_identically(self):
        plan = FaultPlan(seed=3, error_rate=0.3, timeout_rate=0.3)
        times = [float(t) for t in range(0, 5000, 100)]
        session_a, session_b = plan.session(), plan.session()
        first = [session_a.attempt(ORIGIN, t)[0] for t in times]
        second = [session_b.attempt(ORIGIN, t)[0] for t in times]
        assert first == second
        assert Fate.TRANSIENT in first  # the rates actually fire
        assert Fate.TIMEOUT in first

    def test_one_draw_per_attempt_keeps_streams_aligned(self):
        # An outage window consumes draws exactly like fault-free
        # attempts do, so decisions after the window are identical
        # with and without it.
        times = [float(t) for t in range(0, 3000, 100)]
        base = FaultPlan(seed=9, error_rate=0.4).session()
        with_outage = FaultPlan(
            seed=9, error_rate=0.4, outages=(OutageWindow(0.0, 1000.0),)
        ).session()
        tail_a = [base.attempt(ORIGIN, t)[0] for t in times][10:]
        tail_b = [with_outage.attempt(ORIGIN, t)[0] for t in times][10:]
        assert tail_a == tail_b

    def test_slowdown_factors_multiply(self):
        session = FaultPlan(
            slowdowns=(
                SlowdownWindow(0.0, 100.0, factor=2.0),
                SlowdownWindow(50.0, 150.0, factor=3.0),
            )
        ).session()
        assert session.slowdown(ORIGIN, 25.0) == pytest.approx(2.0)
        assert session.slowdown(ORIGIN, 75.0) == pytest.approx(6.0)
        assert session.slowdown(ORIGIN, 125.0) == pytest.approx(3.0)
        assert session.slowdown(ORIGIN, 200.0) == pytest.approx(1.0)

    def test_version_bumps_pop_once(self):
        session = FaultPlan(version_bumps=(10.0, 20.0, 30.0)).session()
        assert session.due_version_bumps(5.0) == 0
        assert session.due_version_bumps(25.0) == 2
        assert session.due_version_bumps(25.0) == 0  # already applied
        assert session.due_version_bumps(1000.0) == 1


class TestMalformedWireForm:
    """Counterexamples that used to be misread instead of refused."""

    def test_string_version_bumps_refused(self):
        # Iterating "500" used to give bumps at 5, 0 and 0 ms.
        with pytest.raises(FaultPlanError, match="must be an array"):
            FaultPlan.from_dict({"version_bumps": "500"})

    def test_nan_window_start_refused(self):
        # NaN compares false both ways: a window that never opens.
        with pytest.raises(FaultPlanError, match="NaN"):
            FaultPlan.from_dict(
                {"outages": [{"start_ms": float("nan"), "end_ms": 5}]}
            )
        with pytest.raises(FaultPlanError, match="NaN"):
            OutageWindow(0.0, float("nan"))

    def test_infinite_window_end_stays_legal(self):
        plan = FaultPlan.from_dict(
            {"outages": [{"start_ms": 0, "end_ms": float("inf")}]}
        )
        assert plan.outages[0].active(1e300)
