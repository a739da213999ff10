"""The shard router: placement, failover, crash handling, drain."""

from __future__ import annotations

import pytest

from repro.cluster import (
    REASON_SHARD_DOWN,
    RouterConfig,
    ShardRouter,
)
from repro.core.stats import QueryOutcome
from repro.faults.shard import ShardCrashPlan, ShardFaultWindow
from repro.obs.events import EventRecorder
from repro.obs.health import UNHEALTHY
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID


class TestConstruction:
    def test_needs_shards(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardRouter([])

    def test_rejects_duplicate_ids(self, make_tier, origin):
        from repro.cluster import Shard
        from repro.core.proxy import FunctionProxy

        proxy = FunctionProxy(origin, origin.templates)
        with pytest.raises(ValueError, match="duplicate shard ids"):
            ShardRouter([Shard("a", proxy), Shard("a", proxy)])

    def test_region_partition_cell_must_be_positive(self):
        with pytest.raises(ValueError, match="must be positive"):
            RouterConfig(region_partitions={"t": 0.0})


class TestPlacement:
    def test_same_template_same_shard(self, make_tier, bind):
        router = make_tier(persist=False)
        shards = {
            router.route(bind(ra=160.0 + i)).dispatched
            for i in range(5)
        }
        assert len(shards) == 1

    def test_region_partition_spreads_one_template(self, make_tier, bind):
        config = RouterConfig(
            region_partitions={RADIAL_TEMPLATE_ID: 0.02}
        )
        router = make_tier(persist=False, config=config)
        keys = {
            router.route_key(bind(ra=160.0 + offset, dec=5.0 + offset))
            for offset in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
        }
        assert len(keys) > 1
        for key in keys:
            assert key.startswith(f"{RADIAL_TEMPLATE_ID}@")

    def test_unpartitioned_key_is_the_template_id(self, make_tier, bind):
        router = make_tier(persist=False)
        assert router.route_key(bind()) == RADIAL_TEMPLATE_ID

    def test_serve_lands_on_the_routed_shard(self, make_tier, bind):
        router = make_tier(persist=False)
        response, decision = router.serve_routed(bind())
        assert decision.dispatched is not None
        shard = router.shard(decision.dispatched)
        assert len(shard.proxy.stats.records) == 1
        assert response.record.outcome is QueryOutcome.SERVED


class TestFailover:
    def _crash_primary(self, router, bind):
        primary = router.ring.primary(router.route_key(bind()))
        return primary, ShardCrashPlan(
            seed=3, faults=(ShardFaultWindow(primary, "crash", 0.0),)
        )

    def test_crashed_primary_reroutes(self, make_tier, bind):
        probe = make_tier(persist=False)
        primary, plan = self._crash_primary(probe, bind)
        router = make_tier(
            persist=False, crash_plan=plan, events=EventRecorder()
        )
        response, decision = router.serve_routed(bind())
        assert decision.primary == primary
        assert decision.dispatched is not None
        assert decision.dispatched != primary
        assert decision.rerouted
        assert decision.attempts[0].fate == "crash"
        assert response.record.answered
        codes = router.events.counts()
        assert codes.get("EV12") == 1
        assert codes.get("EV13", 0) >= 1

    def test_no_failover_control_sheds(self, make_tier, bind):
        probe = make_tier(persist=False)
        primary, plan = self._crash_primary(probe, bind)
        router = make_tier(
            persist=False,
            fallback=False,
            config=RouterConfig(failover=False),
            crash_plan=plan,
        )
        response, decision = router.serve_routed(bind())
        assert decision.dispatched is None
        assert len(decision.attempts) == 1
        assert response.record.outcome is QueryOutcome.SHED
        assert response.record.failure_reason == REASON_SHARD_DOWN
        # The shed is recorded against the primary shard's stats.
        assert len(router.shard(primary).proxy.stats.records) == 1

    def test_all_shards_down_tunnels_to_fallback(self, make_tier, bind):
        plan = ShardCrashPlan(
            faults=tuple(
                ShardFaultWindow(f"shard-{i}", "crash", 0.0)
                for i in range(3)
            )
        )
        router = make_tier(persist=False, crash_plan=plan)
        response, decision = router.serve_routed(bind())
        assert decision.dispatched is None
        assert response.record.answered
        assert response.record.contacted_origin
        tunnel = router.registry.get("router_tunnel_total")
        assert tunnel.total() == 1.0

    def test_unhealthy_status_skips_the_shard(self, make_tier, bind):
        router = make_tier(persist=False)
        primary = router.ring.primary(router.route_key(bind()))
        statuses = {sid: "healthy" for sid in router.shard_ids}
        statuses[primary] = UNHEALTHY
        decision = router.route(bind(), statuses)
        assert decision.attempts[0].fate == "unhealthy"
        assert decision.dispatched != primary

    def test_slow_window_charges_the_record(self, make_tier, bind):
        probe = make_tier(persist=False)
        primary = probe.ring.primary(probe.route_key(bind()))
        plan = ShardCrashPlan(
            faults=(
                ShardFaultWindow(primary, "slow", 0.0, factor=4.0),
            )
        )
        router = make_tier(persist=False, crash_plan=plan)
        response, decision = router.serve_routed(bind())
        assert decision.dispatched == primary
        # The window is reported where routing reports everything else;
        # the record the shard already emitted is left alone, so the
        # shard's own account agrees with it.
        assert decision.slowdown == 4.0
        assert decision.to_dict()["slowdown"] == 4.0
        record = response.record
        assert "router.slow" not in record.steps_ms
        assert record.response_ms == sum(record.steps_ms.values())
        shard_metrics = router.shard(primary).proxy.obs.registry
        emitted = shard_metrics.get("proxy_response_sim_ms")
        assert emitted.snapshot_values()[""]["sum"] == record.response_ms


class TestCrashHandoff:
    def test_crash_clears_memory_and_hands_off_disk(self, make_tier, bind):
        probe = make_tier(persist=False)
        primary = probe.ring.primary(probe.route_key(bind()))
        plan = ShardCrashPlan(
            faults=(ShardFaultWindow(primary, "crash", 5_000.0),)
        )
        router = make_tier(crash_plan=plan, events=EventRecorder())
        # Warm the primary's cache (and its journal) before the crash.
        router.serve(bind())
        victim = router.shard(primary).proxy
        assert len(victim.cache.entries()) == 1
        router.clock.advance(6_000.0)
        router.check_faults()
        assert len(victim.cache.entries()) == 0
        assert len(router.handoffs) == 1
        report = router.handoffs[0]
        assert report.source == primary
        assert report.entries == 1
        assert report.replayed == 1
        successor = router.shard(report.target).proxy
        assert len(successor.cache.entries()) == 1
        assert router.events.counts().get("EV14") == 1
        # The durable image survived the clear: the journal still
        # holds the admit (suspended persister => no spurious clear).
        assert victim.persistence.status()["total_records"] >= 1

    def test_crash_without_persister_moves_nothing(self, make_tier, bind):
        probe = make_tier(persist=False)
        primary = probe.ring.primary(probe.route_key(bind()))
        plan = ShardCrashPlan(
            faults=(ShardFaultWindow(primary, "crash", 5_000.0),)
        )
        router = make_tier(persist=False, crash_plan=plan)
        router.serve(bind())
        router.clock.advance(6_000.0)
        router.check_faults()
        assert router.handoffs == []

    def test_handoff_disabled_still_clears(self, make_tier, bind):
        probe = make_tier(persist=False)
        primary = probe.ring.primary(probe.route_key(bind()))
        plan = ShardCrashPlan(
            faults=(ShardFaultWindow(primary, "crash", 5_000.0),)
        )
        router = make_tier(
            crash_plan=plan,
            config=RouterConfig(failover=False),
        )
        router.serve(bind())
        router.clock.advance(6_000.0)
        router.check_faults()
        assert len(router.shard(primary).proxy.cache.entries()) == 0
        assert router.handoffs == []

    def test_hang_keeps_the_cache(self, make_tier, bind):
        probe = make_tier(persist=False)
        primary = probe.ring.primary(probe.route_key(bind()))
        plan = ShardCrashPlan(
            faults=(ShardFaultWindow(primary, "hang", 5_000.0, 9_000.0),)
        )
        router = make_tier(persist=False, crash_plan=plan)
        router.serve(bind())
        router.clock.advance(6_000.0)
        router.check_faults()
        # Hung, not crashed: memory intact, no handoff, not dispatchable.
        assert len(router.shard(primary).proxy.cache.entries()) == 1
        assert router.handoffs == []
        decision = router.route(bind())
        assert decision.attempts[0].fate == "hang"
        assert decision.dispatched != primary


class TestDirectPathClock:
    def test_crash_window_fires_once_served_time_passes_it(
        self, make_tier, bind
    ):
        """``serve`` without the event loop: the router's clock is the
        simulated time served, so a crash window after t=0 fires."""
        plan = ShardCrashPlan(
            faults=(ShardFaultWindow("shard-0", "crash", 1_000.0),)
        )
        router = make_tier(
            n_shards=2,
            crash_plan=plan,
            events=EventRecorder(),
            config=RouterConfig(region_partitions={RADIAL_TEMPLATE_ID: 0.02}),
        )
        served_ms = 0.0
        for index in range(200):
            before_ms = router.clock.now_ms
            response = router.serve(
                bind(ra=160.0 + (index % 20) * 0.4, dec=6.0 + (index % 3))
            )
            served_ms += response.record.response_ms
            assert router.clock.now_ms == pytest.approx(served_ms)
            crashes = router.events.counts().get("EV12", 0)
            assert crashes == (1 if before_ms >= 1_000.0 else 0)
        assert served_ms > 1_000.0
        assert len(router.handoffs) == 1
        assert router.handoffs[0].source == "shard-0"
        (event,) = [e for e in router.events.recent() if e["code"] == "EV12"]
        assert event["at_ms"] >= 1_000.0


class TestDrain:
    def test_drain_moves_the_live_cache(self, make_tier, bind):
        router = make_tier(persist=False)
        router.serve(bind())
        primary = router.ring.primary(router.route_key(bind()))
        report = router.drain(primary)
        assert report is not None
        assert report.source == primary
        assert report.replayed == 1
        assert router.status()["drained"] == [primary]
        successor = router.shard(report.target).proxy
        assert len(successor.cache.entries()) == 1
        # Routing now skips the drained shard without a fault draw.
        # (The reroute target is the key's next preference, which need
        # not coincide with the shard's ring successor.)
        decision = router.route(bind())
        assert decision.attempts[0].fate == "drained"
        assert decision.dispatched is not None
        assert decision.dispatched != primary

    def test_double_drain_returns_none(self, make_tier):
        router = make_tier(persist=False)
        assert router.drain("shard-0") is not None
        assert router.drain("shard-0") is None

    def test_unknown_shard_raises(self, make_tier):
        router = make_tier(persist=False)
        with pytest.raises(ValueError, match="unknown shard"):
            router.drain("ghost")

    def test_drain_with_no_live_successor_moves_nothing(
        self, make_tier, bind
    ):
        router = make_tier(n_shards=2, persist=False)
        router.serve(bind())
        router.drain("shard-0")
        report = router.drain("shard-1")
        assert report is not None
        assert report.target == ""
        assert report.replayed == 0


class TestStatusAndHealth:
    def test_status_payload(self, make_tier, bind):
        router = make_tier(persist=False)
        router.serve(bind())
        payload = router.status()
        assert {s["shard_id"] for s in payload["shards"]} == set(
            router.shard_ids
        )
        assert payload["ring"]["nodes"] == list(router.shard_ids)
        assert payload["failover"] is True
        assert payload["fallback"] is True
        assert payload["decisions_total"] == 1
        assert sum(s["queries"] for s in payload["shards"]) == 1

    def test_decision_log_keeps_the_newest(self, make_tier, bind):
        router = make_tier(persist=False)
        served = [
            router.serve_routed(bind(ra=160.0 + (i % 7)))[1]
            for i in range(300)
        ]
        kept = router.recent_decisions()
        assert len(kept) == 256
        assert [d.seq for d in kept] == [d.seq for d in served[-256:]]
        assert router.recent_decisions(10) == served[-10:]
        assert router.recent_decisions(300) == kept
        assert router.status()["decisions_total"] == 300

    def test_health_reports_shards_down(self, make_tier):
        plan = ShardCrashPlan(
            faults=(ShardFaultWindow("shard-0", "crash", 0.0),)
        )
        router = make_tier(persist=False, crash_plan=plan)
        router.clock.advance(10.0)
        report = router.health()
        assert report["shards_total"] == 3
        assert report["shards_up"] == 2
        assert report["shards"]["shard-0"] == "unreachable"
        assert router.shards_up() == 2
