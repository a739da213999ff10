"""The cluster frontend and the tier's determinism contract."""

from __future__ import annotations

import json

import pytest

from repro.admission import AdmissionConfig
from repro.cluster import ClusterFrontend, RouterConfig
from repro.core.stats import QueryOutcome
from repro.faults.shard import ShardCrashPlan, ShardFaultWindow
from repro.obs.events import EventRecorder
from repro.obs.instrument import TelemetryBundle
from repro.sched import EventLoop
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID
from repro.workload.closed_loop import ClosedLoopConfig, ClosedLoopDriver

ADMISSION = AdmissionConfig(max_inflight=2, max_queue_depth=8)


class TestClusterFrontend:
    def test_submit_routes_and_completes(self, make_tier, bind):
        router = make_tier(persist=False, admission=ADMISSION)
        frontend = ClusterFrontend(router, EventLoop())
        done = []
        decision = frontend.submit(bind(), on_done=done.append)
        assert decision.dispatched is not None
        frontend.loop.run()
        assert len(done) == 1
        assert done[0].record.outcome is QueryOutcome.SERVED
        assert frontend.completed == 1
        assert frontend.rejected == 0

    def test_one_health_verdict_per_shard_per_arrival(
        self, make_tier, bind, monkeypatch
    ):
        """The route and the telemetry sample share one verdict."""
        router = make_tier(n_shards=2, persist=False, admission=ADMISSION)
        frontend = ClusterFrontend(router, EventLoop())
        verdicts = []
        health = TelemetryBundle.health

        def counted(bundle):
            verdicts.append(bundle)
            return health(bundle)

        monkeypatch.setattr(TelemetryBundle, "health", counted)
        for index in range(10):
            frontend.submit(bind(ra=160.0 + index))
        assert len(verdicts) == 20
        frontend.loop.run()
        assert frontend.completed == 10

    def test_rebinds_router_clock_to_the_loop(self, make_tier):
        router = make_tier(persist=False, admission=ADMISSION)
        loop = EventLoop()
        frontend = ClusterFrontend(router, loop)
        assert router.clock is loop
        assert frontend.templates is not None

    def test_undispatchable_submission_still_completes(
        self, make_tier, bind
    ):
        plan = ShardCrashPlan(
            faults=tuple(
                ShardFaultWindow(f"shard-{i}", "crash", 0.0)
                for i in range(3)
            )
        )
        router = make_tier(
            persist=False, admission=ADMISSION, crash_plan=plan
        )
        frontend = ClusterFrontend(router, EventLoop())
        done = []
        decision = frontend.submit(bind(), on_done=done.append)
        assert decision.dispatched is None
        frontend.loop.run()
        # Tunnelled to the origin fallback: answered, counted complete.
        assert len(done) == 1
        assert done[0].record.answered
        assert frontend.completed == 1

    def test_shed_counts_as_rejected(self, make_tier, bind):
        plan = ShardCrashPlan(
            faults=tuple(
                ShardFaultWindow(f"shard-{i}", "crash", 0.0)
                for i in range(3)
            )
        )
        router = make_tier(
            persist=False,
            admission=ADMISSION,
            fallback=False,
            config=RouterConfig(failover=False),
            crash_plan=plan,
        )
        frontend = ClusterFrontend(router, EventLoop())
        done = []
        frontend.submit(bind(), on_done=done.append)
        frontend.loop.run()
        assert len(done) == 1
        assert done[0].record.outcome is QueryOutcome.SHED
        assert frontend.rejected == 1


def _run_tier(make_tier, trace_binds, crash_plan):
    """One complete event-loop run; returns (records, decisions)."""
    router = make_tier(
        persist=False,
        admission=ADMISSION,
        crash_plan=crash_plan,
        events=EventRecorder(),
    )
    frontend = ClusterFrontend(router, EventLoop())
    responses = []
    for offset_ms, bound in trace_binds:
        frontend.loop.at(
            offset_ms,
            lambda b=bound: frontend.submit(b, on_done=responses.append),
        )
    frontend.loop.run()
    records = [r.record.to_dict(include_wall=False) for r in responses]
    decisions = [d.to_dict() for d in router.recent_decisions()]
    return records, decisions, router.events.counts()


@pytest.fixture()
def trace_binds(bind):
    """A deterministic little trace straddling the crash instant."""
    binds = []
    for index in range(12):
        binds.append(
            (
                500.0 * index,
                bind(ra=160.0 + (index % 4), radius=2.0),
            )
        )
    return binds


class TestDeterminism:
    CRASH = ShardCrashPlan(
        seed=11,
        error_rate=0.1,
        faults=(ShardFaultWindow("shard-1", "crash", 2_000.0),),
    )

    def test_same_seed_byte_identical_runs(self, make_tier, trace_binds):
        first = _run_tier(make_tier, trace_binds, self.CRASH)
        second = _run_tier(make_tier, trace_binds, self.CRASH)
        for a, b in zip(first, second):
            assert json.dumps(a, sort_keys=True) == json.dumps(
                b, sort_keys=True
            )

    def test_closed_loop_driver_deterministic(self, make_tier, origin):
        """The full stacked pipeline — seeded clients, router, fault
        session, admission queues, one event loop — replays exactly."""
        from repro.workload.trace import Trace, TraceQuery

        def run():
            router = make_tier(
                persist=False,
                admission=ADMISSION,
                crash_plan=self.CRASH,
                config=RouterConfig(
                    region_partitions={RADIAL_TEMPLATE_ID: 0.02}
                ),
            )
            trace = Trace(
                tuple(
                    TraceQuery(
                        RADIAL_TEMPLATE_ID,
                        (
                            ("ra", 160.0 + index),
                            ("dec", 8.0),
                            ("radius", 2.0),
                            ("r_min", -9999.0),
                            ("r_max", 9999.0),
                        ),
                    )
                    for index in range(6)
                )
            )
            frontend = ClusterFrontend(router, EventLoop())
            driver = ClosedLoopDriver(
                frontend,
                trace,
                ClosedLoopConfig(
                    n_clients=6,
                    queries_per_client=3,
                    think_time_ms=1_000.0,
                    seed=23,
                ),
            )
            stats = driver.run()
            return (
                json.dumps(
                    [
                        record.to_dict(include_wall=False)
                        for record in stats.records
                    ],
                    sort_keys=True,
                ),
                json.dumps(
                    [d.to_dict() for d in router.recent_decisions()],
                    sort_keys=True,
                ),
                stats.outcome_counts(),
            )

        first = run()
        second = run()
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[2] == second[2]

    def test_plan_variant_changes_only_the_injected_shard(
        self, make_tier, trace_binds
    ):
        """Draw alignment end to end: disabling the crash must not
        reshuffle the transient-error stream (same seed, same
        error_rate) — only shard-1's fates may change."""
        no_crash = ShardCrashPlan(seed=11, error_rate=0.1)
        _, with_crash_decisions, _ = _run_tier(
            make_tier, trace_binds, self.CRASH
        )
        _, without_decisions, _ = _run_tier(
            make_tier, trace_binds, no_crash
        )
        assert len(with_crash_decisions) == len(without_decisions)
        for crashed, clean in zip(with_crash_decisions, without_decisions):
            crash_fates = {
                a["shard_id"]: a["fate"] for a in crashed["attempts"]
            }
            clean_fates = {
                a["shard_id"]: a["fate"] for a in clean["attempts"]
            }
            for shard_id, fate in crash_fates.items():
                if shard_id == "shard-1" or fate == "dispatched":
                    continue
                assert clean_fates.get(shard_id, fate) == fate

    def test_events_deterministic(self, make_tier, trace_binds):
        first = _run_tier(make_tier, trace_binds, self.CRASH)[2]
        second = _run_tier(make_tier, trace_binds, self.CRASH)[2]
        assert first == second
        assert first.get("EV12") == 1
