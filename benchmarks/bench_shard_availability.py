"""Shard availability: a mid-trace crash with and without failover.

Not a paper table — the paper's proxy is one process.  This bench runs
the sharded-tier availability experiment
(:mod:`repro.harness.shard_availability`): for each shard count on the
ladder, identical seeded closed-loop load runs three ways — no fault
(baseline), the busiest shard crashing mid-trace with health-aware
failover plus warm handoff (failover), and the same crash with both
disabled (control).  The acceptance shape at four shards:

* failover keeps the answered fraction >= 0.90 — rerouting and the
  origin tunnel absorb the dead shard's traffic;
* the post-handoff aggregate hit ratio stays >= 0.8x the no-crash
  run's — the successor actually inherits the dead shard's cache;
* the no-failover control visibly collapses: every query owned by the
  dead shard sheds with the structured ``shard-down`` reason.

The benchmark kernel is the routing hot path: one ``route`` call
through the consistent-hash ring with the fault session live — what
the router does once per query before any shard work happens.
"""

from repro.cluster import RouterConfig, Shard, ShardRouter
from repro.core.schemes import CachingScheme
from repro.faults.shard import ShardCrashPlan, ShardFaultWindow
from repro.harness.shard_availability import (
    REGION_CELL,
    RADIAL_TEMPLATE_ID,
    run_shard_availability,
)


def test_shard_availability(
    runner, record_result, record_json, bench_report, benchmark
):
    result = run_shard_availability(runner)
    record_result("shard_availability", result.render())
    record_json("shard_availability", result.to_dict())

    baseline = result.point(4, "baseline")
    failover = result.point(4, "failover")
    control = result.point(4, "control")

    report = bench_report("shard_availability")
    report.metric(
        "failover_answered_fraction",
        failover.answered_fraction,
        unit="fraction",
    )
    report.metric(
        "failover_post_hit_ratio",
        failover.post_hit_ratio,
        unit="fraction",
    )
    report.metric(
        "control_answered_fraction",
        control.answered_fraction,
        unit="fraction",
    )
    report.metric(
        "handoff_entries",
        float(failover.handoff_entries),
        unit="entries",
    )
    report.finish()

    # Every submission produced exactly one record in every cell, and
    # the fault-free baselines answered everything.
    expected = result.load.n_clients * result.load.queries_per_client
    for point in result.points:
        assert point.records == expected
        if point.scenario == "baseline":
            assert point.answered_fraction >= 1.0
            assert point.shed == 0
            assert point.failovers == 0
            assert point.handoff_entries == 0

    # Failover keeps the tier answering through the crash...
    assert failover.answered_fraction >= 0.90
    # ...and the warm handoff preserves the cache: the post-crash hit
    # ratio stays within 80% of the undisturbed run's.
    assert baseline.post_hit_ratio > 0.0
    assert failover.post_hit_ratio >= 0.8 * baseline.post_hit_ratio
    # The handoff actually moved the dead shard's durable image.
    assert failover.handoff_entries > 0
    assert failover.handoff_replayed == failover.handoff_entries
    assert failover.failovers > 0
    # The control collapses: visibly worse availability, real sheds.
    assert control.answered_fraction < 0.80
    assert control.answered_fraction < failover.answered_fraction - 0.10
    assert control.shed > 0
    # Single-shard sanity: with the only shard dead, failover degrades
    # every remaining query to the origin tunnel rather than shedding.
    one_failover = result.point(1, "failover")
    assert one_failover.answered_fraction >= 1.0
    assert one_failover.tunneled > 0

    # Benchmark: the routing hot path — one route() walk with the
    # fault session live and the crash window open.
    shards = tuple(
        Shard(
            f"shard-{index}",
            runner.build_proxy(CachingScheme.NO_CACHE, "array"),
        )
        for index in range(4)
    )
    router = ShardRouter(
        shards,
        config=RouterConfig(
            region_partitions={RADIAL_TEMPLATE_ID: REGION_CELL}
        ),
        crash_plan=ShardCrashPlan(
            seed=result.load.seed,
            faults=(ShardFaultWindow("shard-0", "crash", 0.0),),
        ),
    )
    bound = runner.origin.templates.bind(
        RADIAL_TEMPLATE_ID, runner.trace[0].param_dict()
    )

    def route_once():
        return router.route(bound, router.clock.now_ms)

    benchmark(route_once)
