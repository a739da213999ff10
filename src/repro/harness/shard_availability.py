"""Shard availability: what a mid-trace shard crash costs the tier.

The paper's proxy is one process; the sharded tier asks what happens
when the cache is spread across N workers and one of them dies with a
full cache.  For each shard count the experiment runs three scenarios
on identical seeded load:

* **baseline** — no fault; the per-count reference for aggregate hit
  ratio and answered fraction;
* **failover** — the busiest shard crashes mid-trace with health-aware
  failover and warm handoff on: its durable snapshot+journal image is
  replayed into the ring successor and traffic re-routes, so the
  answered fraction should stay near 1.0 and the post-handoff hit
  ratio near the baseline's;
* **control** — the same crash with failover *and* handoff disabled:
  every query owned by the dead shard sheds, making the availability
  collapse the failover path prevents visible in the same table.

Protocol per scenario: fresh shard proxies (each with its own
admission controller and persistence directory), a
:class:`~repro.cluster.router.ShardRouter` with the shard-crash plan,
and a seeded closed-loop population on one deterministic event loop.
The run is driven to the crash instant, the pre-crash record count is
marked, and the remaining events drain — the post-crash slice is what
the *post-handoff* columns aggregate.  Everything runs on event time,
so the whole table is reproducible bit for bit.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

from repro.admission import AdmissionConfig, AdmissionController
from repro.cluster import ClusterFrontend, RouterConfig, Shard, ShardRouter
from repro.core.schemes import CachingScheme
from repro.core.stats import QueryOutcome, QueryRecord, TraceStats
from repro.faults.shard import ShardCrashPlan, ShardFaultWindow
from repro.harness.config import ExperimentScale
from repro.harness.render import Result, flat, render_table
from repro.harness.runner import ExperimentRunner
from repro.obs.events import EventRecorder
from repro.obs.timeseries import ROUTER_LANES, TimeSeriesRecorder
from repro.persistence.persister import CachePersister
from repro.sched import EventLoop
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID
from repro.workload.closed_loop import ClosedLoopConfig, ClosedLoopDriver

#: Shard-count ladders: the quick ladder keeps the test suite fast.
QUICK_SHARD_COUNTS = (1, 2, 4)
FULL_SHARD_COUNTS = (1, 2, 4, 8)

#: The three scenarios every shard count runs.
SCENARIOS = ("baseline", "failover", "control")

#: Per-shard admission: generous enough that backpressure is not the
#: story (the saturation bench owns that axis), present so the tier
#: exercises the real queue path and sheds structurally when a control
#: run drives all of a dead shard's traffic into one place.
SHARD_ADMISSION = AdmissionConfig(
    max_inflight=8,
    max_queue_depth=32,
    queue_deadline_ms=15_000.0,
    overload_threshold=256,
    overload_cooldown_ms=2_000.0,
)

#: The spatial partition cell for the radial template (unit-sphere
#: coordinates).  The quick trace's hotspot spans ~0.04-0.13 per axis,
#: so 0.02 yields tens of distinct cells — enough keys to spread one
#: hot template across every shard count on the ladder.
REGION_CELL = 0.02

#: When the scheduled crash fires, in event-loop milliseconds.
CRASH_MS = 15_000.0

#: The closed-loop population every scenario replays.
SHARD_LOAD = ClosedLoopConfig(
    n_clients=40, queries_per_client=10, think_time_ms=3_000.0, seed=339
)


@dataclass(frozen=True)
class AvailabilityPoint(Result):
    """One (shard count, scenario) cell of the availability table."""

    shards: int
    scenario: str  # "baseline" | "failover" | "control"
    crashed_shard: str | None
    records: int
    answered_fraction: float
    hit_ratio: float  # among answered records, whole run
    post_records: int
    post_answered_fraction: float
    post_hit_ratio: float  # among answered records after the crash mark
    shed: int
    tunneled: int
    failovers: int
    handoff_entries: int
    handoff_replayed: int
    end_ms: float


@dataclass(frozen=True)
class ShardAvailabilityResult(Result):
    """The availability table across the shard-count ladder."""

    points: tuple[AvailabilityPoint, ...]
    crash_ms: float
    region_cell: float
    load: ClosedLoopConfig = flat(
        "n_clients", "queries_per_client", "think_time_ms", "seed"
    )

    def point(self, shards: int, scenario: str) -> AvailabilityPoint:
        for point in self.points:
            if point.shards == shards and point.scenario == scenario:
                return point
        raise KeyError(f"no point for {shards} shards / {scenario!r}")

    def render(self) -> str:
        columns = [
            ("shards", attrgetter("shards")),
            ("scenario", attrgetter("scenario")),
            ("records", attrgetter("records")),
            ("answered", attrgetter("answered_fraction")),
            ("hit ratio", attrgetter("hit_ratio")),
            ("post answered", attrgetter("post_answered_fraction")),
            ("post hit", attrgetter("post_hit_ratio")),
            ("shed", attrgetter("shed")),
            ("tunnel", attrgetter("tunneled")),
            ("failovers", attrgetter("failovers")),
            ("handoff", lambda p: f"{p.handoff_replayed}/{p.handoff_entries}"),
        ]
        return render_table(
            "Shard availability: mid-trace crash at "
            f"{self.crash_ms:.0f} ms with/without health-aware failover",
            columns,
            self.points,
        )


def shard_counts_for(scale: ExperimentScale) -> tuple[int, ...]:
    return QUICK_SHARD_COUNTS if scale.name == "quick" else FULL_SHARD_COUNTS


def _hit_ratio_answered(records: list[QueryRecord]) -> float:
    """Hit ratio among *answered* records only.

    ``TraceStats.hit_ratio`` counts every record that skipped the
    origin — which would credit sheds (they never contact anything) as
    hits.  Availability runs produce sheds by design, so the tier's
    cache quality is measured over the queries that returned tuples.
    """
    answered = [record for record in records if record.answered]
    if not answered:
        return 0.0
    hits = sum(1 for record in answered if not record.contacted_origin)
    return hits / len(answered)


def busiest_shard(runner: ExperimentRunner, n_shards: int) -> str:
    """The shard owning the most trace queries — the worst one to lose.

    Computed from ring primaries alone via a throwaway cache-less probe
    router (no serving, no rng draws, no persistence), so every
    scenario of a shard count agrees on the victim before any load runs.
    """
    probe = ShardRouter(
        tuple(
            Shard(
                f"shard-{index}",
                runner.build_proxy(CachingScheme.NO_CACHE, "array"),
            )
            for index in range(n_shards)
        ),
        config=RouterConfig(
            region_partitions={RADIAL_TEMPLATE_ID: REGION_CELL}
        ),
    )
    counts: dict[str, int] = {}
    for query in runner.trace:
        bound = runner.origin.templates.bind(
            query.template_id, query.param_dict()
        )
        primary = probe.ring.primary(probe.route_key(bound))
        counts[primary] = counts.get(primary, 0) + 1
    return max(sorted(counts), key=lambda shard_id: counts[shard_id])


def build_tier(
    runner: ExperimentRunner,
    n_shards: int,
    persistence_dir: str | Path,
    crash_plan: ShardCrashPlan,
    failover: bool,
    handoff_on_crash: bool,
    admission: AdmissionConfig = SHARD_ADMISSION,
) -> ShardRouter:
    """A fresh N-shard router: per-shard admission + persistence, an
    origin-tunnel fallback, and the router-lane telemetry recorders."""
    shards = []
    for index in range(n_shards):
        shard_id = f"shard-{index}"
        proxy = runner.build_proxy(
            CachingScheme.FULL_SEMANTIC,
            "array",
            cache_fraction=None,
            admission=AdmissionController(admission),
            persistence=CachePersister(
                Path(persistence_dir) / shard_id, shard_id=shard_id
            ),
        )
        shards.append(Shard(shard_id, proxy))
    fallback = runner.build_proxy(
        CachingScheme.NO_CACHE, "array", cache_fraction=None
    )
    return ShardRouter(
        tuple(shards),
        fallback=fallback,
        config=RouterConfig(
            failover=failover,
            handoff_on_crash=handoff_on_crash,
            region_partitions={RADIAL_TEMPLATE_ID: REGION_CELL},
        ),
        crash_plan=crash_plan,
        events=EventRecorder(),
        timeseries=TimeSeriesRecorder(lanes=ROUTER_LANES),
    )


def run_scenario(
    runner: ExperimentRunner,
    n_shards: int,
    scenario: str,
    crash_ms: float,
    load: ClosedLoopConfig,
) -> AvailabilityPoint:
    """One (shard count, scenario) cell on a fresh tier and loop."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; use {SCENARIOS}")
    failover = scenario != "control"
    victim = busiest_shard(runner, n_shards)
    with tempfile.TemporaryDirectory(prefix="shard-avail-") as tmp:
        faults = ()
        if scenario != "baseline":
            faults = (ShardFaultWindow(victim, "crash", crash_ms),)
        router = build_tier(
            runner,
            n_shards,
            tmp,
            ShardCrashPlan(seed=load.seed, faults=faults),
            failover=failover,
            handoff_on_crash=failover,
        )
        frontend = ClusterFrontend(router, EventLoop())
        driver = ClosedLoopDriver(frontend, runner.trace, load)
        # Drive to the crash instant, mark the slice boundary, drain.
        stats = driver.run(until_ms=crash_ms)
        pre_count = len(stats.records)
        driver.loop.run()
        post = TraceStats(stats.records[pre_count:])
        counts = stats.outcome_counts()
        return AvailabilityPoint(
            shards=n_shards,
            scenario=scenario,
            crashed_shard=victim if scenario != "baseline" else None,
            records=len(stats.records),
            answered_fraction=stats.answered_fraction,
            hit_ratio=_hit_ratio_answered(stats.records),
            post_records=len(post.records),
            post_answered_fraction=post.answered_fraction,
            post_hit_ratio=_hit_ratio_answered(post.records),
            shed=counts.get(QueryOutcome.SHED, 0)
            + counts.get(QueryOutcome.QUEUED_TIMEOUT, 0),
            tunneled=_count(router, "router_tunnel_total"),
            failovers=_count(router, "router_failover_total"),
            handoff_entries=sum(h.entries for h in router.handoffs),
            handoff_replayed=sum(h.replayed for h in router.handoffs),
            end_ms=driver.loop.now_ms,
        )


def _count(router: ShardRouter, counter: str) -> int:
    metric = router.registry.get(counter)
    return int(metric.total()) if metric else 0


def run_shard_availability(
    runner: ExperimentRunner,
    shard_counts: tuple[int, ...] | None = None,
    crash_ms: float = CRASH_MS,
    load: ClosedLoopConfig = SHARD_LOAD,
) -> ShardAvailabilityResult:
    points = [
        run_scenario(runner, n_shards, scenario, crash_ms, load)
        for n_shards in shard_counts or shard_counts_for(runner.scale)
        for scenario in SCENARIOS
    ]
    return ShardAvailabilityResult(
        points=tuple(points),
        crash_ms=crash_ms,
        region_cell=REGION_CELL,
        load=load,
    )
