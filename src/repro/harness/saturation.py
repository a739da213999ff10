"""Graceful saturation: throughput and latency as offered load climbs.

The paper's experiments run one query at a time; this experiment asks
what the proxy does when *thousands* of closed-loop clients hit it at
once.  A proxy without admission control would queue without bound and
every response time would diverge.  With the admission layer
(:mod:`repro.admission`) the answer should be *graceful saturation*:

* throughput rises with offered load until the service capacity is
  reached, then stays on a plateau instead of collapsing;
* the latency of queries that *are* admitted stays bounded by the
  configured queue deadline — waiting is capped, not unbounded;
* the excess load is turned away as structured ``shed`` /
  ``queued-timeout`` records, and the shed fraction grows with offered
  load while ``serve`` never raises.

Protocol: for each rung of a client ladder (8 clients up to 10,000 at
bench scale), build a fresh proxy + :class:`~repro.admission.controller.
AdmissionController` + :class:`~repro.sched.loop.EventLoop` and drive a
seeded :class:`~repro.workload.closed_loop.ClosedLoopDriver` population
to completion.  Everything runs on the deterministic event-time axis,
so the whole curve is reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import attrgetter

from repro.admission import AdmissionConfig, AdmissionController
from repro.core.schemes import CachingScheme
from repro.core.stats import QueryOutcome
from repro.harness.config import ExperimentScale
from repro.harness.render import Result, flat, render_table
from repro.harness.runner import ExperimentRunner
from repro.sched import EventLoop, ProxyFrontend
from repro.workload.closed_loop import ClosedLoopConfig, ClosedLoopDriver

#: Client-population ladders.  The quick ladder keeps unit tests fast;
#: the full ladder's 10,000-client rung is the saturation headline.
QUICK_LADDER = (8, 64, 800)
FULL_LADDER = (8, 64, 800, 2_500, 10_000)

#: The admission configuration under test.  A short queue keeps the
#: worst-case wait (queue_depth / max_inflight service times) well
#: under the deadline, so admitted queries finish inside it.
BENCH_ADMISSION = AdmissionConfig(
    max_inflight=8,
    max_queue_depth=16,
    queue_deadline_ms=15_000.0,
    overload_threshold=64,
    overload_cooldown_ms=2_000.0,
)

#: Each client's pacing; every rung replaces ``n_clients`` with its own
#: population.
SATURATION_LOAD = ClosedLoopConfig(
    queries_per_client=2, think_time_ms=4_000.0, seed=339
)

#: Outcomes that mean the query was admitted and dispatched (a failed
#: dispatch still occupied a slot; only shed/timed-out queries never ran).
ADMITTED_OUTCOMES = frozenset(
    {
        QueryOutcome.SERVED,
        QueryOutcome.DEGRADED,
        QueryOutcome.PARTIAL,
        QueryOutcome.FAILED,
    }
)


@dataclass(frozen=True)
class LoadPoint(Result):
    """One rung of the ladder: the proxy under ``n_clients`` of load."""

    n_clients: int
    submitted: int
    #: Records the proxy produced — equals ``submitted`` when every
    #: query resolved structurally (the never-raises contract).
    records: int
    served: int
    shed: int
    timed_out: int
    failed: int
    end_ms: float
    throughput_qps: float
    p95_admitted_ms: float
    shed_fraction: float
    overload_opens: int
    #: This rung's live-telemetry snapshots ({"timeseries", "events"})
    #: when the runner's scale enables the recorders; ``None`` otherwise.
    #: Deliberately not exported by :meth:`to_dict` (``flat`` with no
    #: keys) — the stitched artifacts (:func:`stitch_telemetry`) are the
    #: export surface.
    telemetry: dict | None = field(default=None, metadata={"flat": ()})


@dataclass(frozen=True)
class SaturationResult(Result):
    """The throughput-vs-load curve across the client ladder."""

    DERIVED = ("peak_throughput_qps", "plateau_fraction")

    points: tuple[LoadPoint, ...]
    admission: dict
    load: ClosedLoopConfig = flat(
        "queries_per_client", "think_time_ms", "seed"
    )

    @property
    def deadline_ms(self) -> float:
        return float(self.admission["config"]["queue_deadline_ms"])

    @property
    def peak_throughput_qps(self) -> float:
        return max(point.throughput_qps for point in self.points)

    @property
    def plateau_fraction(self) -> float:
        """Worst throughput at or past the peak, as a fraction of it.

        1.0 is a flat plateau; a congestion-collapse curve (throughput
        falling as load keeps climbing) drags this toward zero.
        """
        peak = self.peak_throughput_qps
        if peak <= 0:
            return 0.0
        start = max(
            index
            for index, point in enumerate(self.points)
            if point.throughput_qps == peak
        )
        return min(
            point.throughput_qps for point in self.points[start:]
        ) / peak

    def render(self) -> str:
        config = self.admission["config"]
        columns = [
            ("clients", attrgetter("n_clients")),
            ("submitted", attrgetter("submitted")),
            ("served", attrgetter("served")),
            ("shed", attrgetter("shed")),
            ("timeout", attrgetter("timed_out")),
            ("qps", attrgetter("throughput_qps")),
            ("p95 adm ms", attrgetter("p95_admitted_ms")),
            ("shed frac", attrgetter("shed_fraction")),
            ("opens", attrgetter("overload_opens")),
        ]
        return render_table(
            "Saturation: closed-loop load ladder against "
            f"{config['max_inflight']} service slots "
            f"(queue {config['max_queue_depth']}, "
            f"deadline {self.deadline_ms:.0f} ms)",
            columns,
            self.points,
        )


def _percentile(values: list[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(fraction * len(ordered)) - 1))
    return ordered[rank]


def ladder_for(scale: ExperimentScale) -> tuple[int, ...]:
    return QUICK_LADDER if scale.name == "quick" else FULL_LADDER


def run_load_point(
    runner: ExperimentRunner,
    admission: AdmissionConfig,
    load: ClosedLoopConfig,
) -> LoadPoint:
    """One ladder rung (``load.n_clients`` clients) on a fresh proxy,
    controller, and event loop."""
    proxy = runner.build_proxy(
        CachingScheme.FULL_SEMANTIC,
        "array",
        cache_fraction=None,
        admission=AdmissionController(admission),
    )
    frontend = ProxyFrontend(proxy, EventLoop())
    driver = ClosedLoopDriver(frontend, runner.trace, load)
    stats = driver.run()
    telemetry = None
    if proxy.timeseries.enabled or proxy.events.enabled:
        series = proxy.timeseries.snapshot()
        series["health"] = proxy.obs.health(driver.loop.now_ms)
        telemetry = {
            "timeseries": series,
            "events": proxy.events.snapshot(),
        }
    snapshot = proxy.admission.snapshot()
    counts = {
        outcome.value: count
        for outcome, count in stats.outcome_counts().items()
    }
    served = counts.get(QueryOutcome.SERVED.value, 0)
    shed = counts.get(QueryOutcome.SHED.value, 0)
    timed_out = counts.get(QueryOutcome.QUEUED_TIMEOUT.value, 0)
    end_ms = driver.loop.now_ms
    admitted_ms = [
        record.response_ms
        for record in stats.records
        if record.outcome in ADMITTED_OUTCOMES
    ]
    submitted = snapshot["submitted"]
    return LoadPoint(
        n_clients=load.n_clients,
        submitted=submitted,
        records=len(stats.records),
        served=served,
        shed=shed,
        timed_out=timed_out,
        failed=counts.get(QueryOutcome.FAILED.value, 0),
        end_ms=end_ms,
        throughput_qps=served / (end_ms / 1_000.0) if end_ms > 0 else 0.0,
        p95_admitted_ms=_percentile(admitted_ms, 0.95),
        shed_fraction=(shed + timed_out) / submitted if submitted else 0.0,
        overload_opens=snapshot["overload_opens"],
        telemetry=telemetry,
    )


def run_saturation(
    runner: ExperimentRunner,
    ladder: tuple[int, ...] | None = None,
    admission: AdmissionConfig = BENCH_ADMISSION,
    load: ClosedLoopConfig = SATURATION_LOAD,
) -> SaturationResult:
    rungs = ladder or ladder_for(runner.scale)
    points = tuple(
        run_load_point(runner, admission, replace(load, n_clients=n_clients))
        for n_clients in rungs
    )
    config = AdmissionController(admission).snapshot()["config"]
    return SaturationResult(
        points=points, admission={"config": config}, load=load
    )


def stitch_telemetry(result: SaturationResult) -> tuple[dict, dict] | None:
    """Concatenate the per-rung telemetry onto one monotone time axis.

    Each rung runs on a fresh proxy whose clock starts at zero, so the
    per-rung samples and events all live near the origin.  Stitching
    shifts every rung's timestamps by the cumulative duration of the
    rungs before it (rounded up to the sampling grid), producing one
    ``timeseries`` document and one ``events`` document whose timeline
    walks the whole ladder — the shed-rate lane rising rung over rung
    is the graceful-saturation picture in time-series form.  Returns
    ``None`` when the rungs carried no telemetry (recorders disabled).
    """
    stitched = [p for p in result.points if p.telemetry is not None]
    if not stitched:
        return None
    first = stitched[0].telemetry["timeseries"]
    interval = float(first.get("interval_ms") or 1_000.0)
    samples: list[dict] = []
    events: list[dict] = []
    counts: dict[str, int] = {}
    total = 0
    rungs: list[dict] = []
    offset = 0.0
    for point in stitched:
        series = point.telemetry["timeseries"]
        flight = point.telemetry["events"]
        for sample in series.get("samples", []):
            shifted = dict(sample)
            shifted["t_ms"] = sample["t_ms"] + offset
            samples.append(shifted)
        for event in flight.get("events", []):
            shifted = dict(event)
            shifted["at_ms"] = event["at_ms"] + offset
            events.append(shifted)
        total += flight.get("total", 0)
        for code, count in flight.get("counts", {}).items():
            counts[code] = counts.get(code, 0) + count
        span = math.ceil(point.end_ms / interval) * interval
        rungs.append(
            {
                "n_clients": point.n_clients,
                "t_start_ms": offset,
                "t_end_ms": offset + span,
                "shed_fraction": point.shed_fraction,
            }
        )
        offset += span
    timeseries_doc = {
        "enabled": True,
        "clock": "sim-ms",
        "interval_ms": interval,
        "capacity": first.get("capacity", 0),
        "lanes": first.get("lanes", {}),
        "samples": samples,
        "rungs": rungs,
        "health": stitched[-1].telemetry["timeseries"].get("health"),
    }
    events_doc = {
        "enabled": True,
        "clock": "sim-ms",
        "capacity": max(
            p.telemetry["events"].get("capacity", 0) for p in stitched
        ),
        "total": total,
        "counts": dict(sorted(counts.items())),
        "events": events,
        "rungs": rungs,
    }
    return timeseries_doc, events_doc
