"""Availability under origin faults: what caching buys when the
origin goes away.

The paper measures caching as a latency win.  This experiment measures
the *robustness* win the same cache provides: with the resilience
layer (retry, circuit breaker, stale-serve degradation), a semantic
cache keeps answering queries through an origin outage that makes a
cacheless proxy fail every request.

Protocol, per caching scheme:

1. **Calibrate** — replay the measured trace fault-free with a fixed
   think time between queries and read the simulated end time ``T``
   off the proxy's clock.  Response times differ across schemes, so
   each scheme gets its own ``T``; the outage is placed at the same
   *fractional* position for all of them.
2. **Fault** — replay the same trace on a fresh proxy with a seeded
   :class:`~repro.faults.plan.FaultPlan` installed: one outage window
   covering ``[0.35 T, 0.55 T)`` plus a small transient error rate
   over the whole run (exercising the retry path outside the outage).
3. **Report** — the answered fraction (served + degraded + partial),
   p95 response time, per-outcome counts, total retries, and breaker
   opens.

Everything is simulated-clock-driven and seeded, so the whole table
is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from repro.core.schemes import CachingScheme
from repro.core.stats import QueryOutcome, TraceStats
from repro.faults.plan import FaultPlan, OutageWindow
from repro.harness.render import Result, render_table
from repro.harness.runner import ExperimentRunner
from repro.workload.rbe import BrowserEmulator

#: The schemes compared: no caching, passive, and two active schemes.
SCHEMES = (
    CachingScheme.NO_CACHE,
    CachingScheme.PASSIVE,
    CachingScheme.CONTAINMENT_ONLY,
    CachingScheme.FULL_SEMANTIC,
)

#: Where the outage sits, as fractions of the calibrated trace time.
OUTAGE_WINDOW_FRACTIONS = (0.35, 0.55)


@dataclass(frozen=True)
class SchemeAvailability(Result):
    """One scheme's measurements under the fault plan."""

    scheme: CachingScheme
    answered_fraction: float
    p95_ms: float
    fault_free_p95_ms: float
    outcome_counts: dict[str, int]
    total_retries: int
    breaker_opens: int
    outage_ms: tuple[float, float]


@dataclass(frozen=True)
class FaultAvailabilityResult(Result):
    """The availability table across caching schemes."""

    schemes: dict[str, SchemeAvailability]
    think_time_ms: float
    error_rate: float
    seed: int

    @property
    def answered_fraction(self) -> dict[str, float]:
        return {
            label: row.answered_fraction
            for label, row in self.schemes.items()
        }

    def render(self) -> str:
        columns = [
            ("Scheme", lambda row: row.scheme.value),
            ("answered", attrgetter("answered_fraction")),
            ("p95 ms", attrgetter("p95_ms")),
            *(
                (o.value, lambda row, o=o: row.outcome_counts.get(o.value, 0))
                for o in (
                    QueryOutcome.SERVED,
                    QueryOutcome.DEGRADED,
                    QueryOutcome.PARTIAL,
                    QueryOutcome.FAILED,
                )
            ),
            ("retries", attrgetter("total_retries")),
            ("opens", attrgetter("breaker_opens")),
        ]
        return render_table(
            "Fault availability: answered fraction per scheme under an "
            f"origin outage covering {OUTAGE_WINDOW_FRACTIONS[0]:.0%}-"
            f"{OUTAGE_WINDOW_FRACTIONS[1]:.0%} of the trace",
            columns,
            self.schemes.values(),
        )


def _replay(
    runner: ExperimentRunner,
    scheme: CachingScheme,
    plan: FaultPlan | None,
    think_time_ms: float,
) -> tuple[TraceStats, float, int]:
    """One trace replay; returns (stats, end_ms, breaker opens)."""
    proxy = runner.build_proxy(scheme, "array", cache_fraction=None)
    if plan is not None:
        proxy.install_fault_plan(plan)
    stats = BrowserEmulator(proxy).run(
        runner.trace,
        limit=runner.scale.measure_queries,
        think_time_ms=think_time_ms,
    )
    return stats, proxy.clock.now_ms, proxy.breaker.opens


def run_fault_availability(
    runner: ExperimentRunner,
    think_time_ms: float = 1_000.0,
    error_rate: float = 0.02,
    seed: int = 7,
) -> FaultAvailabilityResult:
    schemes: dict[str, SchemeAvailability] = {}
    for scheme in SCHEMES:
        calibration, end_ms, _ = _replay(runner, scheme, None, think_time_ms)
        outage = OutageWindow(
            start_ms=OUTAGE_WINDOW_FRACTIONS[0] * end_ms,
            end_ms=OUTAGE_WINDOW_FRACTIONS[1] * end_ms,
        )
        plan = FaultPlan(
            seed=seed, outages=(outage,), error_rate=error_rate
        )
        stats, _, opens = _replay(runner, scheme, plan, think_time_ms)
        schemes[scheme.value] = SchemeAvailability(
            scheme=scheme,
            answered_fraction=stats.answered_fraction,
            p95_ms=stats.response_percentile(0.95),
            fault_free_p95_ms=calibration.response_percentile(0.95),
            outcome_counts={
                outcome.value: count
                for outcome, count in stats.outcome_counts().items()
            },
            total_retries=stats.total_retries,
            breaker_opens=opens,
            outage_ms=(outage.start_ms, outage.end_ms),
        )
    return FaultAvailabilityResult(
        schemes=schemes,
        think_time_ms=think_time_ms,
        error_rate=error_rate,
        seed=seed,
    )
