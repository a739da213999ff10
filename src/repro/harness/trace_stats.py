"""Section 4.1's workload profile, measured on the synthetic trace.

The paper: "The query trace for the Radial search form has a total of
11,323 queries.  With an unlimited cache size, nearly 51% (17% query
exact match and 34% query containment) of the Radial search form
queries can be completely answered by the cache.  Additionally, about
9% of the queries overlap."

Our generator is calibrated against the quantities that drive Table 1
and Figure 5 — see EXPERIMENTS.md for how the 17/34 split relates to
occurrence- vs distinct-query counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from repro.harness.render import Result, render_table
from repro.harness.runner import ExperimentRunner
from repro.obs.metrics import MetricsRegistry
from repro.workload.analyzer import TraceProfile, analyze_trace


@dataclass(frozen=True)
class TraceStatsResult(Result):
    profile: TraceProfile
    distinct_queries: int

    def render(self) -> str:
        profile = self.profile
        rows = [
            ["Queries", profile.n_queries, 11_323],
            ["Distinct queries", self.distinct_queries, "(not stated)"],
            ["Fully answerable", profile.fully_answerable, 0.51],
            ["... exact match", profile.exact, "0.17 (see notes)"],
            ["... containment", profile.contained, "0.34 (see notes)"],
            ["Overlapping", profile.overlap, 0.09],
            ["Disjoint", profile.disjoint, "(remainder)"],
        ]
        return render_table(
            "Section 4.1 trace profile (unlimited-cache dispositions)",
            [
                ("Quantity", itemgetter(0)),
                ("Measured", itemgetter(1)),
                ("Paper", itemgetter(2)),
            ],
            rows,
        )

    def to_registry(self) -> MetricsRegistry:
        """The profile as a metrics registry (gauges per disposition)."""
        registry = MetricsRegistry()
        registry.gauge(
            "trace_queries", "Queries in the analyzed trace."
        ).set(self.profile.n_queries)
        registry.gauge(
            "trace_distinct_queries", "Distinct queries in the trace."
        ).set(self.distinct_queries)
        fractions = registry.gauge(
            "trace_disposition_fraction",
            "Unlimited-cache disposition fractions (Section 4.1).",
            ("disposition",),
        )
        profile = self.profile
        for disposition, value in (
            ("fully_answerable", profile.fully_answerable),
            ("exact", profile.exact),
            ("contained", profile.contained),
            ("overlap", profile.overlap),
            ("disjoint", profile.disjoint),
        ):
            fractions.labels(disposition=disposition).set(value)
        return registry

    def snapshot(self) -> dict:
        """A JSON-able metrics snapshot, for cross-PR perf diffing."""
        return self.to_registry().snapshot()


def run_trace_stats(runner: ExperimentRunner) -> TraceStatsResult:
    trace = runner.trace
    profile = analyze_trace(trace, runner.origin.templates)
    return TraceStatsResult(
        profile=profile, distinct_queries=trace.distinct_count()
    )
