"""Per-template SLO tracking: hit-ratio and latency objectives.

Every template is held to one objective: a target hit ratio (fraction
of queries the proxy answers without contacting the origin — the
paper's headline economy) and a latency objective (fraction of
responses under a simulated-latency bound).

The :class:`SloTracker` folds each finished query into per-template
tallies and exports, via the shared metrics registry:

* ``slo_hit_ratio{template=...}`` — observed hit ratio so far;
* ``slo_hit_burn_rate{template=...}`` — miss rate divided by the miss
  *budget* (``1 - target``): 1.0 means exactly on budget, above 1.0
  the objective is being burned faster than allowed;
* ``slo_latency_burn_rate{template=...}`` — same construction for the
  fraction of responses over the latency objective;
* ``slo_queries_total{template=...}`` — the sample size behind both.

Burn rates follow the standard error-budget formulation; with no
queries yet the gauge reports 0.0, never a division error.  Folding a
query bumps the tally's counts and the sample-size counter; the three
ratio gauges are computed from the tally when ``/metrics`` reads them.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import MetricsRegistry

#: Minimum fraction of queries served without contacting the origin.
TARGET_HIT_RATIO = 0.5
#: Simulated response-latency bound (milliseconds).
LATENCY_OBJECTIVE_MS = 1000.0
#: Minimum fraction of responses under the latency bound.
LATENCY_TARGET_RATIO = 0.95


class _TemplateTally:
    """One template's counts and its ``slo_queries_total`` child; the
    ratio gauges read the three ratios below."""

    __slots__ = ("queries", "hits", "within_latency", "counted")

    def __init__(self, counted: Any) -> None:
        self.queries = 0
        self.hits = 0
        self.within_latency = 0
        self.counted = counted

    def hit_ratio(self) -> float:
        return self.hits / self.queries if self.queries else 0.0

    def hit_burn_rate(self) -> float:
        return _burn_rate(
            self.queries - self.hits, self.queries, TARGET_HIT_RATIO
        )

    def latency_burn_rate(self) -> float:
        return _burn_rate(
            self.queries - self.within_latency,
            self.queries,
            LATENCY_TARGET_RATIO,
        )


def _burn_rate(violations: int, total: int, target: float) -> float:
    """Observed error rate over the error budget ``1 - target``."""
    if total == 0:
        return 0.0
    return violations / total / (1.0 - target)


class SloTracker:
    """Folds per-query results into per-template SLO gauges."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self._tallies: dict[str, _TemplateTally] = {}
        self._hit_ratio, self._hit_burn, self._latency_burn = (
            registry.gauge(
                "slo_hit_ratio",
                "Observed fraction of queries served without the origin.",
                ("template",),
            ),
            registry.gauge(
                "slo_hit_burn_rate",
                "Cache-miss rate over the miss budget (1 = on budget).",
                ("template",),
            ),
            registry.gauge(
                "slo_latency_burn_rate",
                "Over-latency response rate over its budget (1 = on budget).",
                ("template",),
            ),
        )
        self._queries = registry.counter(
            "slo_queries_total",
            "Queries counted toward each template's SLO.",
            ("template",),
        )

    def observe(self, template_id: str, hit: bool, latency_ms: float) -> None:
        """Fold one finished query into its template's tally."""
        tally = self._tallies.get(template_id)
        if tally is None:
            tally = self._tallies[template_id] = self._tally(template_id)
        tally.queries += 1
        if hit:
            tally.hits += 1
        if latency_ms <= LATENCY_OBJECTIVE_MS:
            tally.within_latency += 1
        tally.counted.inc()

    def _tally(self, template_id: str) -> _TemplateTally:
        """A new template's tally, its three gauges reading from it."""
        tally = _TemplateTally(self._queries.labels(template=template_id))
        self._hit_ratio.computed(tally.hit_ratio, template=template_id)
        self._hit_burn.computed(tally.hit_burn_rate, template=template_id)
        self._latency_burn.computed(
            tally.latency_burn_rate, template=template_id
        )
        return tally

    def snapshot(self) -> dict[str, Any]:
        """Per-template tallies and burn rates, JSON-able."""
        out: dict[str, Any] = {}
        for template_id, tally in sorted(self._tallies.items()):
            out[template_id] = {
                "queries": tally.queries,
                "hits": tally.hits,
                "within_latency": tally.within_latency,
                "hit_ratio": tally.hit_ratio(),
                "hit_burn_rate": tally.hit_burn_rate(),
                "latency_burn_rate": tally.latency_burn_rate(),
                "objective": {
                    "target_hit_ratio": TARGET_HIT_RATIO,
                    "latency_objective_ms": LATENCY_OBJECTIVE_MS,
                    "latency_target_ratio": LATENCY_TARGET_RATIO,
                },
            }
        return out
