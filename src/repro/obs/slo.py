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
queries yet the gauge reports 0.0, never a division error.
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
    """One template's counts and the four metric children they feed
    (``SloTracker._families`` order; resolved once, when the template
    is first seen)."""

    __slots__ = ("queries", "hits", "within_latency", "children")

    def __init__(self, children: list[Any]) -> None:
        self.queries = 0
        self.hits = 0
        self.within_latency = 0
        self.children = children

    def ratios(self) -> tuple[float, float, float]:
        """``(hit_ratio, hit_burn_rate, latency_burn_rate)`` so far."""
        return (
            self.hits / self.queries,
            _burn_rate(
                self.queries - self.hits, self.queries, TARGET_HIT_RATIO
            ),
            _burn_rate(
                self.queries - self.within_latency,
                self.queries,
                LATENCY_TARGET_RATIO,
            ),
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
        #: The three ratio gauges in ``_TemplateTally.ratios`` order,
        #: then the sample-size counter.
        self._families = (
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
            registry.counter(
                "slo_queries_total",
                "Queries counted toward each template's SLO.",
                ("template",),
            ),
        )

    def observe(self, template_id: str, hit: bool, latency_ms: float) -> None:
        """Fold one finished query into its template's SLO gauges."""
        tally = self._tallies.get(template_id)
        if tally is None:
            tally = self._tallies[template_id] = _TemplateTally(
                [f.labels(template=template_id) for f in self._families]
            )
        tally.queries += 1
        if hit:
            tally.hits += 1
        if latency_ms <= LATENCY_OBJECTIVE_MS:
            tally.within_latency += 1
        *gauges, queries = tally.children
        queries.inc()
        for gauge, value in zip(gauges, tally.ratios()):
            gauge.set(value)

    def snapshot(self) -> dict[str, Any]:
        """Per-template tallies and burn rates, JSON-able."""
        out: dict[str, Any] = {}
        for template_id, tally in sorted(self._tallies.items()):
            hit_ratio, hit_burn, latency_burn = tally.ratios()
            out[template_id] = {
                "queries": tally.queries,
                "hits": tally.hits,
                "within_latency": tally.within_latency,
                "hit_ratio": hit_ratio,
                "hit_burn_rate": hit_burn,
                "latency_burn_rate": latency_burn,
                "objective": {
                    "target_hit_ratio": TARGET_HIT_RATIO,
                    "latency_objective_ms": LATENCY_OBJECTIVE_MS,
                    "latency_target_ratio": LATENCY_TARGET_RATIO,
                },
            }
        return out
