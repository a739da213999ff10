"""Per-template SLO tracking: hit-ratio and latency objectives.

An :class:`SloObjective` states what "healthy" means for one template:
a target hit ratio (fraction of queries the proxy answers without
contacting the origin — the paper's headline economy) and a latency
objective (fraction of responses under a simulated-latency bound).

The :class:`SloTracker` folds each finished query into per-template
tallies and exports, via the shared metrics registry:

* ``slo_hit_ratio{template=...}`` — observed hit ratio so far;
* ``slo_hit_burn_rate{template=...}`` — miss rate divided by the miss
  *budget* (``1 - target``): 1.0 means exactly on budget, above 1.0
  the objective is being burned faster than allowed;
* ``slo_latency_burn_rate{template=...}`` — same construction for the
  fraction of responses over the latency objective;
* ``slo_queries_total{template=...}`` — the sample size behind both.

Burn rates follow the standard error-budget formulation: with no
queries yet (or a 100% target, i.e. zero budget and any violation)
the gauge reports 0.0 / the budget-exhausted ceiling respectively,
never a division error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.obs.metrics import MetricsRegistry

#: Reported when a zero error budget (target = 1.0) is violated at all.
BURN_RATE_CEILING = 1000.0


@dataclass(frozen=True)
class SloObjective:
    """What "healthy" means for one template's traffic."""

    #: Minimum fraction of queries served without contacting the origin.
    target_hit_ratio: float = 0.5
    #: Simulated response-latency bound (milliseconds).
    latency_objective_ms: float = 1000.0
    #: Minimum fraction of responses under the latency bound.
    latency_target_ratio: float = 0.95

    def __post_init__(self) -> None:
        for name in ("target_hit_ratio", "latency_target_ratio"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]: {value}")
        if self.latency_objective_ms <= 0:
            raise ValueError(
                f"latency_objective_ms must be positive: "
                f"{self.latency_objective_ms}"
            )


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

    def ratios(self, objective: SloObjective) -> tuple[float, float, float]:
        """``(hit_ratio, hit_burn_rate, latency_burn_rate)`` so far."""
        return (
            self.hits / self.queries,
            _burn_rate(
                self.queries - self.hits,
                self.queries,
                objective.target_hit_ratio,
            ),
            _burn_rate(
                self.queries - self.within_latency,
                self.queries,
                objective.latency_target_ratio,
            ),
        )


def _burn_rate(violations: int, total: int, target: float) -> float:
    """Observed error rate over the error budget ``1 - target``."""
    if total == 0:
        return 0.0
    error_rate = violations / total
    budget = 1.0 - target
    if budget <= 0.0:
        return BURN_RATE_CEILING if error_rate > 0.0 else 0.0
    return error_rate / budget


class SloTracker:
    """Folds per-query results into per-template SLO gauges."""

    def __init__(
        self,
        registry: MetricsRegistry,
        objective: SloObjective | None = None,
        overrides: dict[str, SloObjective] | None = None,
    ) -> None:
        self.objective = objective if objective is not None else SloObjective()
        self.overrides = dict(overrides or {})
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

    def objective_for(self, template_id: str) -> SloObjective:
        return self.overrides.get(template_id, self.objective)

    def observe(self, template_id: str, hit: bool, latency_ms: float) -> None:
        """Fold one finished query into its template's SLO gauges."""
        tally = self._tallies.get(template_id)
        if tally is None:
            tally = self._tallies[template_id] = _TemplateTally(
                [f.labels(template=template_id) for f in self._families]
            )
        objective = self.objective_for(template_id)
        tally.queries += 1
        if hit:
            tally.hits += 1
        if latency_ms <= objective.latency_objective_ms:
            tally.within_latency += 1
        *gauges, queries = tally.children
        queries.inc()
        for gauge, value in zip(gauges, tally.ratios(objective)):
            gauge.set(value)

    def snapshot(self) -> dict[str, Any]:
        """Per-template tallies and burn rates, JSON-able."""
        out: dict[str, Any] = {}
        for template_id, tally in sorted(self._tallies.items()):
            objective = self.objective_for(template_id)
            hit_ratio, hit_burn, latency_burn = tally.ratios(objective)
            out[template_id] = {
                "queries": tally.queries,
                "hits": tally.hits,
                "within_latency": tally.within_latency,
                "hit_ratio": hit_ratio,
                "hit_burn_rate": hit_burn,
                "latency_burn_rate": latency_burn,
                "objective": {
                    "target_hit_ratio": objective.target_hit_ratio,
                    "latency_objective_ms": objective.latency_objective_ms,
                    "latency_target_ratio": objective.latency_target_ratio,
                },
            }
        return out
