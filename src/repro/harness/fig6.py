"""Figure 6: the three active caching schemes compared.

Paper values (unlimited cache, array description)::

    First  (full semantic caching)          1236 ms   efficiency 0.593
    Second (containment + region containment) 1044 ms efficiency 0.544
    Third  (pure containment)               1081 ms   efficiency 0.511

Shape to reproduce: the *full* scheme has the best cache efficiency but
the *worst* response time — handling cache-intersecting queries costs
more (probe + a pricier remainder query + merge) than it saves, which
is the paper's headline finding.  The Second scheme edges out the Third
because region-containment consolidation keeps the cache tighter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.schemes import CachingScheme
from repro.harness.render import Result, render_table
from repro.harness.runner import ExperimentRunner

PAPER_RESPONSE_MS = {"First": 1236.0, "Second": 1044.0, "Third": 1081.0}
PAPER_EFFICIENCY = {"First": 0.593, "Second": 0.544, "Third": 0.511}

SCHEMES = (
    ("First", CachingScheme.FULL_SEMANTIC),
    ("Second", CachingScheme.REGION_CONTAINMENT),
    ("Third", CachingScheme.CONTAINMENT_ONLY),
)


@dataclass(frozen=True)
class Fig6Result(Result):
    response_ms: dict[str, float]
    efficiency: dict[str, float]

    def render(self) -> str:
        columns = [
            ("Scheme", str),
            ("resp ms", self.response_ms.get),
            ("paper ms", PAPER_RESPONSE_MS.get),
            ("efficiency", self.efficiency.get),
            ("paper eff", PAPER_EFFICIENCY.get),
        ]
        return render_table(
            "Figure 6: average response time of active caching schemes "
            "(unlimited cache, array description)",
            columns,
            [label for label, _ in SCHEMES],
        )


def run_fig6(runner: ExperimentRunner) -> Fig6Result:
    response_ms: dict[str, float] = {}
    efficiency: dict[str, float] = {}
    for label, scheme in SCHEMES:
        result = runner.run(scheme, "array", cache_fraction=None)
        response_ms[label] = result.stats.average_response_ms
        efficiency[label] = result.stats.average_cache_efficiency
    return Fig6Result(response_ms=response_ms, efficiency=efficiency)
