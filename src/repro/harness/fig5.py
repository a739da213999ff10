"""Figure 5: average response time under the proxy configurations.

Paper shape (Section 4.2, Figure 5), over the first 10,000 queries:

* NC (no cache) slowest, a bit over 2 seconds, flat in cache size;
* PC around 1.4 s (~30% better than NC);
* active caching around 1.2 s, best at every size;
* the R-tree description (ACR) does *not* beat the array (ACNR) and is
  sometimes slightly slower;
* response time barely improves with cache size (maintenance cost
  offsets efficiency gains).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.schemes import CachingScheme
from repro.harness.render import Result, fraction_columns, render_table
from repro.harness.runner import ExperimentRunner

PAPER_SERIES_NOTES = {
    "NC": "just over 2000 ms, flat",
    "PC": "about 1400 ms",
    "ACNR": "about 1200 ms",
    "ACR": "about 1200 ms, never faster than ACNR",
}

# The four plotted series: (label, scheme, description kind).
SERIES = (
    ("ACR", CachingScheme.FULL_SEMANTIC, "rtree"),
    ("ACNR", CachingScheme.FULL_SEMANTIC, "array"),
    ("PC", CachingScheme.PASSIVE, "array"),
    ("NC", CachingScheme.NO_CACHE, "array"),
)


@dataclass(frozen=True)
class Fig5Result(Result):
    """response_ms[series_label][cache_fraction]"""

    response_ms: dict[str, dict[float, float]]

    def render(self) -> str:
        rows = [(label, self.response_ms[label]) for label, _, _ in SERIES]
        return render_table(
            "Figure 5: average response time (ms) of the first "
            "N trace queries",
            fraction_columns("Series", rows[0][1]),
            rows,
        )


def run_fig5(runner: ExperimentRunner) -> Fig5Result:
    response_ms: dict[str, dict[float, float]] = {}
    for label, scheme, kind in SERIES:
        series: dict[float, float] = {}
        for fraction in runner.scale.cache_fractions:
            result = runner.run(scheme, kind, fraction)
            series[fraction] = result.stats.average_response_ms
        response_ms[label] = series
    return Fig5Result(response_ms=response_ms)
