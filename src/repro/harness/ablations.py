"""Ablations backing the paper's two micro-claims.

1. **Checking time** (Section 4.2): "the cache checking time with or
   without the R-tree index is always under 100 milliseconds", and
   "the maintenance of the R-tree index is more costly than that of an
   array".  :func:`run_description_ablation` measures, per query, the
   *real* wall-clock description-probe time under both implementations
   plus the simulated check and maintenance charges.

2. **Remainder tradeoff** (Section 3.2): whether shipping a remainder
   query beats re-fetching the whole result depends on the balance
   between saved transfer and the remainder's extra server cost.
   :func:`run_remainder_ablation` replays an overlap-heavy trace under
   the full-semantic scheme and the region-containment scheme (which
   forwards whole queries on general overlap) and reports server time,
   bytes shipped from the origin, and response time for each.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.schemes import CachingScheme
from repro.harness.config import ExperimentScale
from repro.harness.render import Result, render_table
from repro.harness.runner import ExperimentRunner

DESCRIPTIONS = ("array", "rtree")

#: Overlap handling compared by the remainder ablation.
OVERLAP_HANDLING = {
    "remainder": CachingScheme.FULL_SEMANTIC,
    "forward-whole": CachingScheme.REGION_CONTAINMENT,
}


@dataclass(frozen=True)
class DescriptionAblationResult(Result):
    """Array vs R-tree cache description measurements."""

    max_check_wall_ms: dict[str, float]
    mean_check_sim_ms: dict[str, float]
    mean_maintenance_sim_ms: dict[str, float]
    response_ms: dict[str, float]

    def render(self, wall_clock: bool = True) -> str:
        """The table; without the ``wall_clock`` column it reads the
        same on every run (the committed bench table)."""
        columns = [("Description", str)]
        if wall_clock:
            columns.append(("max real check ms", self.max_check_wall_ms.get))
        columns += [
            ("mean sim check ms", self.mean_check_sim_ms.get),
            ("mean sim maint ms", self.mean_maintenance_sim_ms.get),
            ("avg response ms", self.response_ms.get),
        ]
        return render_table(
            "Ablation: cache description (paper claim: checking < 100 ms "
            "real time; R-tree maintenance costlier than array)",
            columns,
            DESCRIPTIONS,
        )


def run_description_ablation(
    runner: ExperimentRunner,
) -> DescriptionAblationResult:
    max_wall: dict[str, float] = {}
    mean_check: dict[str, float] = {}
    mean_maint: dict[str, float] = {}
    response: dict[str, float] = {}
    for kind in DESCRIPTIONS:
        result = runner.run(
            CachingScheme.FULL_SEMANTIC, kind, cache_fraction=None
        )
        stats = result.stats
        steps = stats.average_step_ms()
        max_wall[kind] = stats.max_check_wall_ms()
        mean_check[kind] = steps.get("check", 0.0)
        mean_maint[kind] = steps.get("maintenance", 0.0)
        response[kind] = stats.average_response_ms
    return DescriptionAblationResult(
        max_check_wall_ms=max_wall,
        mean_check_sim_ms=mean_check,
        mean_maintenance_sim_ms=mean_maint,
        response_ms=response,
    )


@dataclass(frozen=True)
class RemainderAblationResult(Result):
    """Remainder queries vs whole-query forwarding on overlaps."""

    response_ms: dict[str, float]
    origin_bytes: dict[str, float]
    origin_ms: dict[str, float]
    efficiency: dict[str, float]

    def render(self) -> str:
        columns = [
            ("Overlap handling", str),
            ("avg response ms", self.response_ms.get),
            ("avg origin ms", self.origin_ms.get),
            ("avg origin KB", lambda label: self.origin_bytes[label] / 1024.0),
            ("efficiency", self.efficiency.get),
        ]
        return render_table(
            "Ablation: remainder queries vs whole-query forwarding on an "
            "overlap-heavy trace (paper Section 3.2 tradeoff)",
            columns,
            OVERLAP_HANDLING,
        )


def run_remainder_ablation(
    scale: ExperimentScale | None = None,
) -> RemainderAblationResult:
    """Replay an overlap-heavy variant of the trace both ways."""
    scale = scale or ExperimentScale.default()
    overlap_heavy = replace(
        scale,
        trace=replace(
            scale.trace, p_repeat=0.1, p_zoom=0.1, p_pan=0.45, p_zoom_out=0.0
        ),
    )
    runner = ExperimentRunner(overlap_heavy)
    response: dict[str, float] = {}
    origin_bytes: dict[str, float] = {}
    origin_ms: dict[str, float] = {}
    efficiency: dict[str, float] = {}
    for label, scheme in OVERLAP_HANDLING.items():
        stats = runner.run(scheme, "array", cache_fraction=None).stats
        steps = stats.average_step_ms()
        response[label] = stats.average_response_ms
        origin_ms[label] = steps.get("origin", 0.0)
        origin_bytes[label] = (
            sum(r.origin_bytes for r in stats.records) / len(stats.records)
            if stats.records
            else 0.0
        )
        efficiency[label] = stats.average_cache_efficiency
    return RemainderAblationResult(
        response_ms=response,
        origin_bytes=origin_bytes,
        origin_ms=origin_ms,
        efficiency=efficiency,
    )
