"""The equality gate.

Pairs a *current* bench result with its committed *baseline* (a
golden).  The benches report the simulated cost model's numbers, which
do not move from run to run, so the two documents must agree exactly:
the same ``run.scale`` and the same ``{name: (unit, value)}``.  A
changed value fails however small the change (one ulp included), and
so does a unit change, a metric missing from the current run, or one
the golden lacks.  After an intended change the golden is regenerated
by copying the current document over it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.schema import BenchResult


@dataclass(frozen=True)
class MetricComparison:
    """One metric's two sides: ``(unit, value)`` from the baseline and
    from the current run, or ``None`` where that side lacks it.  The
    ``<scale>`` pseudo-metric compares the two runs' scales."""

    bench_id: str
    name: str
    baseline: object
    current: object

    @property
    def regressed(self) -> bool:
        return self.baseline != self.current

    def format(self) -> str:
        verdict = "REGRESSED" if self.regressed else "ok"
        return (
            f"{self.bench_id}/{self.name}: {verdict} baseline "
            f"{_side(self.baseline)} -> current {_side(self.current)}"
        )


def _side(side: object) -> str:
    if side is None:
        return "missing"
    if isinstance(side, tuple):
        unit, value = side
        return f"{value!r} {unit}"
    return repr(side)


def compare_results(
    baseline: BenchResult, current: BenchResult
) -> list[MetricComparison]:
    """Compare one bench's current run against its golden.

    Returns a lone ``<scale>`` comparison when the scales differ
    (numbers from different scales are not comparable), else one
    comparison per metric name either document carries.
    """
    if baseline.bench_id != current.bench_id:
        raise ValueError(
            f"cannot compare bench {current.bench_id!r} against "
            f"baseline {baseline.bench_id!r}"
        )
    bench_id = baseline.bench_id
    if baseline.scale != current.scale:
        return [
            MetricComparison(
                bench_id, "<scale>", baseline.scale, current.scale
            )
        ]
    base, cur = baseline.values(), current.values()
    return [
        MetricComparison(bench_id, name, base.get(name), cur.get(name))
        for name in sorted(base.keys() | cur.keys())
    ]
