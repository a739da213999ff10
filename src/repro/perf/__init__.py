"""Unified bench telemetry and the bench gate.

Every benchmark under ``benchmarks/`` emits its headline numbers
through one :class:`~repro.perf.reporter.BenchReporter`, producing a
canonical JSON document (:mod:`repro.perf.schema`): bench id, run
metadata and one ``(unit, value)`` per metric.  Results land in three
places:

* ``benchmarks/results/<bench_id>.bench.json`` — the latest run;
* ``benchmarks/results/baselines/`` — the committed goldens the gate
  compares against;
* ``BENCH_<bench_id>.json`` at the repo root — an append-only
  trajectory, one entry per run, so the history is diffable across
  PRs.

The gate (``python -m repro.perf compare``) exits nonzero unless every
current result equals its golden exactly.  The numbers are the
simulated cost model's, so they change only when the code or the
model does; wall-clock performance is measured by wallbench instead.
"""

from repro.perf.compare import MetricComparison, compare_results
from repro.perf.reporter import BenchReporter
from repro.perf.schema import (
    SCHEMA_VERSION,
    BenchResult,
    Metric,
    PerfSchemaError,
)

__all__ = [
    "SCHEMA_VERSION",
    "BenchReporter",
    "BenchResult",
    "Metric",
    "MetricComparison",
    "PerfSchemaError",
    "compare_results",
]
