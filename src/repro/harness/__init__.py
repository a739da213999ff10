"""The experiment harness: regenerates every table and figure.

One module per experiment, mirroring DESIGN.md's per-experiment index:

* :mod:`repro.harness.trace_stats` — the Section 4.1 workload profile;
* :mod:`repro.harness.table1` — Table 1, cache efficiency of AC vs PC
  across cache sizes;
* :mod:`repro.harness.fig5` — Figure 5, response time of NC / PC /
  ACR / ACNR across cache sizes;
* :mod:`repro.harness.fig6` — Figure 6, response time of the three
  active schemes;
* :mod:`repro.harness.ablations` — the checking-time claim (< 100 ms,
  array vs R-tree) and the remainder-query tradeoff discussion;
* :mod:`repro.harness.fault_availability` — answered fraction per
  scheme under an origin outage (the resilience layer's headline);
* :mod:`repro.harness.recovery` — post-crash hit ratio, warm restart
  (journal + snapshot recovery) vs cold, per scheme;
* :mod:`repro.harness.saturation` — throughput / latency / shed
  fraction across a closed-loop client ladder (graceful saturation
  under admission control);
* :mod:`repro.harness.shard_availability` — answered fraction and
  post-crash hit ratio across a shard ladder when the busiest shard
  crashes mid-trace (failover + warm handoff vs the no-failover
  control).

Every experiment takes an :class:`~repro.harness.runner.ExperimentRunner`
built for an :class:`~repro.harness.config.ExperimentScale`, so the same
code runs at paper scale (11,323 queries) or at the smaller default
scale used by the benchmark suite; only the remainder ablation takes the
scale itself, because it builds its own overlap-heavy runner.

Each result states its facts once (:mod:`repro.harness.render`):
``to_dict()`` is the result's own dataclass fields plus the derived
values it names, and ``render()`` is one ``(header, value)`` column
list that ``render_table`` reads.
"""

from repro.harness.config import ExperimentScale
from repro.harness.runner import ExperimentRunner, RunResult
from repro.harness.render import render_table

__all__ = ["ExperimentRunner", "ExperimentScale", "RunResult", "render_table"]
