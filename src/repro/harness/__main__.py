"""Run every reproduction experiment and print the tables.

Usage::

    python -m repro.harness [quick|default|paper]

Regenerates, in order: the Section 4.1 trace profile, Table 1,
Figure 5, Figure 6, the two ablations, the fault-availability
table (origin outage + resilience layer), the crash-recovery
table (warm vs cold restart), the saturation ladder (graceful
degradation under closed-loop overload), and the shard-availability
table (mid-trace shard crash, failover vs control).  The same code
backs the
``benchmarks/`` suite; this entry point is for eyeballing a full run
without pytest.
"""

from __future__ import annotations

import sys

from repro.harness.ablations import (
    run_description_ablation,
    run_remainder_ablation,
)
from repro.harness.config import ExperimentScale
from repro.harness.fault_availability import run_fault_availability
from repro.harness.fig5 import run_fig5
from repro.harness.fig6 import run_fig6
from repro.harness.recovery import run_recovery
from repro.harness.runner import ExperimentRunner
from repro.harness.saturation import run_saturation
from repro.harness.shard_availability import run_shard_availability
from repro.harness.table1 import run_table1
from repro.harness.trace_stats import run_trace_stats
from repro.obs.wallclock import Stopwatch


def main(argv: list[str]) -> int:
    try:
        scale = ExperimentScale.named(argv[0] if argv else "default")
    except ValueError as exc:
        print(exc)
        return 2
    print(f"Scale: {scale.name} ({scale.trace.n_queries} queries, "
          f"{scale.sky.n_objects} objects, measuring first "
          f"{scale.measure_queries})")
    runner = ExperimentRunner(scale)

    experiments = [
        ("trace profile", lambda: run_trace_stats(runner)),
        ("Table 1", lambda: run_table1(runner)),
        ("Figure 5", lambda: run_fig5(runner)),
        ("Figure 6", lambda: run_fig6(runner)),
        ("description ablation", lambda: run_description_ablation(runner)),
        ("remainder ablation", lambda: run_remainder_ablation(scale)),
        ("fault availability", lambda: run_fault_availability(runner)),
        ("crash recovery", lambda: run_recovery(runner)),
        ("saturation", lambda: run_saturation(runner)),
        ("shard availability", lambda: run_shard_availability(runner)),
    ]
    for label, run in experiments:
        watch = Stopwatch()
        result = run()
        print()
        print(result.render())
        print(f"[{label}: {watch.elapsed_s:.1f}s]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
