#!/usr/bin/env python
"""Capture every harness experiment's output at a reduced scale as JSON.

``capture()`` runs the ten experiments of ``repro.harness`` — the
Section 4.1 trace profile, Table 1, Figure 5, Figure 6, the description
and remainder ablations, fault availability, crash recovery, saturation
and shard availability — on a 60-query quick-scale trace with small
load shapes, and returns each result's ``to_dict()`` and ``render()``.

``tests/harness/golden/harness.json`` is this tool's output at the
commit *before* the results were made to serialize from their own
fields and render from one column list;
``tests/harness/test_harness_golden.py`` compares ``capture()`` against
it.  Regenerating the golden is re-running this tool by hand::

    python tools/harness_golden.py > tests/harness/golden/harness.json

The description ablation's ``max_check_wall_ms`` is a wall-clock
reading; it is set to zero before the result is serialized or
rendered.  Everything else runs on the simulated clock and is seeded.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys
from typing import Any

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.harness.ablations import (  # noqa: E402
    run_description_ablation,
    run_remainder_ablation,
)
from repro.harness.config import ExperimentScale  # noqa: E402
from repro.harness.fault_availability import (  # noqa: E402
    run_fault_availability,
)
from repro.harness.fig5 import run_fig5  # noqa: E402
from repro.harness.fig6 import run_fig6  # noqa: E402
from repro.harness.recovery import run_recovery  # noqa: E402
from repro.harness.runner import ExperimentRunner  # noqa: E402
from repro.harness.saturation import run_saturation  # noqa: E402
from repro.harness.shard_availability import (  # noqa: E402
    run_shard_availability,
)
from repro.harness.table1 import run_table1  # noqa: E402
from repro.harness.trace_stats import run_trace_stats  # noqa: E402
from repro.workload.closed_loop import ClosedLoopConfig  # noqa: E402

TRACE_LENGTH = 60


def capture() -> dict[str, Any]:
    scale = ExperimentScale.quick().with_trace_length(TRACE_LENGTH)
    runner = ExperimentRunner(scale)
    description = run_description_ablation(runner)
    description = dataclasses.replace(
        description,
        max_check_wall_ms={
            kind: 0.0 for kind in description.max_check_wall_ms
        },
    )
    results = {
        "trace_stats": run_trace_stats(runner),
        "table1": run_table1(runner),
        "fig5": run_fig5(runner),
        "fig6": run_fig6(runner),
        "description_ablation": description,
        "remainder_ablation": run_remainder_ablation(scale),
        "fault_availability": run_fault_availability(runner),
        "recovery": run_recovery(runner),
        "saturation": run_saturation(
            runner,
            ladder=(4, 32, 200),
            load=ClosedLoopConfig(
                queries_per_client=2, think_time_ms=4_000.0, seed=339
            ),
        ),
        "shard_availability": run_shard_availability(
            runner,
            shard_counts=(1, 2),
            crash_ms=6_000.0,
            load=ClosedLoopConfig(
                n_clients=10,
                queries_per_client=4,
                think_time_ms=1_500.0,
                seed=339,
            ),
        ),
    }
    return {
        name: {"dict": result.to_dict(), "render": result.render()}
        for name, result in results.items()
    }


def render(captured: dict[str, Any]) -> str:
    """Canonical JSON, one experiment per section, its table one line
    per row, so a drifted golden diffs by row."""
    sections = []
    for name in sorted(captured):
        section = captured[name]
        body = json.dumps(section["dict"], sort_keys=True, indent=1)
        table = ",\n".join(
            json.dumps(line) for line in section["render"].split("\n")
        )
        sections.append(
            f"{json.dumps(name)}:{{\n\"dict\":{body},\n"
            f"\"render\":[\n{table}\n]}}"
        )
    return "{\n" + ",\n".join(sections) + "\n}\n"


def main() -> int:
    sys.stdout.write(render(capture()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
