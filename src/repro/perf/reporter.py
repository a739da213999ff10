"""The one way benchmarks report results.

A :class:`BenchReporter` collects metrics during a bench, then
:meth:`~BenchReporter.finish` validates them against the canonical
schema, writes ``<results_dir>/<bench_id>.bench.json`` (atomically),
appends a compact entry to the ``BENCH_<bench_id>.json`` trajectory at
the repo root, and prints a one-table summary.  ``bench_*.py`` files
do not print results themselves — all human- and machine-readable
output funnels through here, so every bench stays comparable and
gateable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.wallclock import utc_timestamp
from repro.perf.schema import BenchResult, Metric
from repro.persistence.atomic import atomic_write_text

#: Entries kept per trajectory file; the oldest are dropped first, so
#: a long-lived checkout does not grow the file without bound.
TRAJECTORY_LIMIT = 200


class BenchReporter:
    """Collects one benchmark's metrics and emits the canonical result.

    ::

        report = BenchReporter("fig5", scale="quick",
                               results_dir=RESULTS_DIR,
                               trajectory_dir=REPO_ROOT)
        report.metric("nc_response_ms", 2081.4, unit="ms")
        report.finish()
    """

    def __init__(
        self,
        bench_id: str,
        scale: str,
        results_dir: str | Path,
        trajectory_dir: str | Path | None = None,
        run_info: dict[str, Any] | None = None,
    ) -> None:
        self.bench_id = bench_id
        self.scale = scale
        self.results_dir = Path(results_dir)
        self.trajectory_dir = (
            None if trajectory_dir is None else Path(trajectory_dir)
        )
        self.run_info = dict(run_info or {})
        self._metrics: list[Metric] = []
        self._finished = False

    def metric(self, name: str, value: float, unit: str) -> None:
        """Record one metric."""
        self._metrics.append(Metric(name, unit, float(value)))

    def result(self) -> BenchResult:
        """The validated result document for what was recorded so far."""
        return BenchResult(
            bench_id=self.bench_id,
            run={
                "scale": self.scale,
                "timestamp_utc": utc_timestamp(),
                **self.run_info,
            },
            metrics=tuple(self._metrics),
        )

    def finish(self) -> BenchResult:
        """Validate, persist, append the trajectory, print the summary."""
        if self._finished:
            raise RuntimeError(
                f"bench {self.bench_id!r}: finish() called twice"
            )
        result = self.result()  # validates via the schema dataclasses
        self._finished = True
        self.results_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            self.results_dir / f"{self.bench_id}.bench.json",
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n",
        )
        if self.trajectory_dir is not None:
            self._append_trajectory(result)
        print()
        print(self._render(result))
        return result

    # ------------------------------------------------------- internals
    def _append_trajectory(self, result: BenchResult) -> None:
        assert self.trajectory_dir is not None
        path = self.trajectory_dir / f"BENCH_{self.bench_id}.json"
        entries: list[dict[str, Any]] = []
        if path.exists():
            try:
                loaded = json.loads(path.read_text(encoding="utf-8"))
                if isinstance(loaded, list):
                    entries = loaded
            except (OSError, json.JSONDecodeError):
                # A damaged trajectory never fails a bench run; the
                # history restarts from this entry.
                entries = []
        entries.append(
            {
                "run": dict(result.run),
                "metrics": {
                    m.name: {"median": m.value, "unit": m.unit}
                    for m in result.metrics
                },
            }
        )
        atomic_write_text(
            path,
            json.dumps(entries[-TRAJECTORY_LIMIT:], indent=2) + "\n",
        )

    @staticmethod
    def _render(result: BenchResult) -> str:
        header = (
            f"bench {result.bench_id} "
            f"(scale={result.run.get('scale', '?')})"
        )
        lines = [header, "-" * len(header)]
        width = max(len(m.name) for m in result.metrics)
        for m in result.metrics:
            lines.append(f"{m.name:<{width}}  {m.value:>14g} {m.unit}")
        return "\n".join(lines)
