"""Benchmark suite fixtures.

Each ``bench_*`` file regenerates one table or figure of the paper
(see DESIGN.md's per-experiment index).  The reproduction tables are
printed and also written to ``benchmarks/results/<name>.txt`` so a
``--benchmark-only`` run leaves the full comparison on disk;
EXPERIMENTS.md records a reference run.

Headline numbers go through the ``bench_report`` fixture, a
:class:`BenchRecorder`: ``finish()`` writes
``results/<bench_id>.bench.json`` and then asserts that the numbers
equal the committed golden ``results/baselines/<bench_id>.bench.json``
when that golden was recorded at the run's scale, so the bench run is
the gate.  The numbers are the simulated cost model's, the same on
every run of the same code; after an intended change, copy the new
document over the golden.  Nothing outside ``results/`` is written.

Scale selection: set ``REPRO_SCALE`` to ``quick`` / ``default`` /
``paper`` (default: ``default``).  All scales share the calibrated cost
models; ``paper`` replays the full 11,323-query trace and takes tens of
minutes.  Set ``REPRO_PROFILE=1`` to run every harness replay with the
hot-path profiler on; each run then writes a ``profile-<label>.json``
artifact next to the reproduction tables.  Set ``REPRO_TELEMETRY=1``
to turn on the live telemetry recorders; each harness replay then
writes ``timeseries-<label>.json`` and ``events-<label>.json``
artifacts too.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import replace
from pathlib import Path

import pytest

from repro.harness.config import ExperimentScale
from repro.harness.runner import ExperimentRunner
from repro.network.clock import SimulatedClock
from repro.obs.wallclock import utc_timestamp
from repro.persistence.atomic import atomic_write_text

RESULTS_DIR = Path(__file__).parent / "results"

#: The ``schema_version`` of a ``*.bench.json`` document (DESIGN.md).
SCHEMA_VERSION = 2


class BenchRecorder:
    """One bench's headline numbers, written and held to the golden.

    ::

        report = bench_report("fig5")
        report.metric("nc_response_ms", 2029.7, unit="ms")
        report.finish()
    """

    def __init__(
        self, bench_id: str, scale: str, results_dir: Path = RESULTS_DIR
    ) -> None:
        self.bench_id = bench_id
        self.scale = scale
        self.results_dir = results_dir
        self.metrics: dict[str, dict] = {}

    def metric(self, name: str, value: float, unit: str) -> None:
        if name in self.metrics:
            raise ValueError(
                f"bench {self.bench_id!r}: duplicate metric {name!r}"
            )
        self.metrics[name] = {"unit": unit, "value": float(value)}

    def finish(self) -> None:
        """Write the document, print it, and assert it equals the golden
        (every ``(unit, value)``, one ulp included) when the golden was
        recorded at this run's scale."""
        document = {
            "schema_version": SCHEMA_VERSION,
            "bench_id": self.bench_id,
            "run": {"scale": self.scale, "timestamp_utc": utc_timestamp()},
            "metrics": self.metrics,
        }
        self.results_dir.mkdir(parents=True, exist_ok=True)
        name = f"{self.bench_id}.bench.json"
        atomic_write_text(
            self.results_dir / name,
            json.dumps(document, indent=2, sort_keys=True) + "\n",
        )
        print(f"\nbench {self.bench_id} (scale={self.scale})")
        for metric, entry in self.metrics.items():
            print(f"  {metric:<28} {entry['value']:>14g} {entry['unit']}")
        golden_path = self.results_dir / "baselines" / name
        if not golden_path.exists():
            return
        golden = json.loads(golden_path.read_text(encoding="utf-8"))
        golden_scale = golden["run"]["scale"]
        if golden_scale != self.scale:
            print(f"  golden is at scale {golden_scale}: not compared")
            return
        differences = _differences(golden["metrics"], self.metrics)
        if differences:
            raise AssertionError(
                f"bench {self.bench_id} differs from {golden_path}:\n"
                + "\n".join(differences)
                + f"\nafter an intended change: cp {self.results_dir / name} "
                f"{golden_path.parent}/"
            )


def _differences(golden: dict, current: dict) -> list[str]:
    """One line per metric whose ``(unit, value)`` is not the golden's."""

    def side(entry: dict | None) -> str:
        if entry is None:
            return "missing"
        return f"{entry['value']!r} {entry['unit']}"

    return [
        f"  {name}: golden {side(golden.get(name))}, "
        f"this run {side(current.get(name))}"
        for name in sorted(golden.keys() | current.keys())
        if golden.get(name) != current.get(name)
    ]


def _select_scale() -> ExperimentScale:
    scale = ExperimentScale.named(os.environ.get("REPRO_SCALE", "default"))
    if os.environ.get("REPRO_PROFILE") in ("1", "true"):
        scale = scale.with_observability(
            replace(scale.obs, profiling=True)
        )
    if os.environ.get("REPRO_TELEMETRY") in ("1", "true"):
        scale = scale.with_observability(
            replace(scale.obs, timeseries=True, events=True)
        )
    return scale


@pytest.fixture(autouse=True)
def deterministic_run():
    """Pin every per-bench source of run-to-run drift.

    Seeds the stdlib and numpy global RNGs (third-party code may draw
    from them; all first-party randomness is already seeded locally)
    and asserts the simulated clock's pinned start, so every run
    reproduces the committed goldens exactly.
    """
    random.seed(0)
    try:
        import numpy
    except ImportError:
        pass
    else:
        numpy.random.seed(0)
    assert SimulatedClock().now_ms == 0, (
        "simulated clock must start at t=0 for comparable bench runs"
    )
    yield


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    return _select_scale()


@pytest.fixture(scope="session")
def runner(scale) -> ExperimentRunner:
    # Per-run metrics snapshots land next to the reproduction tables.
    RESULTS_DIR.mkdir(exist_ok=True)
    return ExperimentRunner(scale, snapshot_dir=RESULTS_DIR)


@pytest.fixture(scope="session")
def bench_report(scale):
    """``bench_report("fig5")``: a :class:`BenchRecorder` at this run's
    scale; the bench records metrics and calls ``finish()``."""

    def make(bench_id: str) -> BenchRecorder:
        return BenchRecorder(bench_id, scale.name)

    return make


@pytest.fixture(scope="session")
def record_result():
    """Print a reproduction table and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        print()
        print(text)
        atomic_write_text(RESULTS_DIR / f"{name}.txt", text + "\n")

    return write


@pytest.fixture(scope="session")
def record_json():
    """Persist a machine-readable snapshot under results/<name>.json."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(name: str, payload: dict) -> None:
        atomic_write_text(
            RESULTS_DIR / f"{name}.json",
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        )

    return write
