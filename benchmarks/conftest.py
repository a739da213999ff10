"""Benchmark suite fixtures.

Each ``bench_*`` file regenerates one table or figure of the paper
(see DESIGN.md's per-experiment index).  The reproduction tables are
printed and also written to ``benchmarks/results/<name>.txt`` so a
``--benchmark-only`` run leaves the full comparison on disk;
EXPERIMENTS.md records a reference run.

Headline numbers additionally flow through the shared
:class:`~repro.perf.reporter.BenchReporter` (the ``bench_report``
fixture): every bench writes a schema-valid
``results/<bench_id>.bench.json`` and appends to the repo-root
``BENCH_<bench_id>.json`` trajectory, which is what the CI perf job
gates against ``results/baselines/`` with ``python -m repro.perf
compare``.

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
from repro.perf.reporter import BenchReporter
from repro.persistence.atomic import atomic_write_text

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent


def _select_scale() -> ExperimentScale:
    name = os.environ.get("REPRO_SCALE", "default")
    factory = {
        "quick": ExperimentScale.quick,
        "default": ExperimentScale.default,
        "paper": ExperimentScale.paper,
    }.get(name)
    if factory is None:
        raise ValueError(
            f"REPRO_SCALE={name!r}; expected quick, default, or paper"
        )
    scale = factory()
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
    and asserts the simulated clock's pinned start, so repeated runs
    are comparable and the regression gate's noise bounds reflect
    machine noise only — not workload drift.
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
    """Factory for the one sanctioned result emitter.

    ``bench_report("fig5")`` returns a
    :class:`~repro.perf.reporter.BenchReporter` wired to this run's
    scale, the shared results directory, and the repo-root trajectory
    store; the bench records metrics and calls ``finish()``.
    """

    def make(bench_id: str) -> BenchReporter:
        RESULTS_DIR.mkdir(exist_ok=True)
        return BenchReporter(
            bench_id,
            scale=scale.name,
            results_dir=RESULTS_DIR,
            trajectory_dir=REPO_ROOT,
        )

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
