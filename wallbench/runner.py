"""One workload, start to finish, in the current process.

Order: set-up (origin, templates, generated queries — built
``SETUP_REPEATS`` times when set-up time is reported, the median
kept), one discarded warm-up on a throwaway deployment,
``gc.collect(); gc.freeze()``, the timed passes, then — when layer
metrics are wanted — the traced, counting and everything-on passes,
and last the answer oracle.  Timed passes always run before any
wrapper is installed.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from wallbench.calibrate import calibrated_seconds
from wallbench.metrics import (
    UNITS,
    calibrated_qps,
    exact_metrics,
    profile_metrics,
    span_metrics,
    timing_metrics,
)
from wallbench.oracle import OracleReport, check_answers
from wallbench.passes import (
    PassResult,
    counting_pass,
    full_on_instrumentation,
    timed_pass,
    traced_pass,
)
from wallbench.workloads import WORKLOADS, Environment, Workload

#: Queries of the discarded warm-up (lazy imports, regex/parse caches).
WARMUP_QUERIES = 200


#: Builds per run when ``setup_s`` is reported; the median is kept.
SETUP_REPEATS = 3

#: Timed passes per run.  Two, not more: the benchmark driver makes
#: over a hundred runs under one wall-clock cap.
DEFAULT_PASSES = 2


@dataclass
class WorkloadReport:
    """Everything one run of one workload measured."""

    workload: str
    seed: int
    queries: int
    passes: int
    attempted: int
    failed: int
    correct: bool
    metrics: dict[str, float]
    problems: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "queries": self.queries,
            "passes": self.passes,
            "latency_samples": self.queries,
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": self.correct,
            "problems": self.problems,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "load": "closed loop, 1 client, no think time"
            + (
                "; loopback, HTTP/1.0, one connection per request"
                if WORKLOADS[self.workload].deployment == "http"
                else ""
            ),
            "metrics": {
                name: {"value": value, "unit": UNITS[name]}
                for name, value in self.metrics.items()
            },
        }


def _warm_up(environment: Environment) -> None:
    target = environment.target()
    try:
        for index in range(min(WARMUP_QUERIES, len(environment))):
            target.issue(index)
    finally:
        target.close()


def _set_up(
    workload: Workload,
    seed: int,
    out_dir: Path,
    queries: int | None,
    repeats: int,
) -> tuple[Environment, float]:
    """Build the environment; returns it and calibrated set-up seconds
    (median build plus the warm-up)."""
    build_s = []
    environment = None
    for _ in range(repeats):
        # Drop the previous build first, so peak memory stays one build.
        environment = None
        gc.collect()
        seconds, environment = calibrated_seconds(
            lambda: Environment(workload, seed, out_dir, queries)
        )
        build_s.append(seconds)
    warm_s, _ = calibrated_seconds(lambda: _warm_up(environment))
    return environment, statistics.median(build_s) + warm_s


def passes_for(workload: Workload, seconds: float | None) -> int:
    """Timed passes that fit a ``--seconds`` budget: whole passes at the
    workload's nominal pass time, at least one (the query count defines
    the workload), at most ``DEFAULT_PASSES``.  Deliberately not
    measured, so two runs with the same budget time the same passes."""
    if seconds is None:
        return DEFAULT_PASSES
    fit = int(seconds / workload.pass_seconds + 1e-9)
    return max(1, min(DEFAULT_PASSES, fit))


def _problems(
    environment: Environment,
    checked: list[PassResult],
    oracle: OracleReport,
) -> list[str]:
    """Everything that makes this run's answers wrong, in words."""
    problems = [
        f"query {index} {environment.params[index]} was not served"
        for result in checked
        for index in result.not_served
    ]
    problems += oracle.mismatches
    problems += [
        f"warm restart restored {result.restart[0]} of "
        f"{result.restart[1]} live entries"
        for result in checked
        if result.restart is not None
        and result.restart[0] != result.restart[1]
    ]
    return problems


def run_workload(
    name: str,
    seed: int,
    out_dir: Path,
    *,
    end_to_end: bool = True,
    layers: bool = True,
    passes: int = DEFAULT_PASSES,
    queries: int | None = None,
    import_s: float = 0.0,
) -> WorkloadReport:
    """Run one workload and compute the requested metric families.

    Layer metrics need one timed pass as their untraced reference;
    set-up is repeated only when ``setup_s`` is going to be reported.
    """
    workload = WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    environment, setup_s = _set_up(
        workload, seed, out_dir, queries, SETUP_REPEATS if end_to_end else 1
    )
    gc.collect()
    gc.freeze()
    timed = [
        timed_pass(environment) for _ in range(passes if end_to_end else 1)
    ]
    metrics = timing_metrics(timed)
    metrics["setup_s"] = import_s + setup_s
    # Before any traced pass allocates its span list.
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    checked = list(timed)

    if layers:
        traced, recorder, counts = traced_pass(environment)
        recorder.write_jsonl(out_dir / f"trace-{name}.jsonl")
        checked.append(traced)
        answers = traced
        metrics.update(span_metrics(traced, recorder, counts))
        metrics["trace.overhead_ratio"] = (
            1.0 - calibrated_qps([traced]) / metrics["throughput_qps"]
        )
        metrics.update(profile_metrics(*counting_pass(environment)))
        metrics["obs.full_on_cost_ratio"] = 0.0
        if workload.full_on:
            instrumentation = full_on_instrumentation()
            full_on = timed_pass(environment, instrumentation)
            checked.append(full_on)
            (out_dir / f"profile-{name}.json").write_text(
                json.dumps(instrumentation.profiler.snapshot(), indent=1)
            )
            # Against one default pass, not the best of several.
            metrics["obs.full_on_cost_ratio"] = (
                1.0 - calibrated_qps([full_on]) / calibrated_qps(timed[:1])
            )
    else:
        answers = timed[-1]

    oracle = check_answers(environment, answers.answers, answers.rows_of)
    metrics.update(exact_metrics(checked, oracle))
    problems = _problems(environment, checked, oracle)
    return WorkloadReport(
        workload=name,
        seed=seed,
        queries=len(environment),
        passes=len(timed),
        attempted=sum(result.queries for result in checked),
        failed=sum(len(result.not_served) for result in checked)
        + len(oracle.mismatches),
        correct=not problems,
        metrics=metrics,
        problems=problems,
    )
