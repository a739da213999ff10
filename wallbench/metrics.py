"""The metric catalogue and how each metric is computed from the passes.

``END_TO_END`` and ``PER_LAYER`` are the single list of names and
units; ``BENCHMARK.json`` repeats them (``wallbench/tests`` checks the
two agree).  README.md gives every definition in prose.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import repro

import wallbench
from wallbench.calibrate import window_scales
from wallbench.oracle import OracleReport
from wallbench.passes import PassResult
from wallbench.spans import (
    END,
    NAME,
    OBS_RESPOND_SPANS,
    QUERY,
    START,
    SpanRecorder,
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"


#: The 16 packages a query can pass through.
SERVE_PACKAGES = (
    "admission", "cluster", "core", "faults", "geometry", "locking",
    "network", "obs", "persistence", "relational", "server", "skydata",
    "sqlparser", "templates", "udf", "webapp",
)

END_TO_END = (
    Metric("throughput_qps", "1/s", "higher"),
    Metric("latency_p50_us", "us", "lower"),
    Metric("latency_p99_us", "us", "lower"),
    Metric("setup_s", "s", "lower"),
    Metric("peak_rss_mb", "MiB", "lower"),
)

PER_LAYER = (
    # Exact for a given seed (``wallbench.EXACT_METRICS``).
    Metric("cache_efficiency", "ratio", "higher"),
    Metric("origin_contact_ratio", "ratio", "lower"),
    Metric("sim_response_ms", "ms", "lower"),
    Metric("failed_ratio", "ratio", "lower"),
    Metric("oracle.function_columns_stale_ratio", "ratio", "lower"),
    Metric("templates.bind_us", "us", "lower"),
    Metric("core.proxy.self_us", "us", "lower"),
    Metric("core.description.probe_us", "us", "lower"),
    Metric("core.description.candidates_per_probe", "count", "lower"),
    Metric("core.description.useful_ratio", "ratio", "higher"),
    Metric("core.description.update_us", "us", "lower"),
    Metric("geometry.relate_us", "us", "lower"),
    Metric("geometry.relate_pairs_per_query", "count", "lower"),
    Metric("core.cache.exact_us", "us", "lower"),
    Metric("core.cache.store_us", "us", "lower"),
    Metric("core.cache.evictions_per_query", "count", "lower"),
    Metric("core.cache.answered_ratio", "ratio", "higher"),
    Metric("core.cache.entries_final", "count", "lower"),
    Metric("core.cache.bytes_final", "bytes", "lower"),
    Metric("core.evaluation.local_eval_us", "us", "lower"),
    Metric("core.evaluation.tuples_read_per_query", "count", "lower"),
    Metric("core.evaluation.useful_ratio", "ratio", "higher"),
    Metric("relational.result.merge_us", "us", "lower"),
    Metric("core.remainder.build_us", "us", "lower"),
    Metric("core.remainder.holes_per_remainder", "count", "lower"),
    Metric("server.origin.execute_us", "us", "lower"),
    Metric("server.origin.calls_per_query", "count", "lower"),
    Metric("server.origin.rows_per_call", "count", "lower"),
    Metric("faults.gateway.self_us", "us", "lower"),
    Metric("faults.gateway.retries_per_query", "count", "lower"),
    Metric("persistence.append_us", "us", "lower"),
    Metric("persistence.records_per_query", "count", "lower"),
    Metric("persistence.checkpoint_ms", "ms", "lower"),
    Metric("persistence.checkpoints", "count", "lower"),
    Metric("persistence.write_amplification", "ratio", "lower"),
    Metric("persistence.recover_ms", "ms", "lower"),
    Metric("persistence.restored_ratio", "ratio", "higher"),
    Metric("obs.respond_us", "us", "lower"),
    Metric("obs.full_on_cost_ratio", "ratio", "lower"),
    Metric("webapp.client.self_us", "us", "lower"),
    Metric("webapp.proxy_app.self_us", "us", "lower"),
    Metric("webapp.http_origin.self_us", "us", "lower"),
    Metric("webapp.origin_app.self_us", "us", "lower"),
    Metric("webapp.response_bytes_per_query", "bytes", "lower"),
    Metric("cluster.router.route_us", "us", "lower"),
    Metric("cluster.router.self_us", "us", "lower"),
    Metric("cluster.router.shard_skew", "ratio", "lower"),
    Metric("cluster.router.failover_ratio", "ratio", "lower"),
    *(
        Metric(f"pkg.{package}.self_share", "ratio", "lower")
        for package in SERVE_PACKAGES + ("builtins", "stdlib")
    ),
    *(
        Metric(f"pkg.{package}.calls_per_query", "count", "lower")
        for package in SERVE_PACKAGES + ("total",)
    ),
    Metric("sim_wall.parse_ratio", "ratio", "lower"),
    Metric("sim_wall.check_ratio", "ratio", "lower"),
    Metric("sim_wall.local_eval_ratio", "ratio", "lower"),
    Metric("sim_wall.merge_ratio", "ratio", "lower"),
    Metric("sim_wall.maintenance_ratio", "ratio", "lower"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
    Metric("calib.kernel_us", "us", "lower"),
    Metric("raw.throughput_qps", "1/s", "higher"),
    Metric("latency_p95_us", "us", "lower"),
)

UNITS = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}


#: Half-width, as a share of the sample, of the band of ranks a
#: percentile is averaged over.
PERCENTILE_BAND = 0.005


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """A smoothed percentile of an ascending sequence.

    The mean of the values ranked within ``PERCENTILE_BAND`` of the
    nearest-rank percentile.  One order statistic in a sparse tail —
    the p99 of ``hot_hits`` sits where the few forwarded queries meet
    the largest local evaluations — jumps with the seed; the band's
    mean does not, and in a dense region it equals the plain value.
    """
    n = len(ordered)
    low = max(1, math.ceil((fraction - PERCENTILE_BAND) * n))
    high = min(n, max(low, math.ceil((fraction + PERCENTILE_BAND) * n)))
    return statistics.fmean(ordered[low - 1:high])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ------------------------------------------------------------- end to end


def best_of_passes(passes: Sequence[PassResult]) -> tuple[list[float], list[float]]:
    """Each query's fastest pass: ``(calibrated µs, raw µs)`` per query.

    Every timed pass replays the same queries into a fresh, empty
    deployment, so query ``i`` does the same work in every pass and
    the passes differ only by what else the machine was doing.  A
    disturbance has to hit the same query in every pass to survive the
    minimum.
    """
    calibrated = [result.calibrated_us() for result in passes]
    return (
        [min(column) for column in zip(*calibrated)],
        [min(column) / 1e3 for column in zip(*(r.latency_ns for r in passes))],
    )


def calibrated_qps(passes: Sequence[PassResult]) -> float:
    """Queries per calibrated second, from each query's fastest pass."""
    return passes[0].queries / (sum(best_of_passes(passes)[0]) / 1e6)


def timing_metrics(passes: Sequence[PassResult]) -> dict[str, float]:
    """Latency and throughput over the timed passes.

    All of them are taken over each query's fastest pass, so the sample
    count of a percentile is the workload's query count.
    """
    calibrated, raw = best_of_passes(passes)
    ordered = sorted(calibrated)
    return {
        "throughput_qps": len(calibrated) / (sum(calibrated) / 1e6),
        "latency_p50_us": percentile(ordered, 0.50),
        "latency_p95_us": percentile(ordered, 0.95),
        "latency_p99_us": percentile(ordered, 0.99),
        "raw.throughput_qps": len(raw) / (sum(raw) / 1e6),
        "calib.kernel_us": statistics.fmean(
            reading for result in passes for reading in result.kernel_us
        ),
    }


def exact_metrics(
    passes: Sequence[PassResult], oracle: OracleReport
) -> dict[str, float]:
    """The metrics that repeat exactly for a seed.

    Cache behaviour is read off the first pass's records (every pass
    replays the same queries into an empty cache); failures are
    counted over every pass given.
    """
    records = passes[0].records
    attempted = sum(result.queries for result in passes)
    failed = sum(len(result.not_served) for result in passes)
    return {
        "cache_efficiency": _ratio(
            sum(record.tuples_from_cache for record in records),
            sum(record.tuples_total for record in records),
        ),
        "origin_contact_ratio": _ratio(
            sum(1 for record in records if record.contacted_origin),
            len(records),
        ),
        "sim_response_ms": _ratio(
            sum(record.response_ms for record in records), len(records)
        ),
        "failed_ratio": _ratio(failed + len(oracle.mismatches), attempted),
        "oracle.function_columns_stale_ratio": _ratio(
            oracle.function_columns_stale, oracle.checked
        ),
    }


# -------------------------------------------------------------- per layer


def span_metrics(
    result: PassResult,
    recorder: SpanRecorder,
    counts: Mapping[str, float],
) -> dict[str, float]:
    """Layer metrics of the traced pass: self times and boundary counts.

    ``*_us`` is a layer's mean self time per query in calibrated µs,
    over the spans that belong to a query (the warm restart's spans
    carry query -1 and take the last window's scale).
    """
    queries = result.queries
    scales = window_scales(result.kernel_us)
    self_ns: dict[str, float] = {}
    inclusive_ns: dict[str, float] = {}
    spans_of: dict[str, int] = {}
    recover_ns = 0.0
    for span, span_self in zip(recorder.spans, recorder.self_ns()):
        name = span[NAME]
        duration = span[END] - span[START]
        if span[QUERY] < 0:
            if name == "persistence.recover":
                recover_ns += duration * scales[-1]
            continue
        scale = scales[result.window_of[span[QUERY]]]
        self_ns[name] = self_ns.get(name, 0.0) + span_self * scale
        inclusive_ns[name] = inclusive_ns.get(name, 0.0) + duration * scale
        spans_of[name] = spans_of.get(name, 0) + 1

    def per_query_us(*names: str) -> float:
        return sum(self_ns.get(name, 0) for name in names) / queries / 1e3

    def wall_ms(*names: str) -> float:
        return sum(inclusive_ns.get(name, 0) for name in names) / 1e6

    def sim_ms(step: str) -> float:
        return sum(record.steps_ms.get(step, 0.0) for record in result.records)

    count = counts.get
    shard_loads = [
        load for key, load in counts.items() if key.startswith("shard:")
    ]
    checkpoints = spans_of.get("persistence.checkpoint", 0)
    restored, live = result.restart or (0, 0)
    return {
        "templates.bind_us": per_query_us("templates.bind"),
        "core.proxy.self_us": per_query_us("core.proxy.serve"),
        "core.description.probe_us": per_query_us("core.description.probe"),
        "core.description.candidates_per_probe": _ratio(
            count("candidates", 0), count("probes", 0)
        ),
        "core.description.useful_ratio": _ratio(
            count("relate_useful", 0), count("candidates", 0)
        ),
        "core.description.update_us": _ratio(
            self_ns.get("core.description.update", 0) / 1e3,
            count("admitted_entries", 0),
        ),
        "geometry.relate_us": per_query_us("geometry.relate"),
        "geometry.relate_pairs_per_query": count("relate_pairs", 0) / queries,
        "core.cache.exact_us": per_query_us("core.cache.exact"),
        "core.cache.store_us": per_query_us(
            "core.cache.store", "core.cache.remove"
        ),
        "core.cache.evictions_per_query": count("evictions", 0) / queries,
        "core.cache.answered_ratio": 1.0 - count("gateway_calls", 0) / queries,
        "core.cache.entries_final": float(result.entries_final),
        "core.cache.bytes_final": float(result.bytes_final),
        "core.evaluation.local_eval_us": per_query_us(
            "core.evaluation.local_eval"
        ),
        "core.evaluation.tuples_read_per_query": (
            count("tuples_read", 0) / queries
        ),
        "core.evaluation.useful_ratio": _ratio(
            count("tuples_selected", 0), count("tuples_read", 0)
        ),
        "relational.result.merge_us": per_query_us("relational.result.merge"),
        "core.remainder.build_us": per_query_us("core.remainder.build"),
        "core.remainder.holes_per_remainder": _ratio(
            count("holes", 0), count("remainders", 0)
        ),
        "server.origin.execute_us": per_query_us("server.origin.execute"),
        "server.origin.calls_per_query": count("origin_calls", 0) / queries,
        "server.origin.rows_per_call": _ratio(
            count("origin_rows", 0), count("origin_calls", 0)
        ),
        "faults.gateway.self_us": per_query_us("faults.gateway.call"),
        "faults.gateway.retries_per_query": (
            count("gateway_retries", 0) / queries
        ),
        "persistence.append_us": per_query_us("persistence.append"),
        "persistence.records_per_query": count("journal_records", 0) / queries,
        "persistence.checkpoint_ms": _ratio(
            wall_ms("persistence.checkpoint"), checkpoints
        ),
        "persistence.checkpoints": float(checkpoints),
        "persistence.write_amplification": _ratio(
            count("journal_bytes", 0) + count("snapshot_bytes", 0),
            count("admitted_bytes", 0),
        ),
        "persistence.recover_ms": recover_ns / 1e6,
        "persistence.restored_ratio": _ratio(restored, live),
        "obs.respond_us": per_query_us(*OBS_RESPOND_SPANS),
        "webapp.client.self_us": per_query_us("webapp.client"),
        "webapp.proxy_app.self_us": per_query_us("webapp.proxy_app"),
        "webapp.http_origin.self_us": per_query_us("webapp.http_origin"),
        "webapp.origin_app.self_us": per_query_us("webapp.origin_app"),
        "webapp.response_bytes_per_query": (
            count("response_bytes", 0) / queries
        ),
        "cluster.router.route_us": per_query_us("cluster.router.route"),
        "cluster.router.self_us": per_query_us("cluster.router.serve"),
        "cluster.router.shard_skew": _ratio(
            max(shard_loads, default=0.0),
            statistics.fmean(shard_loads) if shard_loads else 0.0,
        ),
        "cluster.router.failover_ratio": _ratio(
            count("failovers", 0), count("routes", 0)
        ),
        "sim_wall.parse_ratio": _ratio(
            sim_ms("parse"), wall_ms("templates.bind")
        ),
        "sim_wall.check_ratio": _ratio(
            sim_ms("check"),
            wall_ms("core.description.probe", "geometry.relate"),
        ),
        "sim_wall.local_eval_ratio": _ratio(
            sim_ms("local_eval"), wall_ms("core.evaluation.local_eval")
        ),
        "sim_wall.merge_ratio": _ratio(
            sim_ms("merge"), wall_ms("relational.result.merge")
        ),
        "sim_wall.maintenance_ratio": _ratio(
            sim_ms("maintenance"),
            wall_ms("core.cache.store", "core.cache.remove"),
        ),
    }


_REPRO_ROOT = str(Path(repro.__file__).resolve().parent) + "/"
_WALLBENCH_ROOT = str(Path(wallbench.__file__).resolve().parent) + "/"


def _package_of(code: Any) -> str | None:
    """The bucket of one profiled function; None for the generator."""
    if isinstance(code, str):
        return "builtins"
    filename = code.co_filename
    if filename.startswith(_REPRO_ROOT):
        head = filename[len(_REPRO_ROOT):].split("/", 1)[0]
        return head[:-3] if head.endswith(".py") else head
    if filename.startswith(_WALLBENCH_ROOT):
        return None
    return "stdlib"


def profile_metrics(stats: Iterable[Any], queries: int) -> dict[str, float]:
    """Per-package call counts and CPU self-time shares.

    ``calls_per_query`` counts, for each serve-path package, the calls
    of its python functions plus the C calls made directly from them —
    deterministic for a seed.  ``self_share`` splits the profiled self
    time: python time to the function's package, the time of C calls
    made directly from serve-path code to ``builtins``, and the python
    time of everything else (standard library, site-packages) to
    ``stdlib``.  C calls made from outside the serve-path packages are
    left out — that is where the HTTP deployment's threads block on
    sockets, and ``cProfile`` reads the wall clock — as are the
    generator's own frames.
    """
    calls = dict.fromkeys(SERVE_PACKAGES, 0)
    self_s = dict.fromkeys(SERVE_PACKAGES + ("builtins", "stdlib"), 0.0)
    for entry in stats:
        package = _package_of(entry.code)
        if package is None or package == "builtins":
            continue  # C time is attributed through its callers below
        in_program = package in calls
        bucket = package if in_program else "stdlib"
        self_s[bucket] += entry.inlinetime
        if in_program:
            calls[package] += entry.callcount
        for callee in entry.calls or ():
            if in_program and isinstance(callee.code, str):
                calls[package] += callee.callcount
                self_s["builtins"] += callee.inlinetime
    total_s = sum(self_s.values())
    metrics = {
        f"pkg.{package}.self_share": _ratio(seconds, total_s)
        for package, seconds in self_s.items()
    }
    for package, n in calls.items():
        metrics[f"pkg.{package}.calls_per_query"] = n / queries
    metrics["pkg.total.calls_per_query"] = sum(calls.values()) / queries
    return metrics
