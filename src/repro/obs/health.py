"""Declarative health rules evaluated over the live time series.

The health rules turn the :mod:`repro.obs.timeseries` samples into
an operational verdict — ``healthy`` / ``degraded`` / ``unhealthy`` —
by evaluating a fixed set of **pinned rules** (HR ids, stable like the
FP diagnostic and EV event codes; see DESIGN.md):

* ``HR01`` *hit-ratio-collapse* — the newest window's cache hit ratio
  (1 − (origin rate + shed rate) / throughput: the window's share of
  queries answered without the origin) against the trailing baseline
  of the preceding windows; a collapse after a data-version flush or
  an eviction storm shows up here first.
* ``HR02`` *shed-spike* — the fraction of arrivals turned away (shed
  rate / throughput) in the newest window.
* ``HR03`` *latency-slo* — the newest window's rolling p95 response
  time against a latency objective given offline
  (``python -m repro.obs.report --latency-slo-ms``); inactive on a
  live proxy, which configures none.
* ``HR04`` *queue-saturation* — the accept queue pinned near its
  configured limit for several consecutive windows.
* ``HR05`` *breaker-open* — the origin circuit breaker not closed at
  the newest sample (the origin is presumed down; answers are degraded).
* ``HR06`` *shard-down* — one or more shard workers behind the
  :class:`~repro.cluster.router.ShardRouter` are down or unhealthy;
  inactive on a single proxy with no shard tier configured.

``throughput_qps`` counts every finished query, turned away or not,
and ``shed_per_s`` every turned-away one, so a window's shed rate is
part of its throughput.

The overall verdict is the worst rule verdict.  Each evaluation that
*changes* the overall verdict fires an ``EV11`` event into the flight
recorder, so verdict flips are on the same timeline as the breaker
and shed-policy transitions that caused them.

:func:`evaluate_samples` is a pure function over exported samples —
the ``repro.obs.report`` CLI re-runs it offline on a
``timeseries-<label>.json`` artifact.  A live proxy or origin runs the
same rules through its instrumentation bundle
(:meth:`~repro.obs.instrument.TelemetryBundle.health`), over what the
recorder kept ready at sample time (each window's hit ratio, computed
once; the newest few samples).
"""

from __future__ import annotations

from typing import Any, Mapping

HEALTHY = "healthy"
DEGRADED = "degraded"
UNHEALTHY = "unhealthy"

_SEVERITY = {HEALTHY: 0, DEGRADED: 1, UNHEALTHY: 2}

#: The pinned health-rule registry (see DESIGN.md): id -> stable name.
HEALTH_RULES: Mapping[str, str] = {
    "HR01": "hit-ratio-collapse",
    "HR02": "shed-spike",
    "HR03": "latency-slo",
    "HR04": "queue-saturation",
    "HR05": "breaker-open",
    "HR06": "shard-down",
}

#: HR01 needs this many windows with traffic before judging.
MIN_BASELINE_WINDOWS = 4
#: HR01 thresholds: recent hit ratio under these fractions of baseline.
HIT_COLLAPSE_DEGRADED = 0.5
HIT_COLLAPSE_UNHEALTHY = 0.25
#: HR01 ignores baselines below this (a cold cache has no ratio to lose).
HIT_BASELINE_FLOOR = 0.2
#: HR02 thresholds on the newest window's shed fraction.
SHED_DEGRADED = 0.1
SHED_UNHEALTHY = 0.5
#: HR04: consecutive windows required, and the near-limit fraction.
QUEUE_SATURATION_WINDOWS = 3
QUEUE_SATURATION_FRACTION = 0.8


def _rule(rule_id: str, status: str, detail: str) -> dict[str, Any]:
    return {
        "id": rule_id,
        "name": HEALTH_RULES[rule_id],
        "status": status,
        "detail": detail,
    }


def _rate(sample: Mapping[str, Any], lane: str) -> float:
    return float(sample.get("rates", {}).get(lane, 0.0) or 0.0)


def hit_ratio(sample: Mapping[str, Any]) -> float | None:
    """One window's cache hit ratio (1 − (origin rate + shed rate) /
    throughput), or ``None`` for a window without traffic."""
    throughput = _rate(sample, "throughput_qps")
    if throughput <= 0.0:
        return None
    missed = _rate(sample, "origin_per_s") + _rate(sample, "shed_per_s")
    return min(1.0, max(0.0, 1.0 - missed / throughput))


def summarize(
    samples: list[dict[str, Any]],
) -> tuple[list[float], list[dict[str, Any]], int]:
    """What the rules read of a series: the hit ratio of every window
    with traffic (oldest first), the newest samples HR02–HR05 look at,
    and the window count.  A live recorder keeps the same triple ready
    (:meth:`~repro.obs.timeseries.TimeSeriesRecorder.health_window`).
    """
    ratios = [r for r in map(hit_ratio, samples) if r is not None]
    return ratios, samples[-QUEUE_SATURATION_WINDOWS:], len(samples)


def _hit_ratio_collapse(ratios: list[float]) -> dict[str, Any]:
    if len(ratios) < MIN_BASELINE_WINDOWS:
        return _rule(
            "HR01",
            HEALTHY,
            f"insufficient data ({len(ratios)} windows with traffic, "
            f"need {MIN_BASELINE_WINDOWS})",
        )
    recent = ratios[-1]
    baseline = sum(ratios[:-1]) / len(ratios[:-1])
    if baseline < HIT_BASELINE_FLOOR:
        return _rule(
            "HR01",
            HEALTHY,
            f"baseline hit ratio {baseline:.2f} below the "
            f"{HIT_BASELINE_FLOOR} judgment floor",
        )
    detail = (
        f"recent hit ratio {recent:.2f} vs trailing baseline "
        f"{baseline:.2f}"
    )
    if recent < baseline * HIT_COLLAPSE_UNHEALTHY:
        return _rule("HR01", UNHEALTHY, detail)
    if recent < baseline * HIT_COLLAPSE_DEGRADED:
        return _rule("HR01", DEGRADED, detail)
    return _rule("HR01", HEALTHY, detail)


def _shed_spike(samples: list[dict[str, Any]]) -> dict[str, Any]:
    if not samples:
        return _rule("HR02", HEALTHY, "no samples")
    throughput = _rate(samples[-1], "throughput_qps")
    shed = _rate(samples[-1], "shed_per_s")
    fraction = shed / throughput if throughput > 0 else 0.0
    detail = f"shed fraction {fraction:.2f} in the newest window"
    if fraction >= SHED_UNHEALTHY:
        return _rule("HR02", UNHEALTHY, detail)
    if fraction >= SHED_DEGRADED:
        return _rule("HR02", DEGRADED, detail)
    return _rule("HR02", HEALTHY, detail)


def _latency_slo(
    samples: list[dict[str, Any]], latency_slo_ms: float | None
) -> dict[str, Any]:
    if latency_slo_ms is None:
        return _rule(
            "HR03", HEALTHY, "no per-template latency objective configured"
        )
    if not samples:
        return _rule("HR03", HEALTHY, "no samples")
    quantiles = samples[-1].get("quantiles", {}).get("response_ms", {})
    p95 = quantiles.get("p95")
    if p95 is None:
        return _rule("HR03", HEALTHY, "no observations in the newest window")
    detail = (
        f"rolling p95 {p95:.0f} ms vs {latency_slo_ms:.0f} ms objective"
    )
    if p95 > 2.0 * latency_slo_ms:
        return _rule("HR03", UNHEALTHY, detail)
    if p95 > latency_slo_ms:
        return _rule("HR03", DEGRADED, detail)
    return _rule("HR03", HEALTHY, detail)


def _queue_saturation(
    newest: list[dict[str, Any]], windows: int, queue_limit: int | None
) -> dict[str, Any]:
    if queue_limit is None or queue_limit <= 0:
        return _rule("HR04", HEALTHY, "no queue limit configured")
    if windows < QUEUE_SATURATION_WINDOWS:
        return _rule(
            "HR04",
            HEALTHY,
            f"insufficient data ({windows} windows, need "
            f"{QUEUE_SATURATION_WINDOWS})",
        )
    depths = [
        float(sample.get("gauges", {}).get("queue_depth", 0.0) or 0.0)
        for sample in newest
    ]
    detail = (
        f"queue depth {[round(d) for d in depths]} of limit {queue_limit} "
        f"over the last {QUEUE_SATURATION_WINDOWS} windows"
    )
    if all(depth >= queue_limit for depth in depths):
        return _rule("HR04", UNHEALTHY, detail)
    if all(
        depth >= QUEUE_SATURATION_FRACTION * queue_limit
        for depth in depths
    ):
        return _rule("HR04", DEGRADED, detail)
    return _rule("HR04", HEALTHY, detail)


def _breaker_open(samples: list[dict[str, Any]]) -> dict[str, Any]:
    if not samples:
        return _rule("HR05", HEALTHY, "no samples")
    state = float(
        samples[-1].get("gauges", {}).get("breaker_state", 0.0) or 0.0
    )
    if state >= 2.0:
        return _rule(
            "HR05", DEGRADED, "origin breaker open (origin presumed down)"
        )
    if state >= 1.0:
        return _rule("HR05", DEGRADED, "origin breaker half-open (probing)")
    return _rule("HR05", HEALTHY, "origin breaker closed")


def _shard_down(
    shards_down: int | None, shards_total: int | None
) -> dict[str, Any]:
    if shards_total is None or shards_total <= 0:
        return _rule("HR06", HEALTHY, "no shard tier configured")
    down = int(shards_down or 0)
    detail = f"{down} of {shards_total} shards down or unhealthy"
    if down >= shards_total:
        return _rule("HR06", UNHEALTHY, detail)
    if down > 0:
        return _rule("HR06", DEGRADED, detail)
    return _rule("HR06", HEALTHY, detail)


def evaluate_samples(
    samples: list[dict[str, Any]],
    latency_slo_ms: float | None = None,
    queue_limit: int | None = None,
    shards_down: int | None = None,
    shards_total: int | None = None,
) -> dict[str, Any]:
    """Run every pinned rule over ``samples``; worst verdict wins.

    Pure — usable offline over an exported ``timeseries-*.json``.
    ``shards_down``/``shards_total`` describe the shard tier behind a
    router; a single proxy leaves them ``None`` and HR06 stays
    inactive.
    """
    return evaluate_window(
        summarize(samples),
        latency_slo_ms,
        queue_limit,
        shards_down,
        shards_total,
    )


def evaluate_window(
    summary: tuple[list[float], list[dict[str, Any]], int],
    latency_slo_ms: float | None = None,
    queue_limit: int | None = None,
    shards_down: int | None = None,
    shards_total: int | None = None,
) -> dict[str, Any]:
    """:func:`evaluate_samples` over the triple :func:`summarize`
    returns (or a live recorder's ``health_window()``)."""
    ratios, newest, windows = summary
    rules = [
        _hit_ratio_collapse(ratios),
        _shed_spike(newest),
        _latency_slo(newest, latency_slo_ms),
        _queue_saturation(newest, windows, queue_limit),
        _breaker_open(newest),
        _shard_down(shards_down, shards_total),
    ]
    status = max(
        (rule["status"] for rule in rules),
        key=lambda verdict: _SEVERITY[str(verdict)],
        default=HEALTHY,
    )
    return {"status": status, "rules": rules, "windows": windows}
