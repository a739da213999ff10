"""Saturation: graceful degradation under thousands of closed-loop clients.

Not a paper table — the paper serves one query at a time.  This bench
drives the admission-controlled proxy with a ladder of closed-loop
client populations (8 up to 10,000 at the default scale) on the
deterministic event loop and checks the *graceful saturation* shape:

* throughput climbs to the service capacity and stays on a plateau
  (>= 80% of peak) instead of collapsing as offered load keeps rising;
* the p95 latency of admitted queries stays within the configured
  queue deadline — waiting is bounded by policy, not by backlog;
* the shed fraction rises monotonically with offered load, and every
  submission yields exactly one structured record (``serve`` never
  raises, even at 10,000 clients).

The benchmark kernel is the overload fast path: a ``serve`` call
rejected at admission while the queue is full — the operation the
proxy performs tens of thousands of times per run at the top rung.
"""

from repro.admission import AdmissionConfig
from repro.core.schemes import CachingScheme
from repro.core.stats import QueryOutcome
from repro.harness.saturation import run_saturation, stitch_telemetry
from repro.obs.events import SHED_POLICY_EVENT_CODES
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID


def test_saturation(
    runner, record_result, record_json, bench_report, benchmark
):
    result = run_saturation(runner)
    record_result("saturation", result.render())
    record_json("saturation", result.to_dict())

    # With REPRO_TELEMETRY=1 the rungs carry live-telemetry snapshots;
    # stitch them onto one time axis and check the telemetry tells the
    # same graceful-saturation story as the table.
    telemetry = stitch_telemetry(result)
    if telemetry is not None:
        series_doc, events_doc = telemetry
        record_json("timeseries-saturation", series_doc)
        record_json("events-saturation", events_doc)
        # The per-rung mean shed rate rises monotonically with load.
        rung_shed = [rung["shed_fraction"] for rung in series_doc["rungs"]]
        assert all(a <= b for a, b in zip(rung_shed, rung_shed[1:]))
        codes = {event["code"] for event in events_doc["events"]}
        # The overload breaker opened somewhere on the ladder (EV01,
        # payload breaker=admission-overload) and the shed policy
        # activated with it (EV04).
        assert "EV01" in codes
        assert codes & set(SHED_POLICY_EVENT_CODES.values())

    top = result.points[-1]
    report = bench_report("saturation")
    report.metric(
        "peak_throughput_qps",
        result.peak_throughput_qps,
        unit="qps",
    )
    report.metric(
        "plateau_fraction",
        result.plateau_fraction,
        unit="fraction",
    )
    report.metric(
        "top_rung_p95_admitted_ms",
        top.p95_admitted_ms,
        unit="sim_ms",
    )
    report.finish()

    # The ladder actually reaches saturation scale outside smoke runs.
    if runner.scale.name != "quick":
        assert top.n_clients >= 10_000
    # Graceful saturation, not congestion collapse.
    assert result.plateau_fraction >= 0.8
    # Admitted queries finish inside the queue deadline at every rung.
    for point in result.points:
        assert point.p95_admitted_ms <= result.deadline_ms
    # Excess load is turned away, increasingly so as load climbs.
    sheds = [point.shed_fraction for point in result.points]
    assert all(a <= b for a, b in zip(sheds, sheds[1:]))
    assert sheds[-1] > 0.5
    # Never-raises accounting: one structured record per submission.
    for point in result.points:
        assert point.records == point.submitted
        assert (
            point.served + point.shed + point.timed_out + point.failed
            == point.records
        )

    # Benchmark: the overload fast path — a serve turned away at
    # admission with the slot and queue both occupied.
    proxy = runner.build_proxy(
        CachingScheme.FULL_SEMANTIC,
        "array",
        None,
        admission=AdmissionConfig(max_inflight=1, max_queue_depth=1),
    )
    # Occupy the slot and the queue position and never release them.
    while proxy.admission.try_admit("default").admitted:
        pass
    bound = runner.origin.templates.bind(
        RADIAL_TEMPLATE_ID, runner.trace[0].param_dict()
    )

    def serve_shed():
        response = proxy.serve(bound)
        assert response.record.outcome is QueryOutcome.SHED
        return response

    benchmark(serve_shed)
