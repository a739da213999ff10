"""Fault availability: what the cache answers while the origin is down.

Not a paper table — the paper assumes a reliable origin.  This
experiment puts every caching scheme through the same seeded fault
plan (one outage window over the middle of the trace plus a small
transient error rate) and reports the fraction of queries that still
got an answer: served fresh, served stale from cache (``degraded``),
or the cached portion of an overlap query (``partial``).

Shape assertions: full semantic caching strictly beats no caching on
answered fraction — the availability win the resilience layer buys —
and every replay completes without an uncaught exception (the
structured-outcome promise of ``FunctionProxy.serve``).

The benchmark kernel is the stale-serve fast path: an exact cache hit
answered (degraded) while the circuit breaker is open.
"""

from repro.core.schemes import CachingScheme
from repro.core.stats import QueryOutcome
from repro.faults.plan import FaultPlan, OutageWindow
from repro.faults.resilience import BreakerState
from repro.harness.fault_availability import run_fault_availability
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID


def test_fault_availability(
    runner, record_result, record_json, bench_report, benchmark
):
    result = run_fault_availability(runner)
    record_result("fault_availability", result.render())
    record_json("fault_availability", result.to_dict())

    answered = result.answered_fraction
    report = bench_report("fault_availability")
    report.metric(
        "ac_full_answered_fraction",
        answered["ac-full"],
        unit="fraction",
    )
    report.metric(
        "nc_answered_fraction",
        answered["nc"],
        unit="fraction",
    )
    report.finish()
    # The availability headline: the semantic cache keeps answering
    # queries through the outage that a cacheless proxy cannot.
    assert answered["ac-full"] > answered["nc"]
    # Every scheme survived the fault plan: each query produced a
    # record (no uncaught exceptions), and the failures are structured.
    for row in result.schemes.values():
        assert sum(row.outcome_counts.values()) == len(
            runner.trace[: runner.scale.measure_queries]
        )
        assert row.breaker_opens >= 1

    # Benchmark: a degraded exact hit — the stale-serve fast path.
    proxy = runner.build_proxy(CachingScheme.FULL_SEMANTIC, "array", None)
    bound = runner.origin.templates.bind(
        RADIAL_TEMPLATE_ID, runner.trace[0].param_dict()
    )
    proxy.serve(bound)  # warm the entry
    # A permanent outage from t=0; drive the breaker open.
    proxy.install_fault_plan(
        FaultPlan(outages=(OutageWindow(0.0, 1e12),))
    )
    miss = runner.origin.templates.bind(
        RADIAL_TEMPLATE_ID,
        dict(runner.trace[0].param_dict(), ra=10.0, dec=10.0),
    )
    while proxy.breaker.state is not BreakerState.OPEN:
        proxy.serve(miss)

    def serve_stale():
        response = proxy.serve(bound)
        assert response.record.outcome is QueryOutcome.DEGRADED
        return response

    benchmark(serve_stale)
