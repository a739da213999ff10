"""Ablation: remainder queries vs whole-query forwarding on overlaps.

Section 3.2's tradeoff discussion: a remainder query saves network
bytes and improves cache utilization, but "it may not reduce the query
processing time at the web site since a remainder query is usually more
complicated than the original query".  On an overlap-heavy trace we
measure both policies and expect exactly that tension: remainder ships
fewer origin bytes and scores higher efficiency, yet does not win on
response time.

The benchmark kernel is remainder-query construction (the proxy-side
rewrite cost).
"""

import pytest

from repro.core.remainder import build_remainder
from repro.harness.ablations import run_remainder_ablation
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID


@pytest.fixture(scope="module")
def ablation(scale, record_result, bench_report):
    result = run_remainder_ablation(scale)
    record_result("ablation_remainder", result.render())

    report = bench_report("ablation_remainder")
    for label in ("remainder", "forward-whole"):
        key = label.replace("-", "_")
        report.metric(
            f"{key}_response_ms", result.response_ms[label], unit="ms"
        )
        report.metric(
            f"{key}_origin_bytes", result.origin_bytes[label], unit="bytes"
        )
        report.metric(
            f"{key}_efficiency",
            result.efficiency[label],
            unit="fraction",
        )
    report.finish()
    return result


def test_remainder_tradeoff(ablation):
    # Remainder queries ship fewer bytes from the origin...
    assert ablation.origin_bytes["remainder"] < (
        ablation.origin_bytes["forward-whole"]
    )
    # ...and serve more tuples from the cache...
    assert ablation.efficiency["remainder"] > (
        ablation.efficiency["forward-whole"]
    )
    # ...but do not reduce origin processing time (the paper's point).
    assert ablation.origin_ms["remainder"] >= (
        ablation.origin_ms["forward-whole"] * 0.95
    )


def test_remainder_build_speed(runner, benchmark, ablation):
    # Depending on the ablation fixture keeps the reproduction table
    # generated even under --benchmark-only (which skips the pure
    # assertion test above).
    templates = runner.origin.templates
    params = dict(runner.trace[0].param_dict())
    bound = templates.bind(RADIAL_TEMPLATE_ID, params)
    holes = [
        templates.bind(
            RADIAL_TEMPLATE_ID,
            dict(params, radius=params["radius"] * 0.4,
                 ra=params["ra"] + offset),
        ).region
        for offset in (0.0, 0.01, 0.02, 0.03)
    ]

    benchmark(build_remainder, bound, holes)
