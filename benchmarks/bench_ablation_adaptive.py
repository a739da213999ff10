"""Ablation: adaptive overlap handling vs the static schemes.

The paper decides "cache-intersecting queries may not be worth
handling" by measuring both static configurations offline.  The
:class:`~repro.extensions.adaptive.AdaptiveProxy` extension makes the
same decision online.  On the calibrated testbed (where remainders are
costly, as the paper found), the adaptive proxy should converge toward
the containment-only behaviour and land between the full scheme and
the Third scheme on response time — without anyone configuring it.

The benchmark kernel is the adaptive decision itself (estimator update
plus gate), which must be negligible next to query processing.
"""

from operator import itemgetter

import pytest

from repro.core.schemes import CachingScheme
from repro.extensions.adaptive import AdaptiveProxy
from repro.harness.render import render_table
from repro.workload.rbe import BrowserEmulator


@pytest.fixture(scope="module")
def comparison(runner, record_result, bench_report):
    static_full = runner.run(
        CachingScheme.FULL_SEMANTIC, "array", cache_fraction=None
    )
    static_third = runner.run(
        CachingScheme.CONTAINMENT_ONLY, "array", cache_fraction=None
    )

    adaptive = AdaptiveProxy(
        origin=runner.origin,
        templates=runner.origin.templates,
        costs=runner.scale.proxy_costs,
        topology=runner.scale.topology,
    )
    adaptive_stats = BrowserEmulator(adaptive).run(
        runner.trace, limit=runner.scale.measure_queries
    )

    measured = {
        "full semantic (static)": static_full.stats,
        "adaptive": adaptive_stats,
        "containment only (static)": static_third.stats,
    }
    text = render_table(
        "Ablation: adaptive overlap handling (learns the paper's "
        "conclusion online)",
        [
            ("configuration", itemgetter(0)),
            ("avg response ms", lambda row: row[1].average_response_ms),
            ("efficiency", lambda row: row[1].average_cache_efficiency),
        ],
        measured.items(),
    )
    record_result("ablation_adaptive", text)

    report = bench_report("ablation_adaptive")
    for key, label in (
        ("full_static", "full semantic (static)"),
        ("adaptive", "adaptive"),
        ("containment_static", "containment only (static)"),
    ):
        report.metric(
            f"{key}_response_ms",
            measured[label].average_response_ms,
            unit="ms",
        )
    report.metric(
        "adaptive_efficiency",
        measured["adaptive"].average_cache_efficiency,
        unit="fraction",
    )
    report.finish()

    measured["_decisions"] = adaptive.adaptive
    return measured


def test_adaptive_lands_between_static_extremes(comparison):
    full = comparison["full semantic (static)"].average_response_ms
    third = comparison["containment only (static)"].average_response_ms
    adaptive = comparison["adaptive"].average_response_ms
    # On the calibrated testbed remainders are costly: adaptive must
    # beat always-handling, and sit between the extremes (it pays for
    # warm-up exploration and periodic re-exploration, so it does not
    # fully reach the never-handling floor).
    assert adaptive < full
    assert third <= adaptive <= third * 1.10


def test_adaptive_learned_to_decline(comparison):
    state = comparison["_decisions"]
    assert not state.remainder_pays_off
    assert state.overlaps_declined > 0


def test_decision_overhead(runner, benchmark, comparison):
    proxy = AdaptiveProxy(
        origin=runner.origin,
        templates=runner.origin.templates,
        costs=runner.scale.proxy_costs,
        topology=runner.scale.topology,
    )
    # Seed the estimator so the gate exercises the comparison branch.
    proxy.adaptive.forward_cost.add(2000.0)
    proxy.adaptive.overlap_cost.add(2400.0)
    proxy.adaptive.overlaps_handled = proxy.explore_overlaps

    benchmark(proxy._attempt_overlap, None, [], [object()])
