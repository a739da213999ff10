"""Ablation: replacement policies under a tight cache budget.

DESIGN.md assumes LRU where the paper is silent.  This ablation tests
the assumption: the trace is replayed under the full-semantic scheme at
the 1/6 cache size (where replacement pressure is highest) with five
policies.  The recency-driven workload (hot regions revisited and
zoomed) should favour recency-aware policies — LRU and GreedyDual-Size
— over FIFO; if LRU lost badly here, the Table 1 reproduction would be
built on sand.

The benchmark kernel is victim selection over a populated cache.
"""

from operator import itemgetter

import pytest

from repro.core.replacement import ALL_POLICIES, LruPolicy
from repro.core.schemes import CachingScheme
from repro.harness.render import render_table
from repro.workload.rbe import BrowserEmulator


@pytest.fixture(scope="module")
def policy_comparison(runner, record_result, bench_report):
    budget = runner.cache_bytes_for(1 / 6)
    measured = {}
    for policy_cls in ALL_POLICIES:
        proxy = runner.build_proxy(
            CachingScheme.FULL_SEMANTIC, "array", None
        )
        # Rebuild with the policy under test (build_proxy fixes LRU).
        from repro.core.proxy import FunctionProxy

        proxy = FunctionProxy(
            origin=runner.origin,
            templates=runner.origin.templates,
            scheme=CachingScheme.FULL_SEMANTIC,
            cache_bytes=budget,
            costs=runner.scale.proxy_costs,
            topology=runner.scale.topology,
            replacement_policy=policy_cls(),
        )
        stats = BrowserEmulator(proxy).run(
            runner.trace, limit=runner.scale.measure_queries
        )
        measured[policy_cls.name] = {
            "efficiency": stats.average_cache_efficiency,
            "response": stats.average_response_ms,
            "evictions": proxy.cache.evictions,
        }
    text = render_table(
        "Ablation: replacement policy at the 1/6 cache size "
        "(full semantic caching)",
        [
            ("policy", itemgetter(0)),
            ("efficiency", lambda row: row[1]["efficiency"]),
            ("avg response ms", lambda row: row[1]["response"]),
            ("evictions", lambda row: row[1]["evictions"]),
        ],
        sorted(measured.items(), key=lambda row: -row[1]["efficiency"]),
    )
    record_result("ablation_replacement", text)

    report = bench_report("ablation_replacement")
    for policy in ("lru", "fifo", "gds"):
        report.metric(
            f"{policy}_efficiency",
            measured[policy]["efficiency"],
            unit="fraction",
        )
    report.metric(
        "lru_response_ms", measured["lru"]["response"], unit="ms"
    )
    report.finish()
    return measured


def test_recency_aware_policies_beat_fifo(policy_comparison):
    fifo = policy_comparison["fifo"]["efficiency"]
    assert policy_comparison["lru"]["efficiency"] >= fifo
    assert policy_comparison["gds"]["efficiency"] >= fifo * 0.98


def test_lru_assumption_is_reasonable(policy_comparison):
    """LRU stays within ~12% of the best policy measured.

    Size-aware policies (GDS, largest-first) beat plain LRU under a
    byte budget, but not by enough to change any Table 1 / Figure 5
    conclusion; the assertion guards against LRU becoming
    pathologically bad (which would mean the reproduction's default
    misrepresents the paper's cache).
    """
    best = max(p["efficiency"] for p in policy_comparison.values())
    assert policy_comparison["lru"]["efficiency"] >= best * 0.88


def test_victim_selection_speed(runner, benchmark, policy_comparison):
    proxy = runner.build_proxy(CachingScheme.FULL_SEMANTIC, "array", None)
    BrowserEmulator(proxy).run(
        runner.trace, limit=min(len(runner.trace), 400)
    )
    policy = LruPolicy()
    entries = list(proxy.cache.entries())
    assert entries

    benchmark(policy.victim, entries)
