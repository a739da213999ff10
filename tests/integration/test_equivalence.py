"""The correctness invariant: the proxy never changes query answers.

For any trace and any caching scheme / description / cache budget, the
rows the proxy returns for each query must equal what the origin
returns when asked directly: full tuples, the function's own distance
column included, compared as a bag (the Radial query has no ORDER BY,
so a cached answer may keep another call's row order).  This is the
property that makes every caching trick in the paper *safe*;
everything else is performance.
"""

import collections
import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.description import ArrayDescription, RTreeDescription
from repro.core.proxy import FunctionProxy
from repro.core.schemes import CachingScheme
from repro.harness.config import ExperimentScale
from repro.workload.generator import RadialTraceConfig, generate_radial_trace

SKY = ExperimentScale.quick().sky


def ids(result):
    """The answer as a multiset of full tuples."""
    return collections.Counter(tuple(row) for row in result.rows)


def run_equivalence(origin, trace, scheme, description, cache_bytes):
    proxy = FunctionProxy(
        origin,
        origin.templates,
        scheme=scheme,
        description=description,
        cache_bytes=cache_bytes,
    )
    for query in trace:
        bound = origin.templates.bind(query.template_id, query.param_dict())
        got = proxy.serve(bound).result
        want = origin.execute_bound(bound).result
        assert ids(got) == ids(want), (
            f"answer mismatch under {scheme.value} for {bound!r}"
        )


@pytest.mark.parametrize("scheme", list(CachingScheme),
                         ids=lambda s: s.value)
def test_all_schemes_preserve_answers(origin, scheme):
    trace = generate_radial_trace(
        RadialTraceConfig(n_queries=120, sky=SKY)
    )
    run_equivalence(origin, trace, scheme, ArrayDescription(), None)


def test_rtree_description_preserves_answers(origin):
    trace = generate_radial_trace(
        RadialTraceConfig(n_queries=120, sky=SKY)
    )
    run_equivalence(
        origin, trace, CachingScheme.FULL_SEMANTIC, RTreeDescription(), None
    )


def test_tight_budget_preserves_answers(origin):
    """Evictions mid-trace must never corrupt answers."""
    trace = generate_radial_trace(
        RadialTraceConfig(n_queries=150, sky=SKY)
    )
    run_equivalence(
        origin, trace, CachingScheme.FULL_SEMANTIC, ArrayDescription(),
        cache_bytes=8_000,
    )


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    scheme=st.sampled_from(
        [
            CachingScheme.FULL_SEMANTIC,
            CachingScheme.REGION_CONTAINMENT,
            CachingScheme.CONTAINMENT_ONLY,
        ]
    ),
    overlap_heavy=st.booleans(),
)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_equivalence_under_random_traces(origin, seed, scheme,
                                         overlap_heavy):
    config = RadialTraceConfig(n_queries=60, sky=SKY, seed=seed)
    if overlap_heavy:
        config = dataclasses.replace(
            config, p_repeat=0.1, p_zoom=0.15, p_pan=0.35, p_zoom_out=0.1
        )
    trace = generate_radial_trace(config)
    run_equivalence(origin, trace, scheme, ArrayDescription(), None)
