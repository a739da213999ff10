"""The threaded oracle: eight threads, one proxy, the origin's answer.

Eight threads serve a mix of nested, overlapping and disjoint Radial
and Rectangular queries against one proxy whose byte budget forces
evictions and whose admissions and evictions are journaled, with the
interpreter switching threads every few bytecodes and the lock-order
sanitizer installed.  Every ``served`` answer must equal the origin's
direct answer as a bag of full tuples; a warm restart must bring the
whole cache back; and every lock nesting the run took must be one
:data:`repro.locking.LOCK_ORDER` declares.

Answers are compared as full tuples, Radial's ``n.distance`` included:
local evaluation recomputes it for the query's own centre.
"""

import collections
import sys
import threading

import pytest

from repro.core.proxy import FunctionProxy
from repro.core.stats import QueryOutcome
from repro.locking import (
    LOCK_ORDER,
    disable_lock_sanitizer,
    enable_lock_sanitizer,
)
from repro.persistence.persister import CachePersister
from repro.templates.skyserver_templates import (
    RADIAL_TEMPLATE_ID,
    RECT_TEMPLATE_ID,
)

THREADS = 8
OPEN_MAGNITUDES = {"r_min": -9999.0, "r_max": 9999.0}


@pytest.fixture()
def sanitizer():
    installed = enable_lock_sanitizer()
    yield installed
    disable_lock_sanitizer()


@pytest.fixture()
def eager_switching():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


def radial(templates, ra, dec, radius):
    return templates.bind(
        RADIAL_TEMPLATE_ID,
        {"ra": ra, "dec": dec, "radius": radius, **OPEN_MAGNITUDES},
    )


def rect(templates, ra_min, ra_max, dec_min, dec_max):
    return templates.bind(
        RECT_TEMPLATE_ID,
        {
            "ra_min": ra_min,
            "ra_max": ra_max,
            "dec_min": dec_min,
            "dec_max": dec_max,
            **OPEN_MAGNITUDES,
        },
    )


def query_mix(templates):
    """Nested, overlapping and disjoint queries of both templates,
    each issued twice so later copies can hit what earlier ones
    cached (or what an eviction dropped)."""
    queries = []
    for ra in (161.0, 163.0, 165.0, 167.0):  # disjoint centres
        for radius in (24.0, 12.0, 6.0):  # nested cones
            queries.append(radial(templates, ra, 8.0, radius))
        queries.append(radial(templates, ra + 0.1, 8.1, 18.0))  # overlap
    for ra in (161.5, 164.5):
        queries.append(rect(templates, ra, ra + 0.6, 6.0, 6.6))
        queries.append(rect(templates, ra + 0.2, ra + 0.4, 6.2, 6.4))
        queries.append(rect(templates, ra + 0.4, ra + 1.0, 6.4, 7.0))
    return queries * 2


def bag(result):
    """The rows as a multiset of full tuples."""
    return collections.Counter(tuple(row) for row in result.rows)


def serve_in_threads(proxy, queries):
    """``THREADS`` workers, each serving every ``THREADS``-th query."""
    barrier = threading.Barrier(THREADS)
    responses = [None] * len(queries)
    failures = []

    def run(slot):
        try:
            barrier.wait(timeout=10)
            for index in range(slot, len(queries), THREADS):
                responses[index] = proxy.serve(queries[index])
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    threads = [
        threading.Thread(target=run, args=(slot,))
        for slot in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not failures, failures
    return responses


def test_eight_threads_answer_what_the_origin_answers(
    origin, tmp_path, sanitizer, eager_switching
):
    queries = query_mix(origin.templates)
    direct = [origin.execute_bound(bound).result for bound in queries]
    distinct = {q.cache_key(): table for q, table in zip(queries, direct)}
    budget = sum(table.byte_size() for table in distinct.values()) // 3
    proxy = FunctionProxy(
        origin,
        origin.templates,
        cache_bytes=budget,
        persistence=CachePersister(tmp_path / "state", snapshot_every=8),
    )

    responses = serve_in_threads(proxy, queries)

    records = proxy.stats.records
    assert len(records) == len(queries)
    assert all(record.answered for record in records)
    assert {r.index for r in records} == set(range(1, len(queries) + 1))
    assert proxy.cache.evictions > 0
    assert proxy.cache.current_bytes <= budget

    # No faults are injected, so every answer is a served one.
    assert all(r.outcome is QueryOutcome.SERVED for r in records)
    for bound, response, want in zip(queries, responses, direct):
        assert bag(response.result) == bag(want), (
            bound.template_id,
            bound.params,
            response.record.status,
        )

    restarted = FunctionProxy(
        origin,
        origin.templates,
        cache_bytes=budget,
        persistence=CachePersister(tmp_path / "state", snapshot_every=8),
    )
    assert len(restarted.cache) == len(proxy.cache)

    assert sanitizer.observed_edges() <= LOCK_ORDER
