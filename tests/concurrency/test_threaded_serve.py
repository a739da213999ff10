"""Concurrent ``serve()`` calls: consistency plus lock-order validation.

The serve-path refactor's contract is that two interleaved ``serve()``
calls from separate threads leave the proxy in a consistent state —
distinct query indices, every record accounted for, and a cache that
still answers exactly.  With the runtime sanitizer installed, the same
runs also validate the declared order: every lock-acquisition edge
observed at runtime must be a :data:`repro.locking.LOCK_ORDER` pair.
"""

import threading

import pytest

from repro.core.proxy import FunctionProxy
from repro.core.stats import QueryStatus
from repro.locking import (
    LOCK_ORDER,
    disable_lock_sanitizer,
    enable_lock_sanitizer,
)
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID


@pytest.fixture()
def sanitizer():
    installed = enable_lock_sanitizer()
    yield installed
    disable_lock_sanitizer()


@pytest.fixture()
def make_proxy(origin):
    def build(**kwargs):
        return FunctionProxy(origin, origin.templates, **kwargs)

    return build


@pytest.fixture()
def bind(templates):
    def run(ra=164.0, radius=10.0):
        return templates.bind(
            RADIAL_TEMPLATE_ID,
            {
                "ra": ra,
                "dec": 8.0,
                "radius": radius,
                "r_min": -9999.0,
                "r_max": 9999.0,
            },
        )

    return run


def serve_in_threads(proxy, queries):
    """One thread per query, started together; returns responses."""
    barrier = threading.Barrier(len(queries))
    responses = [None] * len(queries)
    failures = []

    def run(slot, bound):
        try:
            barrier.wait(timeout=10)
            responses[slot] = proxy.serve(bound)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            failures.append(exc)

    threads = [
        threading.Thread(target=run, args=(slot, bound))
        for slot, bound in enumerate(queries)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    if failures:
        raise failures[0]
    return responses


class TestInterleavedServes:
    def test_two_threads_reach_a_consistent_cache(self, make_proxy, bind):
        proxy = make_proxy()
        left, right = bind(ra=162.0, radius=4.0), bind(ra=166.5, radius=4.0)
        first, second = serve_in_threads(proxy, [left, right])

        # Both queries were answered and recorded, under distinct
        # indices, and both landed in the cache.
        assert first is not None and second is not None
        records = proxy.stats.records
        assert len(records) == 2
        assert {r.index for r in records} == {1, 2}
        assert all(r.outcome.value == "served" for r in records)
        assert len(proxy.cache) == 2

        # The cache is consistent: re-serving each query is an exact
        # hit returning the same rows the origin produced.
        for bound, response in ((left, first), (right, second)):
            replay = proxy.serve(bound)
            assert replay.record.status is QueryStatus.EXACT
            assert not replay.record.contacted_origin
            assert replay.result.rows == response.result.rows

    def test_many_interleaved_serves_account_for_every_query(
        self, make_proxy, bind
    ):
        proxy = make_proxy()
        queries = [
            bind(ra=161.0 + 0.9 * i, radius=3.0) for i in range(8)
        ]
        serve_in_threads(proxy, queries)
        records = proxy.stats.records
        assert len(records) == 8
        assert {r.index for r in records} == set(range(1, 9))
        assert all(r.answered for r in records)

    def test_threaded_serves_under_eviction_pressure(
        self, make_proxy, bind, origin
    ):
        """With a byte budget, every admission can evict while other
        threads are mid-lookup (REVIEW: the eviction path was untested
        under concurrency).  Serve must keep its never-raises contract
        and leave the budget respected."""
        # Four disjoint queries whose results can never all fit: the
        # budget is their total minus half the smallest, so admissions
        # keep evicting for as long as the threads keep serving.
        distinct = [
            bind(ra=161.0 + 2.0 * i, radius=1.0) for i in range(4)
        ]
        sizes = [
            origin.execute_bound(q).result.byte_size() for q in distinct
        ]
        budget = sum(sizes) - min(sizes) // 2
        proxy = make_proxy(cache_bytes=budget)
        queries = [distinct[i % 4] for i in range(12)]
        serve_in_threads(proxy, queries)

        records = proxy.stats.records
        assert len(records) == 12
        assert {r.index for r in records} == set(range(1, 13))
        assert all(r.answered for r in records)
        assert proxy.cache.evictions > 0
        assert proxy.cache.current_bytes <= budget
        # The survivor entries still answer exactly.
        for bound in distinct:
            entry = proxy.cache.exact_match(bound)
            if entry is not None:
                replay = proxy.serve(bound)
                assert replay.record.status is QueryStatus.EXACT

    def test_runtime_lock_order_matches_the_static_graph(
        self, sanitizer, tmp_path, make_proxy, bind
    ):
        from repro.persistence.persister import CachePersister

        # Persistence makes the deepest nesting reachable: every admit
        # journals under the cache lock (proxy.cache ->
        # persistence.journal -> persistence.journal.file).
        proxy = make_proxy(
            persistence=CachePersister(tmp_path / "state"),
        )
        queries = [bind(ra=162.0 + i, radius=5.0) for i in range(4)]
        serve_in_threads(proxy, queries)
        # Re-serve one query from the main thread too (exact-hit path).
        proxy.serve(queries[0])

        assert sanitizer.observed_edges() <= LOCK_ORDER
        # The serve path exercised the predicted journaling nesting.
        assert (
            "proxy.cache",
            "persistence.journal",
        ) in sanitizer.observed_edges()

    def test_admission_gate_under_threads_matches_the_static_graph(
        self, sanitizer, make_proxy, bind
    ):
        """The admission gate's locking, validated at runtime: the
        controller reads the bundle's clock without its lock and is the
        overload breaker's clock, so no ``proxy.admission ->
        proxy.clock`` edge exists, and every edge the sanitizer
        observes must already be declared."""
        from repro.admission import AdmissionConfig
        from repro.core.stats import QueryOutcome

        proxy = make_proxy(
            admission=AdmissionConfig(max_inflight=2, max_queue_depth=2)
        )
        # Pre-occupy every capacity slot so the whole thread burst
        # overflows (thread staggering under the GIL can otherwise
        # serialize the serves and never overlap them).
        holds = 0
        while proxy.admission.try_admit("default").admitted:
            holds += 1
        queries = [bind(ra=161.0 + 0.7 * i, radius=3.0) for i in range(10)]
        serve_in_threads(proxy, queries)
        for _ in range(holds):
            proxy.admission.release()
        # Two more admissions from the main thread.  The first serve
        # advances the work clock with its stage charges; the second's
        # admission then reads it through the bundle — a lock-free
        # float read, no clock lock taken (asserted below).
        proxy.serve(queries[0])
        proxy.serve(queries[1])

        records = proxy.stats.records
        assert len(records) == 12
        assert {r.index for r in records} == set(range(1, 13))
        counts = {
            outcome: sum(1 for r in records if r.outcome is outcome)
            for outcome in (QueryOutcome.SERVED, QueryOutcome.SHED)
        }
        # The barrier releases all ten against a full gate: every
        # threaded call sheds structurally, the follow-ups serve.
        assert counts[QueryOutcome.SHED] == 10
        assert counts[QueryOutcome.SERVED] == 2
        assert proxy.admission.inflight == 0

        assert sanitizer.observed_edges() <= LOCK_ORDER
        assert 0.0 < proxy.admission.now_ms <= proxy.clock.now_ms
        assert (
            "proxy.admission",
            "proxy.clock",
        ) not in sanitizer.observed_edges()

    def test_threaded_serves_with_persistence_keep_the_journal_sound(
        self, tmp_path, make_proxy, bind
    ):
        from repro.persistence.persister import CachePersister

        proxy = make_proxy(
            persistence=CachePersister(tmp_path / "state"),
        )
        queries = [bind(ra=161.5 + i, radius=3.5) for i in range(4)]
        serve_in_threads(proxy, queries)
        assert len(proxy.stats.records) == 4
        # Every admitted entry was journaled exactly once: a warm
        # restart into a fresh proxy restores the same cache.
        restarted = make_proxy(
            persistence=CachePersister(tmp_path / "state"),
        )
        assert len(restarted.cache) == len(proxy.cache)
