"""``serve`` behind the admission gate: shed records, tunnel, wait."""

import threading

import pytest

from repro.admission import (
    AdmissionConfig,
    TenantQuota,
)
from repro.cluster import Shard, ShardRouter
from repro.core.proxy import FunctionProxy
from repro.core.schemes import CachingScheme
from repro.core.stats import QueryOutcome, QueryStatus
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID


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


@pytest.fixture()
def make_proxy(origin):
    def build(config=None, **kwargs):
        return FunctionProxy(
            origin, origin.templates, admission=config, **kwargs
        )

    return build


class TestServeGate:
    def test_no_controller_serves_unchanged(self, make_proxy, bind):
        proxy = make_proxy()
        response = proxy.serve(bind())
        assert response.record.outcome is QueryOutcome.SERVED
        assert proxy.admission is None

    def test_admitted_query_serves_and_releases(self, make_proxy, bind):
        proxy = make_proxy(AdmissionConfig(max_inflight=1))
        response = proxy.serve(bind())
        assert response.record.outcome is QueryOutcome.SERVED
        assert proxy.admission.inflight == 0
        assert proxy.admission.snapshot()["admitted"] == 1

    def test_quota_shed_returns_a_structured_record(self, make_proxy, bind):
        proxy = make_proxy(
            AdmissionConfig(
                quotas={"m": TenantQuota(rate_per_s=0.001, burst=1.0)}
            )
        )
        assert proxy.serve(bind(), tenant="m").record.outcome is (
            QueryOutcome.SERVED
        )
        response = proxy.serve(bind(ra=165.0), tenant="m")
        record = response.record
        assert record.status is QueryStatus.REJECTED
        assert record.outcome is QueryOutcome.SHED
        assert record.failure_reason == "quota"
        assert not record.contacted_origin
        assert len(response.result) == 0
        # The shed query is fully accounted: indexed and recorded.
        assert record.index == 2
        assert len(proxy.stats.records) == 2
        assert not record.answered

    def test_shed_never_raises_and_never_touches_the_cache(
        self, make_proxy, bind
    ):
        proxy = make_proxy(AdmissionConfig(max_inflight=1, max_queue_depth=1))
        # Fill capacity from the outside so the next serve sheds.
        assert proxy.admission.try_admit("t").admitted
        assert proxy.admission.try_admit("t").admitted
        response = proxy.serve(bind())
        assert response.record.outcome is QueryOutcome.SHED
        assert response.record.failure_reason == "queue-full"
        assert len(proxy.cache) == 0

    def test_shed_decision_trace_gets_da10(self, make_proxy, bind):
        proxy = make_proxy(
            AdmissionConfig(
                quotas={"m": TenantQuota(rate_per_s=0.001, burst=1.0)}
            )
        )
        proxy.serve(bind(), tenant="m")
        proxy.serve(bind(ra=165.0), tenant="m")
        trace = proxy.obs.decisions.get(2)
        assert trace is not None
        assert trace.to_dict()["action_code"] == "DA10"

    def test_shed_metrics(self, make_proxy, bind):
        proxy = make_proxy(
            AdmissionConfig(
                quotas={"m": TenantQuota(rate_per_s=0.001, burst=1.0)}
            )
        )
        proxy.serve(bind(), tenant="m")
        proxy.serve(bind(ra=165.0), tenant="m")
        exposition = proxy.obs.registry.exposition()
        assert 'admission_shed_total{reason="quota"} 1' in exposition
        assert (
            'admission_quota_denials_total{tenant="m"} 1' in exposition
        )
        assert 'degraded_responses_total{kind="shed"} 1' in exposition


class TestShedIsNoHit:
    def test_a_shed_query_is_no_cache_hit(self, make_proxy, bind):
        """One forwarded radial, then three sheds: nothing was
        answered from the cache, so no view counts a hit."""
        proxy = make_proxy(AdmissionConfig(max_inflight=1, max_queue_depth=1))
        bound = bind()
        assert proxy.serve(bound).record.contacted_origin
        for _ in range(3):
            record = proxy.reject(bound, "queue-full", QueryOutcome.SHED).record
            assert not record.contacted_origin and not record.hit
        [slo] = proxy.obs.slo.snapshot().values()
        assert (slo["queries"], slo["hits"], slo["hit_ratio"]) == (4, 0, 0.0)
        assert proxy.stats.hit_ratio == 0.0
        assert (
            'slo_hit_ratio{template="skyserver.radial"} 0'
            in proxy.obs.registry.exposition().splitlines()
        )
        # A cache answer is a hit in both.
        assert proxy.serve(bound).record.hit
        assert proxy.obs.slo.snapshot()["skyserver.radial"]["hits"] == 1
        assert proxy.stats.hit_ratio == pytest.approx(1 / 5)


class TestDegradeToTunnel:
    def test_a_caching_fallback_is_refused(self, make_proxy, bind):
        """The shard router's origin fallback tunnels by its own
        scheme, so a fallback that could cache is refused up front."""
        with pytest.raises(ValueError, match="never caches"):
            ShardRouter([Shard("s", make_proxy())], fallback=make_proxy())
        tunnel = make_proxy(scheme=CachingScheme.NO_CACHE)
        ShardRouter([Shard("s", make_proxy())], fallback=tunnel)
        response = tunnel.serve_admitted(bind())
        assert response.record.status is QueryStatus.NO_CACHE
        assert response.record.outcome is QueryOutcome.SERVED
        assert len(tunnel.cache) == 0

    def test_backlog_is_served_through_the_cache(self, make_proxy, bind):
        proxy = make_proxy(AdmissionConfig(max_inflight=1, max_queue_depth=4))
        # Occupy the only slot: the next serve is backlog, and admission
        # never degrades it.
        assert proxy.admission.try_admit("t").admitted
        response = proxy.serve(bind())
        assert response.record.status is not QueryStatus.NO_CACHE
        assert len(proxy.cache) == 1


class TestQueueWaitAccounting:
    def test_queue_wait_is_charged_to_the_record(self, make_proxy, bind):
        proxy = make_proxy()
        before = proxy.clock.now_ms
        response = proxy.serve_admitted(bind(), queue_wait_ms=123.0)
        record = response.record
        assert record.steps_ms["admit.queue"] == pytest.approx(123.0)
        assert record.response_ms >= 123.0
        # The wait advanced the proxy's simulated clock too.
        assert proxy.clock.now_ms - before >= 123.0

    def test_reject_charges_wait_and_maps_queued_timeout(
        self, make_proxy, bind
    ):
        proxy = make_proxy(AdmissionConfig())
        response = proxy.reject(
            bind(),
            "deadline",
            QueryOutcome.QUEUED_TIMEOUT,
            queue_wait_ms=500.0,
        )
        record = response.record
        assert record.status is QueryStatus.REJECTED
        assert record.outcome is QueryOutcome.QUEUED_TIMEOUT
        assert record.failure_reason == "deadline"
        assert record.steps_ms["admit.queue"] == pytest.approx(500.0)
        trace = proxy.obs.decisions.get(record.index)
        assert trace.to_dict()["action_code"] == "DA11"


class TestThreadedSaturation:
    def test_concurrent_serves_shed_gracefully(self, make_proxy, bind):
        """More threads than capacity: every call returns a record,
        admitted + shed account for every thread, and inflight drains
        to zero."""
        proxy = make_proxy(
            AdmissionConfig(max_inflight=2, max_queue_depth=2)
        )
        n = 12
        barrier = threading.Barrier(n)
        responses = [None] * n
        failures = []

        def run(slot):
            try:
                barrier.wait(timeout=10)
                responses[slot] = proxy.serve(
                    bind(ra=161.0 + 0.5 * slot, radius=2.0)
                )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        threads = [
            threading.Thread(target=run, args=(slot,)) for slot in range(n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures
        assert all(r is not None for r in responses)
        outcomes = [r.record.outcome for r in responses]
        served = sum(o is not QueryOutcome.SHED for o in outcomes)
        shed = sum(o is QueryOutcome.SHED for o in outcomes)
        assert served + shed == n
        assert served >= 1  # capacity admits at least the first wave
        snapshot = proxy.admission.snapshot()
        assert snapshot["submitted"] == n
        assert snapshot["admitted"] == served
        assert snapshot["shed"] == shed
        assert proxy.admission.inflight == 0
        assert len(proxy.stats.records) == n
        assert {r.index for r in proxy.stats.records} == set(
            range(1, n + 1)
        )
