"""Fault injection at the gateway and on the proxy's origin hop.

The gateway draws each admitted attempt's fate from the installed
session and fails, or runs slowed, accordingly; the proxy scales the
proxy -> origin round trip by the slowdown active when it charges it.
Neither the origin nor the topology is ever replaced.
"""

import pytest

from repro.core.proxy import FunctionProxy
from repro.faults.errors import FaultPlanError, OriginUnavailable
from repro.faults.plan import FaultPlan, OutageWindow, SlowdownWindow
from repro.faults.resilience import (
    ATTEMPT_TIMEOUT_MS,
    CircuitBreaker,
    OriginGateway,
)
from repro.network.clock import SimulatedClock
from repro.network.link import Topology
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID


class Sink:
    def __init__(self):
        self.charges = []

    def charge(self, step, sim_ms):
        self.charges.append((step, sim_ms))


@pytest.fixture()
def bound(origin, radial_params):
    return origin.templates.bind(RADIAL_TEMPLATE_ID, radial_params)


def gateway_for(plan, clock=None):
    """A gateway running ``plan``'s session."""
    clock = clock or SimulatedClock()
    gateway = OriginGateway(
        breaker=CircuitBreaker(clock), failure_rtt_ms=lambda: 300.0
    )
    gateway.faults = plan.session()
    return gateway, clock


class TestGatewayInjection:
    def test_transparent_when_no_fault_scheduled(self, origin, bound):
        gateway, _ = gateway_for(FaultPlan())
        direct = origin.execute_bound(bound)
        injected, retries = gateway.call(
            lambda: origin.execute_bound(bound), Sink()
        )
        assert retries == 0
        assert injected.server_ms == direct.server_ms
        assert len(injected.result) == len(direct.result)

    def test_outage_window_raises(self, origin, bound):
        gateway, clock = gateway_for(
            FaultPlan(outages=(OutageWindow(0.0, 1_000.0),))
        )
        calls = []

        def fetch():
            calls.append(1)
            return origin.execute_bound(bound)

        sink = Sink()
        with pytest.raises(OriginUnavailable) as info:
            gateway.call(fetch, sink)
        assert info.value.reason == "outage"
        assert calls == []  # the origin was never asked
        # Three attempts, each failing fast: one empty round trip each,
        # a backoff between consecutive ones.
        assert [step for step, _ in sink.charges] == [
            "transfer", "backoff", "transfer", "backoff", "transfer"
        ]
        assert all(
            ms == 300.0 for step, ms in sink.charges if step == "transfer"
        )
        clock.advance(1_000.0)  # past the window: healthy again
        response, _ = gateway.call(fetch, Sink())
        assert len(response.result) > 0

    def test_timeout_rate_raises_timeout(self, origin, bound):
        gateway, _ = gateway_for(FaultPlan(timeout_rate=1.0))
        sink = Sink()
        with pytest.raises(OriginUnavailable) as info:
            gateway.call(lambda: origin.execute_bound(bound), sink)
        assert info.value.reason == "timeout"
        assert [ms for step, ms in sink.charges if step == "origin"] == [
            ATTEMPT_TIMEOUT_MS
        ] * 3

    def test_slowdown_scales_server_ms(self, origin, bound):
        gateway, _ = gateway_for(
            FaultPlan(slowdowns=(SlowdownWindow(0.0, 1e9, factor=4.0),))
        )
        direct = origin.execute_bound(bound)
        slowed, _ = gateway.call(lambda: origin.execute_bound(bound), Sink())
        assert slowed.server_ms == pytest.approx(4.0 * direct.server_ms)
        assert len(slowed.result) == len(direct.result)

    def test_version_bumps_applied_once_due(self, origin):
        proxy = FunctionProxy(origin, origin.templates)
        before = origin.data_version
        proxy.install_fault_plan(FaultPlan(version_bumps=(500.0,)))
        assert proxy.origin is origin
        assert proxy.origin_data_version() == before  # not due yet
        proxy.clock.advance(600.0)
        assert proxy.origin_data_version() == before + 1
        assert proxy.origin_data_version() == before + 1  # exactly once

    def test_bumps_refused_for_an_origin_that_cannot_bump(self, origin):
        class RemoteLike:
            """The surface of ``HttpOriginClient``: no bump."""

            def __init__(self, inner):
                self.templates = inner.templates
                self.catalog = inner.catalog
                self.data_version = inner.data_version
                self.execute_bound = inner.execute_bound
                self.execute_statement = inner.execute_statement
                self.execute_remainder = inner.execute_remainder

        remote = RemoteLike(origin)
        proxy = FunctionProxy(remote, remote.templates)
        with pytest.raises(FaultPlanError, match="cannot bump"):
            proxy.install_fault_plan(FaultPlan(version_bumps=(500.0,)))
        assert proxy.fault_plan is None
        proxy.install_fault_plan(FaultPlan(error_rate=0.0))  # no bumps: fine
        assert proxy.fault_plan is not None


def forward_transfer(proxy, bound):
    """Serve ``bound`` (a miss) and return its origin-hop charge and
    the unscaled round trip for the same bytes."""
    record = proxy.serve(bound).record
    base = Topology().origin_round_trip_ms(record.origin_bytes)
    return record.steps_ms["transfer"], base


class TestOriginHop:
    def test_origin_hop_scaled_during_window(self, origin, radial_params):
        proxy = FunctionProxy(origin, origin.templates)
        proxy.install_fault_plan(
            FaultPlan(slowdowns=(SlowdownWindow(0.0, 1e6, factor=5.0),))
        )
        bind = origin.templates.bind
        charged, base = forward_transfer(
            proxy, bind(RADIAL_TEMPLATE_ID, radial_params)
        )
        assert charged == pytest.approx(5.0 * base)
        proxy.clock.advance(1e6)  # past the window
        charged, base = forward_transfer(
            proxy, bind(RADIAL_TEMPLATE_ID, dict(radial_params, ra=161.0))
        )
        assert charged == pytest.approx(base)

    def test_client_hop_never_scaled(self, origin):
        proxy = FunctionProxy(origin, origin.templates)
        plain = proxy.topology.client_round_trip_ms(1_000)
        proxy.install_fault_plan(
            FaultPlan(slowdowns=(SlowdownWindow(0.0, 1e9, factor=5.0),))
        )
        assert proxy.topology.client_round_trip_ms(1_000) == plain
        assert proxy.gateway.slowdown() == 5.0

    def test_scaled_delay_reaches_the_recorder(self, origin, radial_params):
        transfers = []

        class Recorder:
            def record_transfer(self, hop, n_bytes, ms):
                transfers.append((hop, n_bytes, ms))

        proxy = FunctionProxy(origin, origin.templates)
        topology = proxy.topology
        proxy.topology = topology.instrumented(Recorder())
        proxy.install_fault_plan(
            FaultPlan(slowdowns=(SlowdownWindow(0.0, 1e9, factor=3.0),))
        )
        record = proxy.serve(
            origin.templates.bind(RADIAL_TEMPLATE_ID, radial_params)
        ).record
        assert transfers == [
            (
                "origin",
                topology.request_bytes + record.origin_bytes,
                pytest.approx(record.steps_ms["transfer"]),
            )
        ]
        base = Topology().origin_round_trip_ms(record.origin_bytes)
        assert transfers[0][2] == pytest.approx(3.0 * base)
