"""Simulated clock and network links."""

import pytest

from repro.network.clock import SimulatedClock
from repro.network.link import NetworkLink, Topology


class TestClock:
    def test_starts_at_zero(self):
        assert SimulatedClock().now_ms == 0.0

    def test_advances(self):
        clock = SimulatedClock()
        clock.advance(10.0)
        clock.advance(2.5)
        assert clock.now_ms == pytest.approx(12.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-1.0)


class TestLink:
    def test_transfer_model(self):
        link = NetworkLink(latency_ms=10.0, bandwidth_bytes_per_ms=100.0)
        assert link.transfer_ms(0) == pytest.approx(10.0)
        assert link.transfer_ms(1000) == pytest.approx(20.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            NetworkLink(latency_ms=-1.0, bandwidth_bytes_per_ms=1.0)
        with pytest.raises(ValueError):
            NetworkLink(latency_ms=1.0, bandwidth_bytes_per_ms=0.0)

    def test_rejects_negative_payload(self):
        link = NetworkLink(latency_ms=1.0, bandwidth_bytes_per_ms=1.0)
        with pytest.raises(ValueError):
            link.transfer_ms(-1)


class TestTopology:
    def test_origin_round_trip_charges_both_directions(self):
        topology = Topology(
            proxy_origin=NetworkLink(
                latency_ms=100.0, bandwidth_bytes_per_ms=100.0
            ),
            request_bytes=500,
        )
        # Request: 100 + 5; response: 100 + 10.
        assert topology.origin_round_trip_ms(1000) == pytest.approx(215.0)

    def test_client_round_trip(self):
        topology = Topology(
            client_proxy=NetworkLink(
                latency_ms=5.0, bandwidth_bytes_per_ms=1000.0
            ),
            request_bytes=1000,
        )
        assert topology.client_round_trip_ms(0) == pytest.approx(11.0)

    def test_wan_dominates_lan_by_default(self):
        topology = Topology()
        assert topology.origin_round_trip_ms(10_000) > (
            topology.client_round_trip_ms(10_000)
        )

    def test_rejects_non_positive_request_size(self):
        with pytest.raises(ValueError, match="request size"):
            Topology(request_bytes=0)
        with pytest.raises(ValueError, match="request size"):
            Topology(request_bytes=-600)
