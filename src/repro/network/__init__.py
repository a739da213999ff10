"""Simulated network and time.

The paper measures wall-clock response times between a browser emulator
in Hong Kong and the SkyServer.  We cannot reproduce that testbed, so
time is *simulated*: every component charges its work to a
:class:`~repro.network.clock.SimulatedClock` through explicit cost
models (:mod:`repro.server.costs` for the origin,
:mod:`repro.core.costs` for the proxy) and
:class:`~repro.network.link.NetworkLink` for transfer delays.

The result is deterministic and laptop-scale while preserving the
*relative* costs that drive the paper's findings: WAN round trips and
server execution dominate; local cache answering is cheap; remainder
queries cost the server more than plain ones.
"""

from repro.network.clock import Clock, SimulatedClock
from repro.network.link import NetworkLink, Topology

__all__ = ["Clock", "NetworkLink", "SimulatedClock", "Topology"]
