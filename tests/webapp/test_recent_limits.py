"""``?n=`` means the same on every app: the newest ``n``, none when
``n`` is zero or negative."""

import pytest

flask = pytest.importorskip("flask")

from repro.cluster import Shard, ShardRouter
from repro.core.proxy import FunctionProxy
from repro.obs.events import (
    EV_BREAKER_OPEN,
    EV_SHED_ACTIVATED,
    EventRecorder,
)
from repro.webapp.origin_app import create_origin_app
from repro.webapp.proxy_app import create_proxy_app
from repro.webapp.router_app import create_router_app

RADIAL = "/search/Radial?ra={ra}&dec=8&radius=10"


def two_events(recorder):
    recorder.emit(EV_BREAKER_OPEN, at_ms=10.0)
    recorder.emit(EV_SHED_ACTIVATED, at_ms=20.0)


def proxy_events(origin):
    proxy = FunctionProxy(origin, origin.templates)
    client = create_proxy_app(proxy, event_capacity=8).test_client()
    two_events(proxy.obs.events)
    return client, "/events", "events"


def origin_events(origin):
    client = create_origin_app(origin, event_capacity=8).test_client()
    two_events(origin.instrumentation.events)
    return client, "/events", "events"


def router(origin, **kwargs):
    shards = tuple(
        Shard(f"shard-{i}", FunctionProxy(origin, origin.templates))
        for i in range(2)
    )
    return ShardRouter(shards, **kwargs)


def router_events(origin):
    routed = router(origin, events=EventRecorder(capacity=8))
    client = create_router_app(routed).test_client()
    two_events(routed.events)
    return client, "/events", "events"


def router_decisions(origin):
    client = create_router_app(router(origin)).test_client()
    for ra in (164, 165):
        assert client.get(RADIAL.format(ra=ra)).status_code == 200
    return client, "/decisions", "decisions"


@pytest.mark.parametrize("n,expected", [(1, 1), (0, 0), (-1, 0)])
@pytest.mark.parametrize(
    "surface", [proxy_events, origin_events, router_events, router_decisions]
)
def test_n_keeps_the_newest_and_nonpositive_keeps_none(
    origin, surface, n, expected
):
    client, route, key = surface(origin)
    everything = client.get(route).get_json()[key]
    assert len(everything) == 2
    limited = client.get(f"{route}?n={n}").get_json()[key]
    assert limited == everything[len(everything) - expected:]
