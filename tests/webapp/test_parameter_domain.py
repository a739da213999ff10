"""A parameter the region cannot describe is a 400 at the proxy.

``radius=10`` then ``radius=21600`` at one centre used to be ``200 ·
contained · served`` with the cached rows where the origin answers 400:
the chord ``2·sin(radians(r/60)/2)`` folds back past 180 degrees, so
the huge search bound to a *small* sphere inside the cached one.  The
function template now declares the radius it can describe and binding
refuses the rest, in front of every cache.
"""

import pytest

flask = pytest.importorskip("flask")

from repro.cluster import Shard, ShardRouter
from repro.core.proxy import FunctionProxy
from repro.webapp.proxy_app import create_proxy_app
from repro.webapp.router_app import create_router_app

CACHED = "/search/Radial?ra=164&dec=8&radius=10"
FOLDED = "/search/Radial?ra=164&dec=8&radius=21600"


def _proxy_tier(origin):
    proxy = FunctionProxy(origin, origin.templates)
    return create_proxy_app(proxy), [proxy]


def _router_tier(origin):
    proxies = [FunctionProxy(origin, origin.templates) for _ in range(3)]
    router = ShardRouter(
        tuple(Shard(f"shard-{i}", p) for i, p in enumerate(proxies))
    )
    return create_router_app(router), proxies


@pytest.mark.parametrize("build", [_proxy_tier, _router_tier])
def test_a_folded_radius_is_refused_and_the_cache_is_untouched(
    origin, build
):
    app, proxies = build(origin)
    client = app.test_client()
    first = client.get(CACHED)
    assert first.status_code == 200
    entries = [e.entry_id for p in proxies for e in p.cache.entries()]
    assert len(entries) == 1
    for _ in range(2):
        refused = client.get(FOLDED)
        assert refused.status_code == 400
        assert "$radius=21600" in refused.get_json()["error"]
    # Refused at binding: no proxy counted a query, no entry moved.
    assert sum(len(p.stats.records) for p in proxies) == 1
    assert [
        e.entry_id for p in proxies for e in p.cache.entries()
    ] == entries
    again = client.get(CACHED)
    assert again.status_code == 200
    assert again.headers["X-Cache-Status"] == "exact"
    assert again.get_data() == first.get_data()
