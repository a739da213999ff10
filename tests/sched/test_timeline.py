"""One monotone timeline per flight recorder under the event loop.

A persister journals on its proxy's work clock, and the fault plan
makes version bumps due on it, while arrivals happen on the loop: the
snapshot events (EV10) and the flushes (EV06) must still land on the
recorder's one axis.
"""

import pytest

from repro.admission import AdmissionConfig
from repro.cluster import ClusterFrontend, RouterConfig, Shard, ShardRouter
from repro.core.proxy import FunctionProxy
from repro.faults.plan import FaultPlan
from repro.obs import EventRecorder, ProxyInstrumentation
from repro.persistence import CachePersister
from repro.sched import EventLoop, ProxyFrontend
from repro.server.origin import OriginServer
from repro.skydata.generator import SkyCatalogConfig
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID
from repro.workload import RadialTraceConfig, generate_radial_trace

SKY = SkyCatalogConfig(
    n_objects=5_000,
    ra_min=160.0,
    ra_max=170.0,
    dec_min=5.0,
    dec_max=12.0,
    seed=42,
)
ARRIVAL_GAP_MS = 5_000.0
PLAN = FaultPlan(version_bumps=(10_000.0, 30_000.0))


@pytest.fixture()
def private_origin():
    # The plan bumps the origin's data version: no shared origin.
    return OriginServer.skyserver(SKY)


def build_proxy(origin, state_dir, **kwargs):
    return FunctionProxy(
        origin,
        origin.templates,
        persistence=CachePersister(state_dir, snapshot_every=4),
        admission=AdmissionConfig(max_inflight=2, max_queue_depth=8),
        instrumentation=ProxyInstrumentation(
            events=EventRecorder(capacity=1000)
        ),
        fault_plan=PLAN,
        **kwargs,
    )


def drive(frontend, loop):
    """40 Radial arrivals, ``ARRIVAL_GAP_MS`` apart on the loop."""
    templates = frontend.templates
    trace = generate_radial_trace(RadialTraceConfig(n_queries=40, seed=3))
    for position, query in enumerate(trace):
        bound = templates.bind(RADIAL_TEMPLATE_ID, query.param_dict())
        loop.at(
            position * ARRIVAL_GAP_MS,
            lambda bound=bound: frontend.submit(bound),
        )
    loop.run()


def assert_one_timeline(events, loop):
    stamps = [event["at_ms"] for event in events.recent()]
    assert stamps, "the scenario recorded no events"
    assert stamps == sorted(stamps)
    checkpoints = [
        event["at_ms"] for event in events.recent() if event["code"] == "EV10"
    ]
    assert checkpoints, "the scenario wrote no snapshot"
    for at_ms in checkpoints:
        assert 0.0 <= at_ms <= loop.now_ms


def test_a_proxy_recorder_keeps_one_timeline(private_origin, tmp_path):
    loop = EventLoop()
    proxy = build_proxy(private_origin, tmp_path)
    drive(ProxyFrontend(proxy, loop), loop)
    codes = proxy.obs.events.counts()
    assert codes.get("EV06", 0) >= 2 and codes.get("EV10", 0) >= 2
    assert_one_timeline(proxy.obs.events, loop)


def test_every_shard_recorder_keeps_one_timeline(private_origin, tmp_path):
    loop = EventLoop()
    shards = [
        Shard(
            f"shard-{index}",
            build_proxy(private_origin, tmp_path / f"shard-{index}"),
        )
        for index in range(2)
    ]
    router = ShardRouter(
        shards,
        config=RouterConfig(region_partitions={RADIAL_TEMPLATE_ID: 0.02}),
    )
    drive(ClusterFrontend(router, loop), loop)
    for shard in shards:
        assert_one_timeline(shard.proxy.obs.events, loop)
