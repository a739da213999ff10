"""A turned-away query is counted once, from its record.

Every way a query is turned away ends in ``FunctionProxy.reject``: a
quota shed at arrival, a deadline drop at dispatch, and a shard router
with no live shard.  ``admission_shed_total`` and the ``admit.shed``
profile row are both read off those records, so each counts one per
turned-away record whatever the reason.  The health rules read the
same counter through the ``shed_per_s`` lane.
"""

from collections import Counter

import pytest

from repro.admission import AdmissionConfig, TenantQuota
from repro.cluster.router import RouterConfig, Shard, ShardRouter
from repro.core.proxy import FunctionProxy
from repro.core.stats import QueryStatus
from repro.faults.plan import FaultPlan, SlowdownWindow
from repro.faults.shard import ShardCrashPlan, ShardFaultWindow
from repro.obs.health import hit_ratio
from repro.obs.instrument import ProxyInstrumentation
from repro.obs.profiling import Profiler
from repro.obs.timeseries import TimeSeriesRecorder
from repro.sched import EventLoop, ProxyFrontend
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


def shed_counter(proxy) -> Counter:
    values = proxy.obs.registry.snapshot()["admission_shed_total"]["values"]
    return Counter(
        {
            labels.split('"')[1]: int(count)
            for labels, count in values.items()
        }
    )


def test_every_turned_away_record_is_counted_once(origin, bind):
    proxy = FunctionProxy(
        origin,
        origin.templates,
        instrumentation=ProxyInstrumentation(profiler=Profiler()),
        admission=AdmissionConfig(
            max_inflight=1,
            max_queue_depth=4,
            quotas={"m": TenantQuota(rate_per_s=0.001, burst=1.0)},
        ),
        # A 12x slower origin: one service outlasts the queue deadline.
        fault_plan=FaultPlan(
            slowdowns=(SlowdownWindow(0.0, 1e12, factor=12.0),)
        ),
    )
    frontend = ProxyFrontend(proxy, EventLoop())
    frontend.submit(bind(ra=161.0), tenant="m")  # takes the only slot
    frontend.submit(bind(ra=162.0), tenant="m")  # quota
    frontend.submit(bind(ra=163.0))  # queued past the deadline
    frontend.loop.run()
    router = ShardRouter(
        (Shard("shard-0", proxy),),
        config=RouterConfig(failover=False),
        crash_plan=ShardCrashPlan(
            faults=(ShardFaultWindow("shard-0", "crash", 0.0),)
        ),
    )
    router.serve(bind(ra=165.0))  # shard-down

    turned_away = Counter(
        record.failure_reason
        for record in proxy.stats.records
        if record.status is QueryStatus.REJECTED
    )
    assert turned_away == {"quota": 1, "deadline": 1, "shard-down": 1}
    assert shed_counter(proxy) == turned_away
    stages = proxy.obs.profiler.snapshot()["stages"]
    assert stages["admit.shed"]["calls"] == sum(turned_away.values())


def test_a_live_windows_hit_ratio_is_its_records_hit_share(origin, bind):
    interval_ms = 600_000.0  # every query below lands in one window
    proxy = FunctionProxy(
        origin,
        origin.templates,
        instrumentation=ProxyInstrumentation(
            timeseries=TimeSeriesRecorder(interval_ms=interval_ms)
        ),
        admission=AdmissionConfig(
            quotas={"m": TenantQuota(rate_per_s=0.001, burst=1.0)}
        ),
    )
    proxy.serve(bind())  # seeds the series: not in the window
    proxy.serve(bind())  # exact
    proxy.serve(bind(radius=4.0))  # contained
    proxy.serve(bind(), tenant="m")  # exact, the tenant's one token
    proxy.serve(bind(), tenant="m")  # quota shed
    proxy.serve(bind(), tenant="m")  # quota shed
    proxy.serve(bind(ra=170.0))  # disjoint: the origin
    proxy.clock.advance(interval_ms)
    proxy.serve(bind())  # exact; its respond closes the window

    window = proxy.stats.records[1:]
    (sample,) = proxy.obs.timeseries.samples()
    assert sample["rates"]["shed_per_s"] > 0
    share = sum(record.hit for record in window) / len(window)
    assert share == pytest.approx(4 / 7)
    assert hit_ratio(sample) == pytest.approx(share)
    ratios, _, _ = proxy.obs.timeseries.health_window()
    assert ratios == [pytest.approx(share)]
