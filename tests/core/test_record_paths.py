"""One record per query, on every path, handed over once.

Each scenario drives a real proxy down one path of the serve logic —
the four cache cases, every degradation, every way a query is turned
away — and every call is checked twice: the emitted record equals,
field for field, what the same scenario produced at the commit
*before* the record became one object filled in as the query runs
(``golden/record_paths.json``; regenerating it is not a switch here —
it is the scenario functions below run against that older checkout),
and the record was handed exactly once to everything that counts
queries.
"""

import json
from pathlib import Path

import pytest

from repro.admission import AdmissionConfig, TenantQuota
from repro.core.proxy import FunctionProxy
from repro.core.schemes import CachingScheme
from repro.core.stats import QueryOutcome
from repro.faults.plan import FaultPlan, OutageWindow
from repro.faults.resilience import BreakerState
from repro.server.origin import OriginServer
from repro.sqlparser.errors import ParseError
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID
from tests.conftest import SMALL_SKY

GOLDEN = Path(__file__).resolve().parent / "golden" / "record_paths.json"
ALWAYS_DOWN = FaultPlan(outages=(OutageWindow(0.0, 1e12),))


def radial(origin, ra=164.0, radius=10.0):
    return origin.templates.bind(
        RADIAL_TEMPLATE_ID,
        {
            "ra": ra,
            "dec": 8.0,
            "radius": radius,
            "r_min": -9999.0,
            "r_max": 9999.0,
        },
    )


def queries_counted(proxy) -> float:
    family = proxy.obs.registry.snapshot()["proxy_queries_total"]
    return sum(family["values"].values())


class Drive:
    """Makes calls against one proxy; after each, checks the hand-over
    and keeps the record in the golden's form."""

    def __init__(self, proxy) -> None:
        self.proxy = proxy
        self.records = []

    def _counts(self):
        proxy = self.proxy
        return (
            len(proxy.stats.records),
            len(proxy.obs.decisions),
            queries_counted(proxy),
        )

    def __call__(self, serve, *args, **kwargs):
        before = self._counts()
        response = serve(*args, **kwargs)
        assert self._counts() == tuple(n + 1 for n in before)
        record = response.record
        assert record is self.proxy.stats.records[-1]
        assert sum(record.steps_ms.values()) == record.response_ms
        as_dict = record.to_dict(include_wall=False)
        # Key order is part of the contract; JSON objects lose it.
        as_dict["steps_ms"] = [list(kv) for kv in as_dict["steps_ms"].items()]
        # What the explain layer was told: the sealed disposition and
        # the reasoning left on the way (tunnel / fallback notes).
        decision = self.proxy.obs.decisions.get(record.index).to_dict()
        as_dict["decision"] = {
            "action_code": decision["action_code"],
            "status": decision["status"],
            "outcome": decision["outcome"],
            "notes": decision["notes"],
            "candidates": [c["relation"] for c in decision["candidates"]],
            "admitted": decision.get("admitted"),
            "consolidated": decision["consolidated"],
        }
        self.records.append(as_dict)
        return response

    def until_breaker_opens(self, origin) -> None:
        """Fail cache-missing queries until the breaker opens."""
        ra = 100.0
        while self.proxy.breaker.state is not BreakerState.OPEN:
            self(self.proxy.serve, radial(origin, ra=ra, radius=0.5))
            ra += 5.0


def drive(origin, **kwargs) -> Drive:
    return Drive(FunctionProxy(origin, origin.templates, **kwargs))


class BadSqlOrigin:
    """The origin answers every execution with a query-level error."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def execute_bound(self, bound):
        raise ParseError("bad SQL")


# ------------------------------------------------------------ scenarios
def exact(origin):
    run = drive(origin)
    run(run.proxy.serve, radial(origin))
    run(run.proxy.serve, radial(origin))
    return run


def contained(origin):
    run = drive(origin)
    run(run.proxy.serve, radial(origin, radius=15.0))
    run(run.proxy.serve, radial(origin, radius=6.0))
    return run


def overlap(origin):
    run = drive(origin)
    run(run.proxy.serve, radial(origin, radius=12.0))
    run(run.proxy.serve, radial(origin, ra=164.25, radius=12.0))
    return run


def region_containment(origin):
    run = drive(origin)
    run(run.proxy.serve, radial(origin, radius=5.0))
    run(run.proxy.serve, radial(origin, radius=20.0))
    return run


def forwarded_by_scheme(origin):
    run = drive(origin, scheme=CachingScheme.PASSIVE)
    run(run.proxy.serve, radial(origin, radius=15.0))
    run(run.proxy.serve, radial(origin, radius=6.0))
    return run


def tunnel_scheme_never_caches(origin):
    run = drive(origin, scheme=CachingScheme.NO_CACHE)
    run(run.proxy.serve, radial(origin))
    return run


def queue_wait_is_charged(origin):
    run = drive(origin)
    run(run.proxy.serve_admitted, radial(origin), queue_wait_ms=123.0)
    return run


def degraded_while_breaker_open(origin):
    run = drive(origin)
    run(run.proxy.serve, radial(origin, radius=15.0))
    run.proxy.install_fault_plan(ALWAYS_DOWN)
    run.until_breaker_opens(origin)
    run(run.proxy.serve, radial(origin, radius=15.0))  # exact
    run(run.proxy.serve, radial(origin, radius=6.0))  # contained
    return run


def partial_after_retries(origin):
    run = drive(origin)
    run(run.proxy.serve, radial(origin, radius=12.0))
    run.proxy.install_fault_plan(ALWAYS_DOWN)
    run(run.proxy.serve, radial(origin, ra=164.25, radius=12.0))
    return run


def partial_breaker_open(origin):
    run = drive(origin)
    run(run.proxy.serve, radial(origin, radius=5.0))
    run.proxy.install_fault_plan(ALWAYS_DOWN)
    run.until_breaker_opens(origin)
    run(run.proxy.serve, radial(origin, radius=20.0))
    return run


def failed_uncached(origin):
    run = drive(origin)
    run.proxy.install_fault_plan(ALWAYS_DOWN)
    run(run.proxy.serve, radial(origin))
    return run


def query_error(origin):
    run = drive(origin)
    run.proxy.origin = BadSqlOrigin(origin)
    run(run.proxy.serve, radial(origin))
    return run


def shed(origin):
    run = drive(
        origin,
        admission=AdmissionConfig(
            quotas={"m": TenantQuota(rate_per_s=0.001, burst=1.0)}
        ),
    )
    run(run.proxy.serve, radial(origin), tenant="m")
    run(run.proxy.serve, radial(origin, ra=165.0), tenant="m")
    return run


def queued_timeout(origin):
    run = drive(origin)
    run(
        run.proxy.reject,
        radial(origin),
        "deadline",
        QueryOutcome.QUEUED_TIMEOUT,
        queue_wait_ms=250.0,
    )
    return run


SCENARIOS = [
    exact,
    contained,
    overlap,
    region_containment,
    forwarded_by_scheme,
    tunnel_scheme_never_caches,
    queue_wait_is_charged,
    degraded_while_breaker_open,
    partial_after_retries,
    partial_breaker_open,
    failed_uncached,
    query_error,
    shed,
    queued_timeout,
]


@pytest.fixture(scope="module")
def sky():
    """An origin no other test module has touched."""
    return OriginServer.skyserver(SMALL_SKY)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda fn: fn.__name__)
def test_every_record_is_the_parents(scenario, sky, golden):
    assert scenario(sky).records == golden[scenario.__name__]


def test_the_golden_covers_every_path(golden):
    """The golden is only a guard if each path's mark is in it."""
    last = {name: records[-1] for name, records in golden.items()}
    assert set(last) == {fn.__name__ for fn in SCENARIOS}

    def facts(name):
        record = last[name]
        return (
            record["status"],
            record["outcome"],
            record["failure_reason"],
            record["contacted_origin"],
            record["retries"],
        )

    assert facts("exact") == ("exact", "served", "", False, 0)
    assert facts("contained") == ("contained", "served", "", False, 0)
    assert facts("overlap") == ("overlap", "served", "", True, 0)
    assert facts("region_containment")[0] == "region-containment"
    assert last["overlap"]["origin_bytes"] > 0
    assert 0 < last["overlap"]["tuples_from_cache"] < (
        last["overlap"]["tuples_total"]
    )
    assert facts("forwarded_by_scheme")[0] == "forwarded"
    assert facts("tunnel_scheme_never_caches") == (
        "no-cache", "served", "", True, 0,
    )
    assert last["queue_wait_is_charged"]["steps_ms"][0] == [
        "admit.queue", 123.0,
    ]
    assert [r["outcome"] for r in golden["degraded_while_breaker_open"]][
        -2:
    ] == ["degraded", "degraded"]
    assert facts("partial_after_retries") == (
        "overlap", "partial", "outage", True, 2,
    )
    assert facts("partial_breaker_open") == (
        "region-containment", "partial", "breaker-open", True, 0,
    )
    for name in ("partial_after_retries", "partial_breaker_open"):
        assert last[name]["origin_bytes"] == 0
        assert last[name]["tuples_from_cache"] == last[name]["tuples_total"]
    assert facts("failed_uncached") == ("failed", "failed", "outage", True, 2)
    assert facts("query_error") == (
        "failed", "failed", "query-error", True, 0,
    )
    assert facts("shed") == ("rejected", "shed", "quota", False, 0)
    assert facts("queued_timeout") == (
        "rejected", "queued-timeout", "deadline", False, 0,
    )
    assert last["queued_timeout"]["steps_ms"] == [["admit.queue", 250.0]]
