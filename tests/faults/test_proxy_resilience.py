"""The proxy under origin faults: retry, breaker, degradation."""

import pytest

from repro.core.proxy import FunctionProxy
from repro.core.schemes import CachingScheme
from repro.core.stats import QueryOutcome, QueryStatus
from repro.faults.errors import OriginUnavailableError
from repro.faults.plan import FaultPlan, OutageWindow
from repro.faults.resilience import BREAKER_COOLDOWN_MS, BreakerState
from repro.sqlparser.errors import ParseError
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID

ALWAYS_DOWN = FaultPlan(outages=(OutageWindow(0.0, 1e12),))


@pytest.fixture()
def make_proxy(origin):
    def build(scheme=CachingScheme.FULL_SEMANTIC, **kwargs):
        return FunctionProxy(origin, origin.templates, scheme=scheme,
                             **kwargs)

    return build


@pytest.fixture()
def bind(templates, radial_params):
    def run(**overrides):
        return templates.bind(
            RADIAL_TEMPLATE_ID, dict(radial_params, **overrides)
        )

    return run


def drive_breaker_open(proxy, bind):
    """Fail cache-missing queries until the breaker opens."""
    ra = 100.0
    while proxy.breaker.state is not BreakerState.OPEN:
        proxy.serve(bind(ra=ra, radius=0.5))
        ra += 5.0


class FlakyOrigin:
    """Delegating wrapper failing the first N origin executions."""

    def __init__(self, inner, failures, exc_factory=None):
        self._inner = inner
        self._left = failures
        self._exc_factory = exc_factory or (
            lambda: OriginUnavailableError("injected flake")
        )

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _maybe_fail(self):
        if self._left > 0:
            self._left -= 1
            raise self._exc_factory()

    def execute_bound(self, bound):
        self._maybe_fail()
        return self._inner.execute_bound(bound)

    def execute_remainder(self, bound, holes):
        self._maybe_fail()
        return self._inner.execute_remainder(bound, holes)


class TestRetries:
    def test_transient_failure_retried_to_success(
        self, make_proxy, bind, origin
    ):
        proxy = make_proxy()
        proxy.origin = FlakyOrigin(origin, failures=2)
        response = proxy.serve(bind())
        record = response.record
        assert record.outcome is QueryOutcome.SERVED
        assert record.status is QueryStatus.DISJOINT
        assert record.retries == 2
        assert record.steps_ms["backoff"] > 0
        assert len(response.result) > 0
        assert proxy.cache.exact_match(bind()) is not None

    def test_retries_show_up_in_metrics(self, make_proxy, bind, origin):
        proxy = make_proxy()
        proxy.origin = FlakyOrigin(origin, failures=1)
        proxy.serve(bind())
        snapshot = proxy.obs.registry.snapshot()
        assert snapshot["origin_retries_total"]["values"][""] == 1


class TestOutageDegradation:
    def test_exact_hit_degrades_while_breaker_open(self, make_proxy, bind):
        proxy = make_proxy()
        warm = proxy.serve(bind())
        assert warm.record.outcome is QueryOutcome.SERVED
        proxy.install_fault_plan(ALWAYS_DOWN)
        drive_breaker_open(proxy, bind)
        response = proxy.serve(bind())
        assert response.record.status is QueryStatus.EXACT
        assert response.record.outcome is QueryOutcome.DEGRADED
        assert len(response.result) == len(warm.result)

    def test_contained_degrades_while_breaker_open(self, make_proxy, bind):
        proxy = make_proxy()
        proxy.serve(bind(radius=15.0))
        proxy.install_fault_plan(ALWAYS_DOWN)
        drive_breaker_open(proxy, bind)
        response = proxy.serve(bind(radius=6.0))
        assert response.record.status is QueryStatus.CONTAINED
        assert response.record.outcome is QueryOutcome.DEGRADED

    def test_overlap_degrades_to_partial_cached_portion(
        self, make_proxy, bind
    ):
        proxy = make_proxy()
        warm = proxy.serve(bind(radius=12.0))
        proxy.install_fault_plan(ALWAYS_DOWN)
        drive_breaker_open(proxy, bind)
        shifted = bind(ra=164.25, radius=12.0)
        response = proxy.serve(shifted)
        record = response.record
        assert record.outcome is QueryOutcome.PARTIAL
        assert record.status is QueryStatus.OVERLAP
        assert record.tuples_from_cache == len(response.result)
        assert 0 < len(response.result) < len(warm.result) * 2
        # The incomplete region must not be cached as if it were full.
        assert proxy.cache.exact_match(shifted) is None

    def test_uncacheable_query_fails_structurally(self, make_proxy, bind):
        proxy = make_proxy()
        proxy.install_fault_plan(ALWAYS_DOWN)
        response = proxy.serve(bind())
        record = response.record
        assert record.status is QueryStatus.FAILED
        assert record.outcome is QueryOutcome.FAILED
        assert record.failure_reason == "outage"
        assert record.retries == 2  # three attempts, two retries
        assert len(response.result) == 0
        assert not record.answered

    def test_no_uncaught_exceptions_across_a_whole_outage(
        self, make_proxy, bind
    ):
        proxy = make_proxy()
        proxy.install_fault_plan(ALWAYS_DOWN)
        for step in range(8):
            response = proxy.serve(bind(ra=150.0 + step, radius=1.0))
            assert response.record.outcome is QueryOutcome.FAILED
        assert proxy.stats.answered_fraction == 0.0


class TestRecovery:
    def test_breaker_recloses_after_outage_ends(self, make_proxy, bind):
        proxy = make_proxy()
        proxy.install_fault_plan(ALWAYS_DOWN)
        drive_breaker_open(proxy, bind)
        proxy.install_fault_plan(None)  # origin restored
        # Still open until the cooldown elapses on the simulated clock.
        blocked = proxy.serve(bind())
        assert blocked.record.failure_reason == "breaker-open"
        proxy.clock.advance(BREAKER_COOLDOWN_MS)
        probe = proxy.serve(bind())
        assert probe.record.outcome is QueryOutcome.SERVED
        assert proxy.breaker.state is BreakerState.CLOSED

    def test_degraded_responses_counted_by_kind(self, make_proxy, bind):
        proxy = make_proxy()
        proxy.serve(bind())
        proxy.install_fault_plan(ALWAYS_DOWN)
        drive_breaker_open(proxy, bind)
        proxy.serve(bind())  # degraded exact hit
        snapshot = proxy.obs.registry.snapshot()
        degraded = snapshot["degraded_responses_total"]["values"]
        assert degraded['{kind="degraded"}'] == 1
        assert degraded['{kind="failed"}'] >= 2
        assert snapshot["breaker_state"]["values"][""] == 2  # open


class TestQueryErrorWrapping:
    def test_origin_query_error_becomes_failed_outcome(
        self, make_proxy, bind, origin
    ):
        proxy = make_proxy()
        proxy.origin = FlakyOrigin(
            origin, failures=99, exc_factory=lambda: ParseError("bad SQL")
        )
        response = proxy.serve(bind())
        record = response.record
        assert record.status is QueryStatus.FAILED
        assert record.outcome is QueryOutcome.FAILED
        assert record.failure_reason == "query-error"
        assert record.retries == 0  # not retryable
        # A query-level error is not origin unhealthiness.
        assert proxy.breaker.state is BreakerState.CLOSED
