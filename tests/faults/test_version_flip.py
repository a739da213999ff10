"""Cache invalidation when the origin's data version moves.

These tests mutate ``data_version``, so they build a private origin
rather than using the session-shared fixture.
"""

import pytest

from repro.core.proxy import FunctionProxy
from repro.core.schemes import CachingScheme
from repro.core.stats import QueryStatus
from repro.faults.plan import FaultPlan
from repro.server.origin import OriginServer
from repro.skydata.generator import SkyCatalogConfig
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID

TINY_SKY = SkyCatalogConfig(
    n_objects=2_000,
    ra_min=160.0,
    ra_max=168.0,
    dec_min=5.0,
    dec_max=11.0,
    seed=7,
)


@pytest.fixture()
def private_origin():
    return OriginServer.skyserver(TINY_SKY)


@pytest.fixture()
def proxy(private_origin):
    return FunctionProxy(
        private_origin,
        private_origin.templates,
        scheme=CachingScheme.FULL_SEMANTIC,
    )


@pytest.fixture()
def bound(private_origin):
    return private_origin.templates.bind(
        RADIAL_TEMPLATE_ID,
        {
            "ra": 164.0,
            "dec": 8.0,
            "radius": 10.0,
            "r_min": -9999.0,
            "r_max": 9999.0,
        },
    )


class TestManualVersionFlip:
    def test_flip_invalidates_exactly_once_then_rewarms(
        self, proxy, private_origin, bound
    ):
        proxy.serve(bound)
        assert proxy.serve(bound).record.status is QueryStatus.EXACT
        assert proxy.invalidations == 0

        private_origin.bump_data_version()
        after_flip = proxy.serve(bound)
        assert after_flip.record.status is QueryStatus.DISJOINT  # cold
        assert proxy.invalidations == 1

        # The flushed cache re-warms and stays warm: no repeat flush.
        assert proxy.serve(bound).record.status is QueryStatus.EXACT
        assert proxy.serve(bound).record.status is QueryStatus.EXACT
        assert proxy.invalidations == 1

    def test_stable_version_never_invalidates(self, proxy, bound):
        for _ in range(4):
            proxy.serve(bound)
        assert proxy.invalidations == 0

    def test_two_flips_invalidate_twice(self, proxy, private_origin, bound):
        proxy.serve(bound)
        private_origin.bump_data_version()
        proxy.serve(bound)
        private_origin.bump_data_version()
        proxy.serve(bound)
        assert proxy.invalidations == 2


class TestPlanDrivenVersionFlip:
    def test_scheduled_bump_invalidates_exactly_once(self, proxy, bound):
        proxy.serve(bound)
        assert proxy.serve(bound).record.status is QueryStatus.EXACT

        # The bump is due mid-trace, once the simulated clock passes
        # its timestamp; the next serve sees the new version.
        due_ms = proxy.clock.now_ms + 1_000.0
        proxy.install_fault_plan(FaultPlan(version_bumps=(due_ms,)))
        before_due = proxy.serve(bound)
        assert before_due.record.status is QueryStatus.EXACT
        assert proxy.invalidations == 0

        proxy.clock.advance(2_000.0)
        after_due = proxy.serve(bound)
        assert after_due.record.status is QueryStatus.DISJOINT
        assert proxy.invalidations == 1

        assert proxy.serve(bound).record.status is QueryStatus.EXACT
        assert proxy.invalidations == 1

    def test_removing_the_plan_does_not_reflush(self, proxy, bound):
        proxy.serve(bound)
        due_ms = proxy.clock.now_ms + 500.0
        proxy.install_fault_plan(FaultPlan(version_bumps=(due_ms,)))
        proxy.clock.advance(1_000.0)
        proxy.serve(bound)
        assert proxy.invalidations == 1
        # Uninstalling restores the raw origin, whose version is the
        # bumped one the proxy already saw.
        proxy.install_fault_plan(None)
        assert proxy.serve(bound).record.status is QueryStatus.EXACT
        assert proxy.invalidations == 1


class TestAdmissionFence:
    """The data-version fence must hold at *admission*, not just at
    query start: a result fetched under version 1 must never be
    planted into a cache that a concurrent serve flushed at version 2
    (REVIEW: the stale entry would serve EXACT hits forever)."""

    def _observation_for(self, proxy, bound, index, fence):
        observation = proxy.obs.observe_query(
            index, bound.template_id, clock=proxy.clock
        )
        observation.data_version = fence
        observation.decision = proxy.obs.decisions.begin(
            index, bound.template_id
        )
        return observation

    def test_in_flight_result_is_fenced_after_a_flush(
        self, proxy, private_origin, bound
    ):
        # The in-flight query begins under version 1 and fetches its
        # origin result...
        index, fence = proxy._begin_query()
        stale = private_origin.execute_bound(bound).result
        # ...then the origin moves on and another serve flushes.
        private_origin.bump_data_version()
        other = private_origin.templates.bind(
            RADIAL_TEMPLATE_ID,
            {
                "ra": 166.5,
                "dec": 8.0,
                "radius": 1.0,
                "r_min": -9999.0,
                "r_max": 9999.0,
            },
        )
        proxy.serve(other)
        assert proxy.invalidations == 1
        # The in-flight query reaches admission: fenced off, nothing
        # stale enters the flushed cache.
        with self._observation_for(
            proxy, bound, index, fence
        ) as observation:
            entry, report = proxy._stage_admit(
                bound, stale, stale, observation
            )
        assert entry is None
        assert report.stored_bytes == 0
        assert proxy.cache.exact_match(bound) is None
        # The next real serve goes to the origin, not a stale entry.
        assert proxy.serve(bound).record.contacted_origin

    def test_matching_fence_admits_normally(
        self, proxy, private_origin, bound
    ):
        index, fence = proxy._begin_query()
        result = private_origin.execute_bound(bound).result
        with self._observation_for(
            proxy, bound, index, fence
        ) as observation:
            entry, _report = proxy._stage_admit(
                bound, result, result, observation
            )
        assert entry is not None
        assert proxy.cache.exact_match(bound) is entry
