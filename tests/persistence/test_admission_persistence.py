"""Admission control against the persistence layer: turned-away
queries leave no trace in the journal, and the data-version fence
survives a saturated run."""

import dataclasses

import pytest

from repro.admission import AdmissionConfig
from repro.core.proxy import FunctionProxy
from repro.core.stats import QueryOutcome
from repro.faults.plan import FaultPlan, SlowdownWindow
from repro.harness.config import ExperimentScale
from repro.persistence import CachePersister
from repro.sched import EventLoop, ProxyFrontend
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID
from repro.workload import ClosedLoopConfig, ClosedLoopDriver
from repro.workload.generator import generate_radial_trace


@pytest.fixture()
def bind(origin, radial_params):
    def run(**overrides):
        return origin.templates.bind(
            RADIAL_TEMPLATE_ID, dict(radial_params, **overrides)
        )

    return run


def build_proxy(origin, directory, config, **kwargs):
    return FunctionProxy(
        origin,
        origin.templates,
        persistence=CachePersister(directory),
        admission=config,
        **kwargs,
    )


class TestShedQueriesLeaveNoJournalTrace:
    def test_shed_writes_no_journal_records(self, origin, tmp_path, bind):
        proxy = build_proxy(
            origin,
            tmp_path,
            AdmissionConfig(max_inflight=1, max_queue_depth=1),
        )
        # Exhaust capacity so every serve is turned away at admission.
        while proxy.admission.try_admit("default").admitted:
            pass
        for index in range(3):
            response = proxy.serve(bind(ra=162.0 + index))
            assert response.record.outcome is QueryOutcome.SHED
        assert proxy.persistence.journal.size_bytes == 0
        assert len(proxy.cache) == 0
        # A restart confirms it: nothing to recover.
        restarted = build_proxy(
            origin,
            tmp_path,
            AdmissionConfig(max_inflight=1, max_queue_depth=1),
        )
        assert restarted.recovery_report.entries_restored == 0

    def test_queued_timeout_writes_no_journal_records(
        self, origin, tmp_path, bind
    ):
        config = AdmissionConfig(max_inflight=1, max_queue_depth=4)
        # A 12x slower origin: the first query holds the only slot past
        # the 15 s queue deadline.
        proxy = build_proxy(
            origin,
            tmp_path,
            config,
            fault_plan=FaultPlan(
                slowdowns=(SlowdownWindow(0.0, 1e12, factor=12.0),)
            ),
        )
        frontend = ProxyFrontend(proxy, EventLoop())
        records = []
        for index in range(3):
            frontend.submit(
                bind(ra=162.0 + index),
                on_done=lambda r: records.append(r.record),
            )
        frontend.loop.run()
        outcomes = [record.outcome for record in records]
        assert outcomes.count(QueryOutcome.SERVED) == 1
        assert outcomes.count(QueryOutcome.QUEUED_TIMEOUT) == 2
        # Only the served query reached the cache and thus the journal.
        restarted = build_proxy(origin, tmp_path, config)
        assert restarted.recovery_report.entries_restored == 1


class TestSaturatedWarmRestart:
    def test_version_bump_fences_a_saturated_run(self, origin, tmp_path):
        scale = ExperimentScale.quick()
        trace = generate_radial_trace(
            dataclasses.replace(scale.trace, n_queries=40)
        )
        config = AdmissionConfig(max_inflight=2, max_queue_depth=2)
        proxy = build_proxy(origin, tmp_path, config)
        frontend = ProxyFrontend(proxy, EventLoop())
        driver = ClosedLoopDriver(
            frontend,
            trace,
            ClosedLoopConfig(
                n_clients=12, queries_per_client=2, think_time_ms=500.0
            ),
        )
        stats = driver.run()
        counts = {
            outcome.value: count
            for outcome, count in stats.outcome_counts().items()
        }
        # The run actually saturated: a mix of served and shed, every
        # submission accounted for, and some entries persisted.
        assert counts.get("served", 0) >= 1
        assert counts.get("shed", 0) >= 1
        assert sum(counts.values()) == 24
        assert len(proxy.cache) >= 1

        origin.bump_data_version()
        try:
            restarted = build_proxy(origin, tmp_path, config)
            report = restarted.recovery_report
            # Every persisted entry predates the new data version: the
            # fence drops them all, saturated workload or not.
            assert report.entries_restored == 0
            assert report.entries_stale >= 1
            replay = restarted.serve(
                origin.templates.bind(
                    trace[0].template_id, trace[0].param_dict()
                )
            )
            assert replay.record.contacted_origin
        finally:
            # The origin fixture is session-scoped; put its version back.
            origin.data_version -= 1
