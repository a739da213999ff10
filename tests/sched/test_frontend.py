"""The event-driven frontend over a real proxy."""

import pytest

from repro.admission import (
    QUEUE_DEADLINE_MS,
    REASON_DEADLINE,
    AdmissionConfig,
)
from repro.core.proxy import FunctionProxy
from repro.core.stats import QueryOutcome, QueryStatus
from repro.faults.plan import FaultPlan, SlowdownWindow
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


@pytest.fixture()
def make_frontend(origin):
    def build(config, **proxy_kwargs):
        proxy = FunctionProxy(
            origin,
            origin.templates,
            admission=config,
            **proxy_kwargs,
        )
        return ProxyFrontend(proxy, EventLoop())

    return build


class TestFrontend:
    def test_needs_a_controller(self, origin):
        proxy = FunctionProxy(origin, origin.templates)
        with pytest.raises(ValueError):
            ProxyFrontend(proxy, EventLoop())

    def test_submit_serves_and_completes(self, make_frontend, bind):
        frontend = make_frontend(AdmissionConfig(max_inflight=2))
        done = []
        frontend.submit(bind(), on_done=lambda r: done.append(r))
        # Dispatch happened synchronously; completion waits for the
        # service-time event.
        assert frontend.proxy.admission.inflight == 1
        frontend.loop.run()
        assert len(done) == 1
        assert done[0].record.outcome is QueryOutcome.SERVED
        assert frontend.proxy.admission.inflight == 0
        assert frontend.completed == 1

    def test_queue_wait_lands_on_the_record(self, make_frontend, bind):
        frontend = make_frontend(AdmissionConfig(max_inflight=1))
        done = []
        frontend.submit(bind(), on_done=lambda r: done.append(r))
        frontend.submit(
            bind(ra=165.0), on_done=lambda r: done.append(r)
        )
        frontend.loop.run()
        assert len(done) == 2
        first, second = done[0].record, done[1].record
        assert "admit.queue" not in first.steps_ms
        # The second query waited for the first's service time.
        assert second.steps_ms["admit.queue"] == pytest.approx(
            first.response_ms
        )
        assert second.response_ms >= first.response_ms

    def test_overflow_sheds_immediately(self, make_frontend, bind):
        frontend = make_frontend(
            AdmissionConfig(max_inflight=1, max_queue_depth=1)
        )
        outcomes = []
        for index in range(4):
            frontend.submit(
                bind(ra=161.0 + index),
                on_done=lambda r: outcomes.append(r.record.outcome),
            )
        # Two sheds resolved before the loop even runs: slot + queue
        # were full at submit time.
        assert outcomes.count(QueryOutcome.SHED) == 2
        frontend.loop.run()
        assert len(outcomes) == 4
        assert outcomes.count(QueryOutcome.SHED) == 2
        assert frontend.submitted == 4
        assert frontend.rejected == 2

    def test_deadline_drops_become_queued_timeouts(
        self, make_frontend, bind
    ):
        # A 12x slower origin: one service outlasts the 15 s deadline.
        frontend = make_frontend(
            AdmissionConfig(max_inflight=1, max_queue_depth=4),
            fault_plan=FaultPlan(
                slowdowns=(SlowdownWindow(0.0, 1e12, factor=12.0),)
            ),
        )
        records = []
        for index in range(3):
            frontend.submit(
                bind(ra=161.0 + index),
                on_done=lambda r: records.append(r.record),
            )
        frontend.loop.run()
        assert len(records) == 3
        timed_out = [
            r for r in records
            if r.outcome is QueryOutcome.QUEUED_TIMEOUT
        ]
        # The first query held the only slot past the deadline: both
        # queued queries expired at dispatch time.
        assert len(timed_out) == 2
        for record in timed_out:
            assert record.status is QueryStatus.REJECTED
            assert record.failure_reason == REASON_DEADLINE
            assert record.steps_ms["admit.queue"] > QUEUE_DEADLINE_MS

    def test_every_submission_yields_exactly_one_record(
        self, make_frontend, bind
    ):
        frontend = make_frontend(
            AdmissionConfig(max_inflight=2, max_queue_depth=2)
        )
        n = 10
        for index in range(n):
            frontend.submit(bind(ra=161.0 + 0.5 * index, radius=2.0))
        frontend.loop.run()
        proxy = frontend.proxy
        assert len(proxy.stats.records) == n
        assert {r.index for r in proxy.stats.records} == set(
            range(1, n + 1)
        )
        assert frontend.completed == n
        assert proxy.admission.inflight == 0
        assert proxy.admission.queue_depth == 0


class TestTelemetryClock:
    """Telemetry lives on the load timeline under the event loop."""

    def test_the_bundle_clock_is_the_work_clock(self, origin):
        proxy = FunctionProxy(origin, origin.templates)
        assert proxy.obs.clock is proxy.clock

    def test_frontend_rebinds_to_the_loop(self, make_frontend):
        frontend = make_frontend(AdmissionConfig(max_inflight=2))
        assert frontend.proxy.obs.clock is frontend.loop

    def test_samples_align_to_the_loop_timeline(self, make_frontend, bind):
        from repro.obs import ProxyInstrumentation
        from repro.obs.timeseries import TimeSeriesRecorder

        interval = 500.0
        frontend = make_frontend(
            AdmissionConfig(max_inflight=1, max_queue_depth=8),
            instrumentation=ProxyInstrumentation(
                timeseries=TimeSeriesRecorder(interval_ms=interval)
            ),
        )
        for index in range(6):
            frontend.submit(bind(ra=161.0 + index, radius=2.0))
        frontend.loop.run()
        samples = frontend.proxy.obs.timeseries.samples()
        # Service times are seconds each: serialized dispatch crosses
        # several 500 ms boundaries, stamped in loop (event) time.
        assert samples
        for sample in samples:
            assert sample["t_ms"] % interval == 0.0
            assert sample["t_ms"] <= frontend.loop.now_ms
        # The work clock accumulated the same serial service time, but
        # the telemetry axis is the loop's.
        assert frontend.proxy.obs.clock is frontend.loop
