"""The live health verdict reads each window once.

The recorder keeps each window's hit ratio beside its sample (computed
when the sample is taken, evicted with it) and the instrumentation
bundle's ``health`` reads that — so at every step of any run the live
report must equal the pure ``evaluate_samples`` over
``recorder.samples()``, field for field, with EV11 firing at the same
samples, and ``health`` must not read the ring.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import EventRecorder
from repro.obs.health import (
    DEGRADED,
    HEALTHY,
    UNHEALTHY,
    evaluate_samples,
)
from repro.obs.instrument import ProxyInstrumentation
from repro.obs.timeseries import TimeSeriesRecorder

QUEUE_LIMIT = 10


class CountingRecorder(TimeSeriesRecorder):
    """Counts whole-ring reads."""

    ring_reads = 0

    def samples(self):
        self.ring_reads += 1
        return super().samples()


class Deployment:
    """A recorder over the bundle's own metric families, driven by
    hand, and the bundle judging it."""

    def __init__(self):
        self.recorder = CountingRecorder(interval_ms=1_000.0, capacity=8)
        self.events = EventRecorder(capacity=256)
        self.obs = ProxyInstrumentation(
            timeseries=self.recorder, events=self.events
        )
        self.obs.set_admission_queue_limit(QUEUE_LIMIT)
        self.now_ms = 0.0
        self.obs.clock = self  # time moves only when step() moves it
        self.reference_status = None
        self.reference_flips = []
        self.reports = []
        self.recorder.maybe_sample(self.now_ms)  # seeds the baselines

    def step(
        self, dt_ms, served=0, origin=0, shed=0, depth=0, breaker=0,
        latency_ms=None,
    ):
        obs = self.obs
        obs.queries.labels(status="exact", template="t").inc(served)
        obs.origin_requests.inc(min(origin, served))
        obs.admission_sheds.labels(reason="queue-full").inc(shed)
        obs.admission_depth.set(depth)
        obs.breaker_state.set(breaker)
        if latency_ms is not None:
            obs.response_ms.observe(latency_ms)
        self.now_ms += dt_ms
        if self.recorder.maybe_sample(self.now_ms) is None:
            return
        reads_before = self.recorder.ring_reads
        report = self.obs.health()
        assert self.recorder.ring_reads == reads_before

        reference = evaluate_samples(
            self.recorder.samples(),
            latency_slo_ms=None,
            queue_limit=QUEUE_LIMIT,
        )
        for key, value in reference.items():
            assert report[key] == value, key
        assert set(report) == set(reference) | {
            "enabled", "at_ms", "queue_limit",
        }
        status, previous = reference["status"], self.reference_status
        if previous != status if previous is not None else status != HEALTHY:
            self.reference_flips.append((self.now_ms, status, previous))
        self.reference_status = status
        self.reports.append(report)

    def check_flips(self):
        fired = [
            (e["at_ms"], e["payload"]["status"], e["payload"]["previous"])
            for e in self.events.recent()
            if e["code"] == "EV11"
        ]
        assert fired == self.reference_flips


def test_scripted_run_with_every_hard_case():
    run = Deployment()
    # A warm cache: hit ratio 0.9 for five windows.
    for _ in range(5):
        run.step(1_000.0, served=20, origin=2, latency_ms=40.0)
    run.step(400.0, served=3)  # no boundary crossed: no sample
    run.step(2_600.0)  # one sample over an idle three-interval gap
    run.step(1_000.0)  # an empty window
    # Hit-ratio collapse, then a breaker-open window.
    run.step(1_000.0, served=20, origin=19, latency_ms=150.0)
    run.step(1_000.0, served=20, origin=2, breaker=2)
    # An idle window: every rate reads zero.
    run.step(1_000.0)
    # A shed spike with the queue pinned at its limit for three windows.
    for _ in range(3):
        run.step(
            1_000.0, served=4, origin=1, shed=30, depth=QUEUE_LIMIT,
            latency_ms=400.0,
        )
    # Recovery, long enough to push the spike out of the ring.
    for _ in range(9):
        run.step(1_000.0, served=20, origin=2, latency_ms=40.0)
    run.check_flips()

    assert len(run.reports) > run.recorder.capacity  # the ring wrapped
    assert run.reports[-1]["windows"] == run.recorder.capacity
    statuses = [report["status"] for report in run.reports]
    assert {HEALTHY, DEGRADED, UNHEALTHY} <= set(statuses)
    assert len(run.reference_flips) >= 4
    flagged = {
        rule["id"]
        for report in run.reports
        for rule in report["rules"]
        if rule["status"] != HEALTHY
    }
    # HR03 is inactive live: no latency objective is configured.
    assert flagged == {"HR01", "HR02", "HR04", "HR05"}


STEPS = st.lists(
    st.fixed_dictionaries(
        {
            "dt_ms": st.sampled_from([0.0, 400.0, 1_000.0, 1_000.0, 2_500.0]),
            "served": st.integers(0, 20),
            "origin": st.integers(0, 20),
            "shed": st.sampled_from([0, 0, 0, 3, 40]),
            "depth": st.sampled_from([0, 0, 8, 10, 12]),
            "breaker": st.sampled_from([0, 0, 0, 1, 2]),
            "latency_ms": st.sampled_from([None, 40.0, 150.0, 900.0]),
        }
    ),
    min_size=12,
    max_size=40,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(STEPS)
def test_any_run_matches_the_pure_evaluation_at_every_step(steps):
    run = Deployment()
    for step in steps:
        run.step(**step)
    run.check_flips()
