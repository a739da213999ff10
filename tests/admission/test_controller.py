"""AdmissionController: gate, queue, quotas, shedding, overload."""

import pytest

from repro.admission import (
    OVERLOAD_COOLDOWN_MS,
    QUEUE_DEADLINE_MS,
    REASON_ADMISSION_OPEN,
    REASON_QUEUE_FULL,
    REASON_QUOTA,
    AdmissionConfig,
    AdmissionController,
    TenantQuota,
    TokenBucket,
)
from repro.faults.resilience import BreakerState


class ManualClock:
    """A clock the test sets by hand."""

    def __init__(self):
        self.now_ms = 0.0


class Listener:
    """The bundle stand-in: a hand-set clock, and every admission hook
    call recorded."""

    def __init__(self):
        self.clock = ManualClock()
        self.queue_limit = None
        self.depths = []
        self.inflight = []
        self.quota_denied = []
        self.quota_tokens = []
        self.waits = []
        self.overload = []
        self.events = []

    def set_admission_queue_limit(self, limit):
        self.queue_limit = limit

    def admission_queue_depth(self, depth):
        self.depths.append(depth)

    def admission_inflight(self, count):
        self.inflight.append(count)

    def admission_quota_denied(self, tenant):
        self.quota_denied.append(tenant)

    def admission_quota_tokens(self, tenant, tokens):
        self.quota_tokens.append((tenant, tokens))

    def admission_queue_wait(self, sim_ms):
        self.waits.append(sim_ms)

    def admission_overload_transition(self, state):
        self.overload.append(state)

    def telemetry_event(self, code, trace_id=None, query_index=None,
                        **payload):
        self.events.append((code, payload))


def make(
    listener=None,
    max_inflight=2,
    max_queue_depth=4,
    overload_threshold=64,
    **kwargs,
):
    config = AdmissionConfig(
        max_inflight=max_inflight,
        max_queue_depth=max_queue_depth,
        overload_threshold=overload_threshold,
        **kwargs,
    )
    return AdmissionController(config, listener or Listener())


class TestTokenBucket:
    def test_burst_then_deny(self):
        bucket = TokenBucket(TenantQuota(rate_per_s=1.0, burst=2.0))
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)

    def test_refills_with_event_time(self):
        bucket = TokenBucket(TenantQuota(rate_per_s=2.0, burst=2.0))
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        # 2 tokens/s: one token back after 500 simulated ms.
        assert bucket.try_take(500.0)
        assert not bucket.try_take(500.0)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(TenantQuota(rate_per_s=100.0, burst=3.0))
        for _ in range(3):
            assert bucket.try_take(1_000_000.0)
        assert not bucket.try_take(1_000_000.0)

    def test_time_going_backwards_is_ignored(self):
        bucket = TokenBucket(TenantQuota(rate_per_s=1.0, burst=1.0))
        assert bucket.try_take(5_000.0)
        # An earlier stamp must not mint tokens or rewind the clock.
        assert not bucket.try_take(0.0)
        assert bucket.try_take(6_000.0)


class TestDirectGate:
    def test_admits_up_to_capacity_then_sheds(self):
        controller = make(max_inflight=2, max_queue_depth=2)
        verdicts = [controller.try_admit("t") for _ in range(5)]
        assert [v.admitted for v in verdicts] == [
            True, True, True, True, False,
        ]
        assert verdicts[-1].reason == REASON_QUEUE_FULL
        assert controller.inflight == 4
        assert controller.snapshot()["shed_by_reason"] == {
            REASON_QUEUE_FULL: 1
        }

    def test_release_frees_a_slot(self):
        controller = make(max_inflight=1, max_queue_depth=1)
        assert controller.try_admit("t").admitted
        assert controller.try_admit("t").admitted
        assert not controller.try_admit("t").admitted
        controller.release()
        assert controller.try_admit("t").admitted

    def test_quota_checked_before_capacity(self):
        controller = make(
            quotas={"metered": TenantQuota(rate_per_s=1.0, burst=1.0)}
        )
        assert controller.try_admit("metered").admitted
        verdict = controller.try_admit("metered")
        assert not verdict.admitted
        assert verdict.reason == REASON_QUOTA
        # Unmetered tenants are unaffected.
        assert controller.try_admit("other").admitted
        assert controller.quota_denials() == {"metered": 1}

class TestOverloadBreaker:
    def make_overloaded(self, listener):
        controller = make(
            listener,
            max_inflight=1,
            max_queue_depth=1,
            overload_threshold=2,
        )
        # Fill capacity, then shed twice to open the breaker.
        assert controller.try_admit("t").admitted
        assert controller.try_admit("t").admitted
        for _ in range(2):
            verdict = controller.try_admit("t")
            assert verdict.reason == REASON_QUEUE_FULL
        assert controller.overload_state is BreakerState.OPEN
        return controller

    def test_open_breaker_fast_fails_new_arrivals(self):
        listener = Listener()
        controller = self.make_overloaded(listener)
        # For the whole 2 s cooldown, whatever the capacity.
        assert OVERLOAD_COOLDOWN_MS == 2_000.0
        controller.release()
        for now_ms in (100.0, 1_999.0):
            listener.clock.now_ms = now_ms
            verdict = controller.try_admit("t")
            assert not verdict.admitted
            assert verdict.reason == REASON_ADMISSION_OPEN

    def test_probe_resolves_against_capacity(self):
        listener = Listener()
        controller = self.make_overloaded(listener)
        # Cooldown elapsed but capacity still full: the probe re-tests
        # capacity, fails, and the breaker re-opens.
        listener.clock.now_ms = 2_500.0
        verdict = controller.try_admit("t")
        assert verdict.reason == REASON_QUEUE_FULL
        assert controller.overload_state is BreakerState.OPEN
        # Free a slot; the next cooldown's probe admits and closes.
        controller.release()
        listener.clock.now_ms = 4_500.0
        verdict = controller.try_admit("t")
        assert verdict.admitted
        assert controller.overload_state is BreakerState.CLOSED

    def test_quota_denial_does_not_strand_the_probe(self):
        self.make_overloaded(Listener())
        # Again with a metered tenant whose bucket is empty.
        listener = Listener()
        metered = make(
            listener,
            max_inflight=1,
            max_queue_depth=1,
            overload_threshold=2,
            quotas={"m": TenantQuota(rate_per_s=0.001, burst=1.0)},
        )
        assert metered.try_admit("m").admitted  # burst token
        assert metered.try_admit("x").admitted
        for _ in range(2):
            metered.try_admit("x")
        assert metered.overload_state is BreakerState.OPEN
        metered.release()
        # Quota is checked before the breaker: the denied arrival must
        # not consume the half-open probe...
        listener.clock.now_ms = 2_000.0
        denied = metered.try_admit("m")
        assert denied.reason == REASON_QUOTA
        # ...so an unmetered arrival still gets the probe and closes.
        assert metered.try_admit("x").admitted
        assert metered.overload_state is BreakerState.CLOSED

    def test_transitions_reach_the_listener(self):
        listener = Listener()
        self.make_overloaded(listener)
        assert listener.overload == [
            BreakerState.CLOSED,  # initial gauge sync at construction
            BreakerState.OPEN,
        ]


class TestQueue:
    def test_enqueue_then_fifo_dequeue(self):
        listener = Listener()
        controller = make(listener, max_inflight=1, max_queue_depth=4)
        for name in ("a", "b", "c"):
            verdict = controller.enqueue(name, "t")
            assert verdict.admitted
        assert controller.queue_depth == 3
        listener.clock.now_ms = 250.0
        got, waited, expired = controller.dequeue()
        assert got.item == "a"
        assert waited == pytest.approx(250.0)
        assert expired == []
        # The slot is taken; nothing dispatches until release.
        listener.clock.now_ms = 300.0
        assert controller.dequeue()[0] is None
        controller.release()
        assert controller.dequeue()[0].item == "b"

    def test_full_queue_sheds_reject_new(self):
        controller = make(max_inflight=1, max_queue_depth=2)
        controller.enqueue("a", "t")
        controller.enqueue("b", "t")
        verdict = controller.enqueue("c", "t")
        assert not verdict.admitted
        assert verdict.reason == REASON_QUEUE_FULL
        assert controller.queue_depth == 2
        # The arrival was shed; the queued work keeps its order.
        assert controller.dequeue()[0].item == "a"

    def test_deadline_expires_at_dispatch(self):
        listener = Listener()
        controller = make(listener, max_inflight=1, max_queue_depth=4)
        assert QUEUE_DEADLINE_MS == 15_000.0
        controller.enqueue("old", "t")
        listener.clock.now_ms = 100.0
        controller.enqueue("fresh", "t")
        # 15.05 s later "old" has waited past the deadline; "fresh" not.
        listener.clock.now_ms = 15_050.0
        got, waited, expired = controller.dequeue()
        assert [e.item for e in expired] == ["old"]
        assert got.item == "fresh"
        assert waited == pytest.approx(14_950.0)
        assert controller.snapshot()["timeouts"] == 1

    def test_queue_full_sheds_feed_the_overload_breaker(self):
        listener = Listener()
        controller = make(
            listener,
            max_inflight=1,
            max_queue_depth=1,
            overload_threshold=2,
        )
        controller.enqueue("a", "t")
        for _ in range(2):
            controller.enqueue("x", "t")
        assert controller.overload_state is BreakerState.OPEN
        listener.clock.now_ms = 500.0
        verdict = controller.enqueue("y", "t")
        assert verdict.reason == REASON_ADMISSION_OPEN


class TestListenerHooks:
    def test_construction_reports_the_queue_limit(self):
        listener = Listener()
        make(listener, max_queue_depth=7)
        assert listener.queue_limit == 7
        assert listener.overload == [BreakerState.CLOSED]

    def test_shed_and_depth_hooks(self):
        listener = Listener()
        controller = make(listener, max_inflight=1, max_queue_depth=1)
        controller.enqueue("a", "t")
        controller.enqueue("b", "t")  # full -> shed
        # The shed itself reaches metrics from the query's record (the
        # proxy's observe_record), not through a controller hook.
        assert controller.snapshot()["shed_by_reason"] == {
            REASON_QUEUE_FULL: 1
        }
        assert listener.depths == [1, 1]
        listener.clock.now_ms = 40.0
        controller.dequeue()
        assert listener.waits == [pytest.approx(40.0)]
        assert listener.depths == [1, 1, 0]

    def test_quota_hook_names_the_tenant(self):
        listener = Listener()
        controller = make(
            listener, quotas={"m": TenantQuota(rate_per_s=1.0, burst=1.0)}
        )
        controller.try_admit("m")
        controller.try_admit("m")
        assert controller.snapshot()["shed_by_reason"] == {REASON_QUOTA: 1}
        assert listener.quota_denied == ["m"]


class TestSnapshot:
    def test_snapshot_shape(self):
        controller = make(
            quotas={"m": TenantQuota()},
        )
        controller.try_admit("m")
        snapshot = controller.snapshot()
        assert snapshot["config"]["tenants"] == ["m"]
        assert snapshot["submitted"] == 1
        assert snapshot["admitted"] == 1
        assert snapshot["overload_state"] == "closed"
        assert snapshot["overload_opens"] == 0


class TestGaugeBackfill:
    """The inflight and quota-token gauges mirror the controller."""

    def test_inflight_hook_tracks_admit_and_release(self):
        listener = Listener()
        controller = make(listener, max_inflight=2)
        controller.try_admit("t")
        controller.try_admit("t")
        controller.release()
        assert listener.inflight[-3:] == [1, 2, 1]

    def test_quota_tokens_hook_fires_on_every_take(self):
        listener = Listener()
        controller = make(
            listener, quotas={"m": TenantQuota(rate_per_s=1.0, burst=2.0)}
        )
        controller.try_admit("m")
        controller.try_admit("m")
        assert listener.quota_tokens == [("m", 1.0), ("m", 0.0)]

    def test_snapshot_reports_quota_tokens(self):
        controller = make(
            quotas={
                "m": TenantQuota(rate_per_s=1.0, burst=2.0),
                "idle": TenantQuota(rate_per_s=1.0, burst=3.0),
            }
        )
        controller.try_admit("m")
        snapshot = controller.snapshot()
        assert snapshot["quota_tokens"] == {"idle": 3.0, "m": 1.0}
        assert snapshot["inflight"] == 1
