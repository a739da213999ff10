"""Retry backoff, circuit breaker, and gateway in isolation."""

import threading
import time
from random import Random

import pytest

from repro.faults.errors import (
    OriginQueryError,
    OriginTimeoutError,
    OriginUnavailable,
    OriginUnavailableError,
)
from repro.faults.resilience import (
    ATTEMPT_TIMEOUT_MS,
    BREAKER_COOLDOWN_MS,
    BREAKER_FAILURE_THRESHOLD,
    BREAKER_STATE_VALUES,
    MAX_ATTEMPTS,
    BreakerState,
    CircuitBreaker,
    OriginGateway,
    backoff_ms,
)
from repro.network.clock import SimulatedClock
from repro.server.origin import OriginResponse
from repro.sqlparser.errors import ParseError


class Sink:
    """A charge sink that records (step, ms) pairs."""

    def __init__(self):
        self.charges = []

    def charge(self, step, sim_ms):
        self.charges.append((step, sim_ms))

    def total(self, step):
        return sum(ms for s, ms in self.charges if s == step)


def make_gateway():
    breaker = CircuitBreaker(SimulatedClock())
    gateway = OriginGateway(breaker=breaker, failure_rtt_ms=lambda: 300.0)
    return gateway, breaker


def expected_backoffs(retries):
    """The waits the gateway charges for its first ``retries`` retries:
    the same draws, in the same order, from the same seed."""
    rng = Random(0)
    return [backoff_ms(index, rng) for index in range(retries)]


class FixedRandom:
    """An rng whose every draw is ``value`` (pins the jitter's ends)."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def ok_response():
    return OriginResponse(result=None, server_ms=10.0)


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        # 200 ms base, x2 per retry, capped at 5 s; jitter adds 0-20 %.
        for index, base in [(0, 200.0), (1, 400.0), (2, 800.0), (9, 5_000.0)]:
            assert backoff_ms(index, FixedRandom(0.0)) == pytest.approx(base)
            assert backoff_ms(index, FixedRandom(1.0)) == pytest.approx(
                base * 1.2
            )

    def test_jitter_is_deterministic_per_seed(self):
        a = [backoff_ms(0, Random(7)) for _ in range(3)]
        assert a[0] == a[1] == a[2]
        assert 200.0 <= a[0] <= 240.0


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(clock)
        assert BREAKER_FAILURE_THRESHOLD == 5
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 1
        assert not breaker.allow()

    def test_half_open_after_cooldown_then_closes(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(clock)
        assert BREAKER_COOLDOWN_MS == 30_000.0
        for _ in range(5):
            breaker.record_failure()
        clock.advance(29_999.0)
        assert not breaker.allow()
        clock.advance(1.0)
        assert breaker.allow()  # the probe attempt
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(
            clock, failure_threshold=5, cooldown_ms=1_000.0
        )
        for _ in range(5):
            breaker.record_failure()
        clock.advance(1_000.0)
        assert breaker.allow()
        breaker.record_failure()  # a single half-open failure re-opens
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 2

    def test_success_resets_failure_streak(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(clock, failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_state_change_hook_fires_once_per_transition(self):
        clock = SimulatedClock()
        seen = []
        breaker = CircuitBreaker(
            clock,
            failure_threshold=1,
            cooldown_ms=100.0,
            on_state_change=lambda s: seen.append(s),
        )
        breaker.record_failure()
        breaker.record_failure()  # already open: no second event
        assert seen == [BreakerState.OPEN]

    def test_gauge_encoding_is_pinned(self):
        assert BREAKER_STATE_VALUES == {
            BreakerState.CLOSED: 0,
            BreakerState.HALF_OPEN: 1,
            BreakerState.OPEN: 2,
        }

    def test_validation(self):
        clock = SimulatedClock()
        with pytest.raises(ValueError):
            CircuitBreaker(clock, failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(clock, cooldown_ms=0.0)


class TestHalfOpenProbeRace:
    """Half-open admits exactly one probe under concurrent serves."""

    def _race_allow(self, breaker, threads=8, seed=1234):
        """Fire ``allow()`` from many threads at once; returns the
        number admitted.  A seeded rng staggers each thread by a tiny
        sleep so the interleaving varies deterministically per seed."""
        rng = Random(seed)
        delays = [rng.random() * 0.002 for _ in range(threads)]
        barrier = threading.Barrier(threads)
        admitted = []
        failures = []

        def attempt(delay):
            try:
                barrier.wait(timeout=10)
                time.sleep(delay)
                if breaker.allow():
                    admitted.append(threading.get_ident())
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        workers = [
            threading.Thread(target=attempt, args=(delay,))
            for delay in delays
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
        if failures:
            raise failures[0]
        return len(admitted)

    def test_single_probe_admitted_after_cooldown(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(
            clock, failure_threshold=1, cooldown_ms=1_000.0
        )
        breaker.record_failure()
        clock.advance(1_000.0)
        assert self._race_allow(breaker) == 1
        assert breaker.state is BreakerState.HALF_OPEN
        # The probe resolves; the breaker closes and admits freely.
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens_and_next_cooldown_admits_one(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(
            clock, failure_threshold=1, cooldown_ms=1_000.0
        )
        breaker.record_failure()
        clock.advance(1_000.0)
        assert self._race_allow(breaker, seed=99) == 1
        breaker.record_failure()  # the probe failed: re-open
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        clock.advance(1_000.0)
        assert self._race_allow(breaker, seed=7) == 1

    def test_probe_refusals_do_not_leak_the_gate(self):
        clock = SimulatedClock()
        breaker = CircuitBreaker(
            clock, failure_threshold=1, cooldown_ms=1_000.0
        )
        breaker.record_failure()
        clock.advance(1_000.0)
        assert breaker.allow()  # the probe
        # Concurrent serves are refused while the probe is in flight...
        assert not breaker.allow()
        assert not breaker.allow()
        # ...and a resolution releases the gate exactly once.
        breaker.record_success()
        assert breaker.allow()
        assert breaker.state is BreakerState.CLOSED


class TestGateway:
    def test_success_passes_through(self):
        gateway, breaker = make_gateway()
        sink = Sink()
        response, retries = gateway.call(ok_response, sink)
        assert response.server_ms == 10.0
        assert retries == 0
        assert sink.charges == []
        assert breaker.state is BreakerState.CLOSED

    def test_transient_failures_retried_with_backoff(self):
        gateway, breaker = make_gateway()
        sink = Sink()
        state = {"left": 2}

        def fn():
            if state["left"]:
                state["left"] -= 1
                raise OriginUnavailableError("injected")
            return ok_response()

        response, retries = gateway.call(fn, sink)
        assert retries == 2
        # Two failed fast attempts charge one empty round trip each...
        assert sink.total("transfer") == pytest.approx(600.0)
        # ...plus two seeded backoff waits (200, then 400 ms, +0-20 %).
        waits = expected_backoffs(2)
        assert [ms for step, ms in sink.charges if step == "backoff"] == waits
        assert 600.0 <= sum(waits) <= 720.0
        assert breaker.state is BreakerState.CLOSED  # success reset it

    def test_timeout_charges_full_attempt_timeout(self):
        gateway, _ = make_gateway()
        sink = Sink()

        def fn():
            raise OriginTimeoutError()

        with pytest.raises(OriginUnavailable) as info:
            gateway.call(fn, sink)
        assert info.value.reason == "timeout"
        # Every hung attempt costs the 10 s attempt timeout; a backoff
        # separates consecutive attempts, none follows the last.
        first, second = expected_backoffs(2)
        assert sink.charges == [
            ("origin", ATTEMPT_TIMEOUT_MS),
            ("backoff", first),
            ("origin", ATTEMPT_TIMEOUT_MS),
            ("backoff", second),
            ("origin", ATTEMPT_TIMEOUT_MS),
        ]
        assert ATTEMPT_TIMEOUT_MS == 10_000.0

    def test_exhausted_attempts_raise_structured_unavailable(self):
        gateway, _ = make_gateway()
        sink = Sink()
        calls = []

        def fn():
            calls.append(1)
            raise OriginUnavailableError("down", reason="outage")

        with pytest.raises(OriginUnavailable) as info:
            gateway.call(fn, sink)
        assert info.value.reason == "outage"
        assert len(calls) == MAX_ATTEMPTS == 3
        assert info.value.retries == 2

    def test_open_breaker_fails_fast_without_attempt(self):
        gateway, breaker = make_gateway()
        calls = []

        def fn():
            calls.append(1)
            raise OriginUnavailableError("down")

        # Three failed attempts, then two more: the fifth opens it.
        for _ in range(2):
            with pytest.raises(OriginUnavailable):
                gateway.call(fn, Sink())
        assert len(calls) == 5
        assert breaker.state is BreakerState.OPEN
        attempts_before = len(calls)
        with pytest.raises(OriginUnavailable) as info:
            gateway.call(fn, Sink())
        assert info.value.reason == "breaker-open"
        assert len(calls) == attempts_before  # the origin was never hit

    def test_query_error_not_retried_and_not_a_breaker_failure(self):
        gateway, breaker = make_gateway()
        calls = []

        def fn():
            calls.append(1)
            raise ParseError("syntax error near FROM")

        with pytest.raises(OriginQueryError) as info:
            gateway.call(fn, Sink())
        assert len(calls) == 1  # retrying cannot fix a bad query
        assert info.value.reason == "query-error"
        assert breaker.state is BreakerState.CLOSED

    def test_listener_sees_retries_and_failures(self):
        events = []

        class Listener:
            def origin_retry(self):
                events.append("retry")

            def origin_failure(self, reason):
                events.append(f"fail:{reason}")

        gateway = OriginGateway(
            breaker=CircuitBreaker(SimulatedClock()),
            failure_rtt_ms=lambda: 1.0,
            listener=Listener(),
        )

        def fn():
            raise OriginUnavailableError("down")

        with pytest.raises(OriginUnavailable):
            gateway.call(fn, Sink())
        assert events == ["retry", "retry", "fail:transient"]
