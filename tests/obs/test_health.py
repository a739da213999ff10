"""The health rules over synthetic samples, and EV11 on flips."""

from repro.obs.events import EventRecorder
from repro.obs.health import (
    DEGRADED,
    HEALTH_RULES,
    HEALTHY,
    UNHEALTHY,
    evaluate_samples,
    summarize,
)
from repro.obs.instrument import ProxyInstrumentation


def sample(
    t_ms=0.0,
    throughput=10.0,
    origin=1.0,
    shed=0.0,
    queue=0.0,
    breaker=0.0,
    p95=None,
):
    return {
        "t_ms": t_ms,
        "rates": {
            "throughput_qps": throughput,
            "origin_per_s": origin,
            "shed_per_s": shed,
        },
        "gauges": {"queue_depth": queue, "breaker_state": breaker},
        "quantiles": {"response_ms": {"p50": p95, "p95": p95}},
    }


def rule(report, rule_id):
    (match,) = [r for r in report["rules"] if r["id"] == rule_id]
    return match


class TestRegistryGolden:
    def test_rule_ids_are_pinned(self):
        assert dict(HEALTH_RULES) == {
            "HR01": "hit-ratio-collapse",
            "HR02": "shed-spike",
            "HR03": "latency-slo",
            "HR04": "queue-saturation",
            "HR05": "breaker-open",
            "HR06": "shard-down",
        }


class TestHitRatioCollapse:
    def baseline(self, n=4):
        # hit ratio 0.9 per window (origin 1 of throughput 10).
        return [sample(t_ms=i * 1_000.0) for i in range(n)]

    def test_insufficient_windows_is_healthy(self):
        report = evaluate_samples(self.baseline(3))
        assert rule(report, "HR01")["status"] == HEALTHY

    def test_collapse_to_half_is_degraded(self):
        samples = self.baseline() + [sample(origin=6.0)]  # ratio 0.4
        report = evaluate_samples(samples)
        assert rule(report, "HR01")["status"] == DEGRADED

    def test_collapse_to_quarter_is_unhealthy(self):
        samples = self.baseline() + [sample(origin=9.0)]  # ratio 0.1
        report = evaluate_samples(samples)
        assert rule(report, "HR01")["status"] == UNHEALTHY
        assert report["status"] == UNHEALTHY

    def test_cold_cache_baseline_is_not_judged(self):
        # Baseline hit ratio 0.1 sits below the judgment floor: a
        # cache that never hit has no ratio to lose.
        samples = [sample(origin=9.0) for _ in range(5)]
        report = evaluate_samples(samples)
        assert rule(report, "HR01")["status"] == HEALTHY

    def test_idle_windows_do_not_dilute_the_baseline(self):
        samples = self.baseline() + [sample(throughput=0.0, origin=0.0)]
        report = evaluate_samples(samples)
        assert rule(report, "HR01")["status"] == HEALTHY


class TestShedSpike:
    def test_only_the_newest_window_is_judged(self):
        samples = [sample(shed=9.0, throughput=1.0), sample()]
        report = evaluate_samples(samples)
        assert rule(report, "HR02")["status"] == HEALTHY

    def test_thresholds(self):
        mild = evaluate_samples([sample(shed=2.0, throughput=8.0)])
        assert rule(mild, "HR02")["status"] == DEGRADED
        severe = evaluate_samples([sample(shed=5.0, throughput=5.0)])
        assert rule(severe, "HR02")["status"] == UNHEALTHY

    def test_an_all_shed_window_reads_one(self):
        # Throughput counts turned-away queries too: shed == throughput
        # is a window in which every query was turned away.
        report = evaluate_samples([sample(shed=4.0, throughput=4.0)])
        assert rule(report, "HR02")["detail"] == (
            "shed fraction 1.00 in the newest window"
        )


class TestLatencySlo:
    def test_inactive_without_an_objective(self):
        report = evaluate_samples([sample(p95=9_999.0)])
        assert rule(report, "HR03")["status"] == HEALTHY

    def test_empty_window_is_not_a_violation(self):
        report = evaluate_samples([sample(p95=None)], latency_slo_ms=100.0)
        assert rule(report, "HR03")["status"] == HEALTHY

    def test_thresholds(self):
        over = evaluate_samples([sample(p95=150.0)], latency_slo_ms=100.0)
        assert rule(over, "HR03")["status"] == DEGRADED
        far_over = evaluate_samples(
            [sample(p95=250.0)], latency_slo_ms=100.0
        )
        assert rule(far_over, "HR03")["status"] == UNHEALTHY


class TestQueueSaturation:
    def test_inactive_without_a_limit(self):
        report = evaluate_samples([sample(queue=100.0)] * 5)
        assert rule(report, "HR04")["status"] == HEALTHY

    def test_three_consecutive_near_limit_windows_degrade(self):
        samples = [sample(queue=9.0)] * 3
        report = evaluate_samples(samples, queue_limit=10)
        assert rule(report, "HR04")["status"] == DEGRADED

    def test_pinned_at_the_limit_is_unhealthy(self):
        report = evaluate_samples([sample(queue=10.0)] * 3, queue_limit=10)
        assert rule(report, "HR04")["status"] == UNHEALTHY

    def test_one_dip_resets_the_streak(self):
        samples = [sample(queue=10.0), sample(queue=0.0), sample(queue=10.0)]
        report = evaluate_samples(samples, queue_limit=10)
        assert rule(report, "HR04")["status"] == HEALTHY


class TestBreakerOpen:
    def test_open_and_half_open_degrade(self):
        for state in (1.0, 2.0):
            report = evaluate_samples([sample(breaker=state)])
            assert rule(report, "HR05")["status"] == DEGRADED

    def test_closed_is_healthy(self):
        report = evaluate_samples([sample(breaker=0.0)])
        assert rule(report, "HR05")["status"] == HEALTHY

    def test_worst_rule_wins_overall(self):
        report = evaluate_samples([sample(breaker=2.0)])
        assert report["status"] == DEGRADED
        assert report["windows"] == 1


class TestShardDown:
    def test_inactive_without_a_shard_tier(self):
        report = evaluate_samples([sample()])
        assert rule(report, "HR06")["status"] == HEALTHY

    def test_all_shards_up_is_healthy(self):
        report = evaluate_samples([sample()], shards_down=0, shards_total=4)
        assert rule(report, "HR06")["status"] == HEALTHY

    def test_one_shard_down_degrades(self):
        report = evaluate_samples([sample()], shards_down=1, shards_total=4)
        assert rule(report, "HR06")["status"] == DEGRADED
        assert report["status"] == DEGRADED

    def test_every_shard_down_is_unhealthy(self):
        report = evaluate_samples([sample()], shards_down=4, shards_total=4)
        assert rule(report, "HR06")["status"] == UNHEALTHY


class FixedSeries:
    """A live time series whose samples the test sets."""

    enabled = True

    def __init__(self, samples):
        self._samples = samples

    def bind(self, registry, lanes):
        pass

    def health_window(self):
        return summarize(self._samples)


def health_at(obs, now_ms):
    """The bundle's verdict, its clock moved on to ``now_ms``."""
    obs.clock.advance(now_ms - obs.clock.now_ms)
    return obs.health()


def live(samples, events=None):
    """A proxy bundle judging ``samples`` as its live time series."""
    series = FixedSeries(samples)
    return series, ProxyInstrumentation(timeseries=series, events=events)


class TestHealthMonitor:
    """The live verdict: ``TelemetryBundle.health``."""

    def test_first_healthy_verdict_is_silent(self):
        events = EventRecorder()
        _, obs = live([sample()], events)
        report = health_at(obs, 1_000.0)
        assert report["status"] == HEALTHY
        assert events.total == 0

    def test_verdict_flip_fires_ev11(self):
        events = EventRecorder()
        series, obs = live([sample()], events)
        health_at(obs, 1_000.0)
        series._samples = [sample(breaker=2.0)]
        health_at(obs, 2_000.0)
        health_at(obs, 3_000.0)  # unchanged verdict: no second event
        (event,) = events.recent()
        assert event["code"] == "EV11"
        assert event["at_ms"] == 2_000.0
        assert event["payload"] == {
            "status": DEGRADED, "previous": HEALTHY,
        }

    def test_first_verdict_already_degraded_fires_ev11(self):
        events = EventRecorder()
        _, obs = live([sample(breaker=2.0)], events)
        health_at(obs, 500.0)
        (event,) = events.recent()
        assert event["payload"]["previous"] is None

    def test_report_carries_config_fields(self):
        _, obs = live([sample(queue=10.0)] * 3)
        obs.set_admission_queue_limit(10)
        report = health_at(obs, 1_000.0)
        assert report["enabled"] is True
        assert report["at_ms"] == 1_000.0
        assert report["queue_limit"] == 10
        assert report["status"] == UNHEALTHY

    def test_latency_rule_is_inactive_live(self):
        # A live proxy configures no latency objective: HR03 passes a
        # window whose p95 is far over any objective.
        _, obs = live([sample(p95=9_999.0)])
        report = health_at(obs, 1_000.0)
        assert rule(report, "HR03") == rule(
            evaluate_samples([sample(p95=9_999.0)]), "HR03"
        )
        assert rule(report, "HR03")["status"] == HEALTHY
        assert "latency_slo_ms" not in report

    def test_null_monitor_is_always_healthy(self):
        obs = ProxyInstrumentation()  # time series off
        obs.set_admission_queue_limit(5)
        assert health_at(obs, 42.0) == {
            "enabled": False,
            "status": HEALTHY,
            "rules": [],
            "windows": 0,
            "at_ms": 42.0,
        }
