"""Decision-explain layer: action mapping, ring buffer, SLO burn rates."""

import json
from types import SimpleNamespace

import pytest

from repro.geometry.regions import HyperRect, HyperSphere
from repro.obs.decisions import (
    ACTION_CODES,
    DECISION_CAPACITY as CAPACITY,
    DecisionAction,
    DecisionLog,
    EvictionRecord,
    action_for,
    region_summary,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloTracker, _burn_rate


class TestActionMapping:
    @pytest.mark.parametrize(
        "status,expected",
        [
            ("exact", DecisionAction.EXACT),
            ("contained", DecisionAction.CONTAINED),
            ("region-containment", DecisionAction.REGION_CONTAINED),
            ("overlap", DecisionAction.REMAINDER),
            ("disjoint", DecisionAction.MISS),
            ("forwarded", DecisionAction.MISS),
            ("no-cache", DecisionAction.TUNNEL),
            ("failed", DecisionAction.FAILED),
            ("rejected", DecisionAction.SHED),
        ],
    )
    def test_served_statuses(self, status, expected):
        assert action_for(status, "served") is expected

    @pytest.mark.parametrize(
        "outcome,expected",
        [
            ("failed", DecisionAction.FAILED),
            ("degraded", DecisionAction.DEGRADED),
            ("partial", DecisionAction.PARTIAL),
            ("shed", DecisionAction.SHED),
            ("queued-timeout", DecisionAction.QUEUED_TIMEOUT),
        ],
    )
    def test_outcome_overrides_status(self, outcome, expected):
        assert action_for("overlap", outcome) is expected

    def test_unknown_status_is_an_error(self):
        with pytest.raises(ValueError):
            action_for("telepathy", "served")

    def test_codes_are_stable_and_unique(self):
        codes = [action.code for action in DecisionAction]
        assert codes == [f"DA{n:02d}" for n in range(1, 12)]
        assert len(set(ACTION_CODES.values())) == len(DecisionAction)


class TestRegionSummary:
    def test_hypersphere(self):
        summary = region_summary(HyperSphere((1.0, 2.0), 3.0))
        assert summary == {
            "shape": "hypersphere",
            "center": [1.0, 2.0],
            "radius": 3.0,
        }

    def test_hyperrect(self):
        summary = region_summary(HyperRect((0.0, 0.0), (1.0, 2.0)))
        assert summary["shape"] == "hyperrect"
        assert summary["lows"] == [0.0, 0.0]
        assert summary["highs"] == [1.0, 2.0]

    def test_summaries_are_json_able(self):
        json.dumps(region_summary(HyperSphere((0.0, 0.0), 1.0)))


class TestDecisionTrace:
    def test_full_record_round_trip(self):
        log = DecisionLog()
        trace = log.begin(
            1,
            "skyserver.radial",
            query_region=HyperSphere((0.0, 0.0), 5.0),
            scheme="ac-full",
            policy={"cache": True},
        )
        trace.record_candidate(
            entry_id=7,
            relation="overlap",
            entry_region=HyperSphere((3.0, 0.0), 4.0),
            rows=120,
        )
        trace.record_candidate(
            entry_id=8,
            relation="skipped",
            entry_region=HyperSphere((9.0, 9.0), 1.0),
            note="truncated entry (exact matches only)",
        )
        trace.record_remainder(
            SimpleNamespace(
                geometry=lambda: {
                    "base": region_summary(HyperSphere((0.0, 0.0), 5.0))
                },
            )
        )
        trace.record_eviction(
            EvictionRecord(
                entry_id=3,
                policy="lru",
                rationale="least recently used",
                byte_size=4096,
            )
        )
        trace.record_admission(True, consolidated=[7])
        trace.finish("overlap", "served", trace_id="a" * 32)
        log.record(trace)

        payload = log.get(1).to_dict()
        assert payload["action"] == "remainder"
        assert payload["action_code"] == "DA04"
        assert [c["entry_id"] for c in payload["candidates"]] == [7, 8]
        assert payload["candidates"][0]["relation"] == "overlap"
        assert payload["candidates"][1]["note"].startswith("truncated")
        assert payload["query_region"]["radius"] == 5.0
        assert payload["remainder"] == {
            "base": region_summary(HyperSphere((0.0, 0.0), 5.0))
        }
        assert payload["evictions"][0]["rationale"] == "least recently used"
        assert payload["consolidated"] == [7]
        assert payload["admitted"] is True
        assert payload["trace_id"] == "a" * 32
        json.dumps(payload)

    def test_unfinished_trace_renders_empty_action(self):
        log = DecisionLog()
        trace = log.begin(1, "t")
        payload = trace.to_dict()
        assert payload["action"] == ""
        assert payload["action_code"] == ""


class TestDecisionLog:
    def _finished(self, log, query_id, status="exact"):
        trace = log.begin(query_id, "t")
        trace.finish(status, "served")
        log.record(trace)
        return trace

    def test_begin_does_not_insert(self):
        log = DecisionLog()
        log.begin(1, "t")
        assert len(log) == 0
        assert log.get(1) is None

    def test_ring_evicts_oldest(self):
        log = DecisionLog()
        for query_id in range(1, CAPACITY + 3):
            self._finished(log, query_id)
        assert len(log) == CAPACITY == log.capacity
        assert log.get(1) is None
        assert log.get(2) is None
        assert [d["query_id"] for d in log.recent()] == list(
            range(3, CAPACITY + 3)
        )

    def test_rerecorded_query_id_survives_old_copy_eviction(self):
        log = DecisionLog()
        self._finished(log, 1, status="disjoint")
        newer = self._finished(log, 1, status="exact")
        for query_id in range(2, CAPACITY + 1):
            self._finished(log, query_id)  # would evict an old copy
        assert log.get(1) is newer

    def test_one_container_keeps_one_trace_per_id(self):
        log = DecisionLog()
        last = CAPACITY + 2
        for query_id in range(1, last + 1):
            self._finished(log, query_id)
        assert log.get(1) is None and log.get(2) is None
        # Re-recording an id replaces its trace and makes it the newest.
        again = self._finished(log, 3, status="disjoint")
        assert len(log) == CAPACITY
        assert log.get(3) is again
        assert [d["query_id"] for d in log.recent(3)] == [
            last - 1, last, 3,
        ]
        assert log.action_counts() == {"exact": CAPACITY - 1, "miss": 1}

    def test_recent_limits(self):
        log = DecisionLog()
        for query_id in range(1, 5):
            self._finished(log, query_id)
        assert [d["query_id"] for d in log.recent(2)] == [3, 4]
        assert log.recent(0) == []

    def test_action_counts(self):
        log = DecisionLog()
        self._finished(log, 1, status="exact")
        self._finished(log, 2, status="exact")
        self._finished(log, 3, status="disjoint")
        assert log.action_counts() == {"exact": 2, "miss": 1}


class TestSloTracker:
    def _tracker(self):
        return SloTracker(MetricsRegistry())

    def test_hit_ratio_and_burn_rate(self):
        # Miss rate 0.5 against a 0.25 budget: burning 2x.
        assert _burn_rate(2, 4, 0.75) == 2.0
        tracker = self._tracker()
        for hit in (True, True, False, False):
            tracker.observe("t", hit=hit, latency_ms=1.0)
        snapshot = tracker.snapshot()["t"]
        assert snapshot["queries"] == 4
        assert snapshot["hit_ratio"] == 0.5
        # The same miss rate against the 0.5 budget: exactly on it.
        assert snapshot["hit_burn_rate"] == 1.0

    def test_latency_burn_rate(self):
        # Violation rate 0.5 against a 0.1 budget: burning 5x.
        assert _burn_rate(2, 4, 0.9) == pytest.approx(5.0)
        tracker = self._tracker()
        for latency in (50.0, 1_000.0, 1_500.0, 1_500.0):
            tracker.observe("t", hit=True, latency_ms=latency)
        snapshot = tracker.snapshot()["t"]
        assert snapshot["within_latency"] == 2
        # ... and against the 0.05 budget: 10x.
        assert snapshot["latency_burn_rate"] == pytest.approx(10.0)

    def test_no_queries_means_no_burn(self):
        assert _burn_rate(0, 0, 0.5) == 0.0
        tracker = self._tracker()
        assert tracker.snapshot() == {}

    def test_gauges_exported(self):
        registry = MetricsRegistry()
        tracker = SloTracker(registry)
        tracker.observe("t", hit=True, latency_ms=1.0)
        text = registry.exposition()
        assert 'slo_hit_ratio{template="t"} 1' in text
        assert 'slo_queries_total{template="t"} 1' in text
        assert "slo_hit_burn_rate" in text
        assert "slo_latency_burn_rate" in text
