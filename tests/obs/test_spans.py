"""Stages and the tracer: nesting, ordering, ring buffer, JSONL, and
the stack with no reader on."""

import json

import pytest

from repro.obs import ProxyInstrumentation
from repro.obs.spans import NullTracer, ScopeStack, SpanTracer


class FakeClock:
    """A deterministic perf_counter: advances a fixed step per call."""

    def __init__(self, step_s: float = 0.001) -> None:
        self.now = 0.0
        self.step = step_s

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def traced(**kwargs):
    """A tracer and a stack whose only reader it is."""
    tracer = SpanTracer(**kwargs)
    return tracer, ScopeStack(tracer=tracer)


class TestSpanTracer:
    def test_nesting_and_ordering(self):
        tracer, stack = traced(clock=FakeClock())
        with stack.scope("query", index=1):
            with stack.scope("check"):
                with stack.scope("relate"):
                    pass
            with stack.scope("origin"):
                pass
        [root] = tracer.recent()
        assert root["name"] == "query"
        assert root["attrs"] == {"index": 1}
        children = [child["name"] for child in root["children"]]
        assert children == ["check", "origin"]
        assert root["children"][0]["children"][0]["name"] == "relate"

    def test_wall_clock_measured(self):
        tracer, stack = traced(clock=FakeClock(step_s=0.001))
        with stack.scope("work"):
            pass
        [root] = tracer.recent()
        # One clock call on enter, one on exit: exactly one step = 1 ms.
        assert root["wall_ms"] == pytest.approx(1.0)

    def test_charge_accumulates_simulated_ms(self):
        # Charging is what a query's phases do; the charge is the
        # stage's ``sim_ms`` in the retained tree.
        obs = ProxyInstrumentation(tracer=SpanTracer())
        with obs.observe_query(1, "Radial") as query:
            with query.phase("origin") as origin:
                origin.charge(100.0)
                origin.charge(50.0)
        [root] = obs.tracer.recent()
        [origin] = root["children"]
        assert origin["sim_ms"] == pytest.approx(150.0)
        assert query.steps == {"origin": pytest.approx(150.0)}

    def test_event_is_a_zero_duration_child(self):
        tracer, stack = traced(clock=FakeClock(step_s=0.0))
        with stack.scope("query"):
            stack.event("parse", sim_ms=2.0)
        [root] = tracer.recent()
        [child] = root["children"]
        assert child["name"] == "parse"
        assert child["sim_ms"] == 2.0
        assert child["wall_ms"] == 0.0

    def test_exception_annotates_and_unwinds(self):
        tracer, stack = traced()
        with pytest.raises(RuntimeError):
            with stack.scope("query"):
                with stack.scope("origin"):
                    raise RuntimeError("origin down")
        [root] = tracer.recent()
        assert root["attrs"]["error"] == "RuntimeError"
        assert root["children"][0]["attrs"]["error"] == "RuntimeError"

    def test_ring_buffer_keeps_most_recent(self):
        tracer, stack = traced(capacity=3)
        for i in range(10):
            with stack.scope("query", index=i):
                pass
        roots = tracer.recent()
        assert [r["attrs"]["index"] for r in roots] == [7, 8, 9]
        assert [r["attrs"]["index"] for r in tracer.recent(2)] == [8, 9]

    def test_recent_nonpositive_limits_yield_nothing(self):
        tracer, stack = traced()
        with stack.scope("query"):
            pass
        assert tracer.recent(0) == []
        assert tracer.recent(-5) == []

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SpanTracer(capacity=0)

    def test_jsonl_export_round_trips(self, tmp_path):
        tracer, stack = traced()
        for i in range(3):
            with stack.scope("query", index=i):
                with stack.scope("check"):
                    pass
        lines = tracer.export_jsonl().splitlines()
        assert len(lines) == 3
        parsed = [json.loads(line) for line in lines]
        assert [p["attrs"]["index"] for p in parsed] == [0, 1, 2]

        path = tmp_path / "trace.spans.jsonl"
        assert tracer.write_jsonl(path) == 3
        assert tracer.write_jsonl(path) == 3  # appends
        assert len(path.read_text().splitlines()) == 6


class TestNullTracer:
    def test_emits_nothing_and_adds_no_spans(self):
        # A stack with no reader on still nests and times its stages;
        # the finished tree is dropped when the root closes.
        stack = ScopeStack()
        tracer = stack.tracer
        assert isinstance(tracer, NullTracer) and not tracer.enabled
        with stack.scope("query", index=1) as root:
            root.annotate(status="exact")
            with stack.scope("check") as check:
                stack.event("parse", sim_ms=2.0)
        assert [c.name for c in root.children] == ["check"]
        assert [c.name for c in check.children] == ["parse"]
        assert root.trace_id is None and check.span_id is None
        assert stack.current_traceparent() is None
        assert tracer.spans_started == 0
        assert tracer.recent() == []
        assert tracer.export_jsonl() == ""


class TestHiddenStages:
    def test_hidden_stage_is_left_out_of_the_trace(self):
        tracer, stack = traced()
        with stack.scope("check"):
            with stack.scope("probe.array", hidden=True) as probe:
                probe.count("candidates", 3)
            with stack.scope("relate"):
                pass
        [root] = tracer.recent()
        assert [c["name"] for c in root["children"]] == ["relate"]
        # No identity was drawn for it, and it is not a started span.
        assert probe.span_id is None
        assert tracer.spans_started == 2

    def test_only_hidden_children_leave_no_children_key(self):
        tracer, stack = traced()
        with stack.scope("query"):
            with stack.scope("admit.shed", hidden=True):
                pass
        [root] = tracer.recent()
        assert "children" not in root
