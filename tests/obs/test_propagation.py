"""W3C traceparent propagation: formatting, parsing, id generation."""

import pytest

from repro.obs.propagation import IdGenerator, TraceContext, parse_traceparent
from repro.obs.spans import ScopeStack, SpanTracer

TRACE = "0af7651916cd43dd8448eb211c80319c"
SPAN = "b7ad6b7169203331"


class TestTraceContext:
    def test_to_traceparent_sampled(self):
        context = TraceContext(trace_id=TRACE, span_id=SPAN)
        assert context.to_traceparent() == f"00-{TRACE}-{SPAN}-01"

    def test_to_traceparent_unsampled(self):
        context = TraceContext(trace_id=TRACE, span_id=SPAN, sampled=False)
        assert context.to_traceparent() == f"00-{TRACE}-{SPAN}-00"

    def test_round_trip(self):
        context = TraceContext(trace_id=TRACE, span_id=SPAN)
        parsed = parse_traceparent(context.to_traceparent())
        assert parsed == context


class TestParseTraceparent:
    def test_valid_header(self):
        parsed = parse_traceparent(f"00-{TRACE}-{SPAN}-01")
        assert parsed is not None
        assert parsed.trace_id == TRACE
        assert parsed.span_id == SPAN
        assert parsed.sampled

    def test_unsampled_flags(self):
        parsed = parse_traceparent(f"00-{TRACE}-{SPAN}-00")
        assert parsed is not None
        assert not parsed.sampled

    def test_future_version_accepted(self):
        assert parse_traceparent(f"01-{TRACE}-{SPAN}-01") is not None

    def test_uppercase_hex_normalized(self):
        # Forgiving parse: uppercase hex is lowered, not rejected.
        parsed = parse_traceparent(f"00-{TRACE.upper()}-{SPAN}-01")
        assert parsed is not None
        assert parsed.trace_id == TRACE

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "garbage",
            f"00-{TRACE}-{SPAN}",  # missing flags
            f"00-{TRACE}-{SPAN}-01-extra",
            f"00-{TRACE[:-1]}-{SPAN}-01",  # short trace id
            f"00-{TRACE}-{SPAN[:-1]}-01",  # short span id
            f"00-{TRACE[:-1]}g-{SPAN}-01",  # non-hex
            f"ff-{TRACE}-{SPAN}-01",  # version ff reserved
            f"00-{'0' * 32}-{SPAN}-01",  # all-zero trace id
            f"00-{TRACE}-{'0' * 16}-01",  # all-zero span id
        ],
    )
    def test_malformed_headers_yield_none(self, header):
        assert parse_traceparent(header) is None


class TestIdGenerator:
    def test_shapes(self):
        ids = IdGenerator(seed=1)
        trace_id = ids.trace_id()
        span_id = ids.span_id()
        assert len(trace_id) == 32 and int(trace_id, 16) != 0
        assert len(span_id) == 16 and int(span_id, 16) != 0

    def test_seeded_generators_are_deterministic(self):
        a, b = IdGenerator(seed=7), IdGenerator(seed=7)
        assert [a.trace_id() for _ in range(3)] == [
            b.trace_id() for _ in range(3)
        ]
        assert a.span_id() == b.span_id()

    def test_different_seeds_diverge(self):
        assert IdGenerator(seed=1).trace_id() != IdGenerator(seed=2).trace_id()


class TestTracerPropagation:
    def test_spans_carry_ids(self):
        stack = ScopeStack(tracer=SpanTracer(ids=IdGenerator(seed=3)))
        with stack.scope("parent") as parent:
            with stack.scope("child") as child:
                assert child.trace_id == parent.trace_id
                assert child.parent_id == parent.span_id
        assert parent.parent_id is None

    def test_current_traceparent_inside_span(self):
        stack = ScopeStack(tracer=SpanTracer(ids=IdGenerator(seed=3)))
        assert stack.current_traceparent() is None
        with stack.scope("serve") as span:
            header = stack.current_traceparent()
            parsed = parse_traceparent(header)
            assert parsed is not None
            assert parsed.trace_id == span.trace_id
            assert parsed.span_id == span.span_id
        assert stack.current_traceparent() is None

    def test_remote_context_adopts_incoming_trace(self):
        stack = ScopeStack(tracer=SpanTracer(ids=IdGenerator(seed=3)))
        incoming = TraceContext(trace_id=TRACE, span_id=SPAN)
        with stack.remote_context(incoming):
            with stack.scope("execute") as span:
                assert span.trace_id == TRACE
                assert span.parent_id == SPAN
        # Outside the context the stack is back to minting fresh traces.
        with stack.scope("later") as span:
            assert span.trace_id != TRACE

    def test_remote_context_none_is_a_noop(self):
        stack = ScopeStack(tracer=SpanTracer(ids=IdGenerator(seed=3)))
        with stack.remote_context(None):
            with stack.scope("execute") as span:
                assert span.trace_id != TRACE
                assert span.parent_id is None

    def test_export_includes_ids(self):
        stack = ScopeStack(tracer=SpanTracer(ids=IdGenerator(seed=3)))
        with stack.scope("serve"):
            with stack.scope("check"):
                pass
        [root] = stack.tracer.recent(1)
        assert set(root) >= {"trace_id", "span_id"}
        assert "parent_id" not in root  # roots omit the absent parent
        [child] = root["children"]
        assert child["parent_id"] == root["span_id"]
        assert child["trace_id"] == root["trace_id"]
