"""Traces."""

from repro.workload.trace import Trace, TraceQuery


def query(ra=1.0):
    return TraceQuery.of("tpl", {"ra": ra, "dec": 2.0})


class TestTraceQuery:
    def test_equality_is_order_insensitive(self):
        a = TraceQuery.of("t", {"x": 1, "y": 2})
        b = TraceQuery.of("t", {"y": 2, "x": 1})
        assert a == b
        assert hash(a) == hash(b)

    def test_param_dict_roundtrip(self):
        assert query().param_dict() == {"ra": 1.0, "dec": 2.0}


class TestTrace:
    def test_append_len_iter(self):
        trace = Trace()
        trace.append(query())
        trace.append(query(2.0))
        assert len(trace) == 2
        assert list(trace)[1].param_dict()["ra"] == 2.0

    def test_head_and_slicing(self):
        trace = Trace([query(float(i)) for i in range(5)])
        assert len(trace.head(2)) == 2
        assert len(trace[1:4]) == 3
        assert trace[0].param_dict()["ra"] == 0.0

    def test_distinct_count(self):
        trace = Trace([query(1.0), query(1.0), query(2.0)])
        assert trace.distinct_count() == 2
