"""A result comes back exactly from every program-to-program copy.

A result leaves the process as its binary table
(``ResultTable.to_bytes``): in a journal frame (and so in a snapshot),
in a handoff replayed into another proxy, and as the origin app's
answer to ``POST /query``.  Whatever a table holds — NULL in every
type, any NaN (payload and sign included), the infinities, ``-0.0``,
ints beyond 64 bits, empty, control and non-BMP text, no rows or no
columns at all — comes back with the same column names and types and,
cell by cell, the same value of the same Python type.  Floats are
compared by their bits, never with ``==``.
"""

import importlib.util
import struct
import threading
from contextlib import contextmanager
from wsgiref.simple_server import WSGIRequestHandler, make_server

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.handoff import replay_records
from repro.core.proxy import FunctionProxy
from repro.geometry.regions import region_to_dict
from repro.persistence.records import (
    HEADER_SIZE,
    AdmitRecord,
    encode_record,
    parse_payload,
)
from repro.relational.result import ResultTable
from repro.relational.schema import Column, Schema
from repro.relational.types import ColumnType
from repro.server.origin import OriginResponse, OriginServer
from repro.templates.skyserver_templates import RADIAL_TEMPLATE_ID
from tests.conftest import SMALL_SKY

HAS_FLASK = importlib.util.find_spec("flask") is not None


def bits(value):
    return struct.unpack("<d", struct.pack("<Q", value))[0]


AWKWARD_TEXT = ["", "\r", "\x01", "\r\n", "\U0001f52d", "a\rb", '"\\', "\x00"]
NANS = [
    float("nan"),
    bits(0xFFF8_0000_0000_0001),  # negative, with a payload
    bits(0x7FF0_0000_0000_0001),  # signalling
    bits(0xFFF0_0000_0000_0123),
]
AWKWARD_FLOATS = NANS + [float("inf"), float("-inf"), -0.0, 0.0, 5e-324]
INT64 = 2**63

VALUES = {
    ColumnType.INT: st.one_of(
        st.sampled_from(
            [INT64 - 1, -INT64, INT64, -INT64 - 1, 2**53 + 1, 2**80, -(2**200)]
        ),
        st.integers(min_value=-(2**70), max_value=2**70),
    ),
    ColumnType.FLOAT: st.one_of(st.sampled_from(AWKWARD_FLOATS), st.floats()),
    ColumnType.STR: st.one_of(st.sampled_from(AWKWARD_TEXT), st.text()),
    ColumnType.BOOL: st.booleans(),
}


@st.composite
def tables(draw):
    types = draw(st.lists(st.sampled_from(list(ColumnType)), max_size=10))
    schema = Schema(
        tuple(Column(f"c{i}_x.y", ctype) for i, ctype in enumerate(types))
    )
    row = st.tuples(*[st.one_of(st.none(), VALUES[t]) for t in types])
    return ResultTable(schema, draw(st.lists(row, max_size=6)))


def same_cell(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def assert_exact(decoded, table):
    assert [(c.name, c.type) for c in decoded.schema.columns] == [
        (c.name, c.type) for c in table.schema.columns
    ]
    assert len(decoded) == len(table)
    for got, want in zip(decoded.rows, table.rows):
        assert type(got) is tuple
        assert len(got) == len(want)
        assert all(map(same_cell, got, want)), (got, want)


# ------------------------------------------------------------ the copies
class Site:
    """An origin over the small sky whose ``/query`` answers whatever
    table is ``answer``, and a Radial query its templates bind."""

    def __init__(self):
        self.origin = OriginServer.skyserver(SMALL_SKY)
        self.answer = ResultTable.empty(Schema(()))
        self.origin.execute_bound = lambda bound: OriginResponse(
            self.answer, 1.0
        )
        self.bound = self.origin.templates.bind(
            RADIAL_TEMPLATE_ID,
            {"ra": 164.0, "dec": 8.0, "radius": 10.0,
             "r_min": -9999.0, "r_max": 9999.0},
        )
        self.client = None

    def record_of(self, table, entry_id=1):
        return AdmitRecord(
            entry_id=entry_id,
            template_id=RADIAL_TEMPLATE_ID,
            params=dict(self.bound.params),
            region=region_to_dict(self.bound.region),
            signature=self.bound.signature,
            truncated=False,
            result=table.to_bytes(),
            data_version=self.origin.data_version,
            ts_ms=0.0,
        )

    def through_a_frame(self, table):
        frame = encode_record(self.record_of(table))
        record = parse_payload(frame[HEADER_SIZE:])
        return ResultTable.from_bytes(record.result)

    def through_a_handoff(self, table):
        proxy = FunctionProxy(self.origin, self.origin.templates)
        report = replay_records((self.record_of(table),), proxy, "a", "b")
        assert report.replayed == 1
        (entry,) = proxy.cache.entries()
        return entry.result

    def over_http(self, table):
        self.answer = table
        return self.client.execute_bound(self.bound).result


class QuietHandler(WSGIRequestHandler):
    def log_message(self, *args):
        pass


@contextmanager
def serving(app):
    server = make_server("127.0.0.1", 0, app, handler_class=QuietHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


@pytest.fixture(scope="module")
def site():
    site = Site()
    if not HAS_FLASK:
        yield site
        return
    from repro.webapp.http_origin import HttpOriginClient
    from repro.webapp.origin_app import create_origin_app

    with serving(create_origin_app(site.origin)) as url:
        site.client = HttpOriginClient(url)
        yield site


def copies(site):
    ways = [site.through_a_frame, site.through_a_handoff]
    return ways + [site.over_http] if HAS_FLASK else ways


ALL_TYPES = Schema(tuple(Column(f"c{t.value}", t) for t in ColumnType))


@settings(max_examples=200, deadline=None)
@given(tables())
@example(ResultTable(Schema(()), []))
@example(ResultTable(Schema(()), [(), ()]))
@example(ResultTable(ALL_TYPES, []))
@example(ResultTable(ALL_TYPES, [(None, None, None, None)]))
@example(
    ResultTable(
        ALL_TYPES,
        [
            (INT64, NANS[1], "\r", True),
            (-(2**80), -0.0, "\x01\U0001f52d", False),
            (0, float("-inf"), "", None),
            (-INT64, NANS[2], None, True),
        ],
    )
)
def test_a_table_comes_back_exactly_from_every_copy(site, table):
    for copy in copies(site):
        assert_exact(copy(table), table)


@settings(max_examples=100, deadline=None)
@given(st.lists(tables(), max_size=4))
def test_a_handoff_carries_tables_exactly(site, tables_):
    # Every record is the same query, so each replay replaces the
    # entry the one before it stored.
    proxy = FunctionProxy(site.origin, site.origin.templates)
    for entry_id, table in enumerate(tables_, start=1):
        record = site.record_of(table, entry_id)
        report = replay_records((record,), proxy, "a", "b")
        assert report.replayed == 1
        (entry,) = proxy.cache.entries()
        assert_exact(entry.result, table)


def test_any_nan_comes_back_bit_for_bit(site):
    table = ResultTable(
        Schema.of(("f", ColumnType.FLOAT)), [(nan,) for nan in NANS]
    )
    for copy in copies(site):
        rows = copy(table).rows
        assert [struct.pack("<d", f) for (f,) in rows] == [
            struct.pack("<d", nan) for nan in NANS
        ]


def test_a_float_column_widens_an_int_cell_as_from_xml_does(site):
    table = ResultTable(Schema.of(("f", ColumnType.FLOAT)), [(3,)])
    (row,) = site.through_a_frame(table).rows
    (xml_row,) = ResultTable.from_xml(table.to_xml()).rows
    assert row == xml_row == (3.0,)
    assert type(row[0]) is float
