"""``ResultTable.to_xml`` writes text directly; ElementTree is the oracle.

The renderer that used to live in ``to_xml`` — build a DOM, then
``ET.tostring`` it — is kept here as the reference.  The direct
renderer reproduces its bytes exactly — same escaping, same short forms
for NULL, ``""`` and empty containers — with one deviation: a ``\r``
in cell text is written ``&#13;``, where ElementTree leaves it raw and
every parser then reads it back as ``\n``.
"""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.relational.result import ResultTable
from repro.relational.schema import Column, Schema
from repro.relational.types import ColumnType


def reference_xml(table: ResultTable) -> str:
    root = ET.Element("ResultTable")
    columns = ET.SubElement(root, "Columns")
    for column in table.schema.columns:
        ET.SubElement(
            columns, "Column", name=column.name, type=column.type.value
        )
    rows_el = ET.SubElement(root, "Rows")
    for row in table.rows:
        row_el = ET.SubElement(rows_el, "R")
        for value in row:
            cell = ET.SubElement(row_el, "C")
            if value is None:
                cell.set("null", "1")
            else:
                cell.text = str(value)
    # The one deviation: ElementTree already writes ``\r`` in attribute
    # values as ``&#13;``, so any raw one left is in cell text.
    return ET.tostring(root, encoding="unicode").replace("\r", "&#13;")


AWKWARD_TEXT = [
    "",
    "&",
    "<",
    ">",
    '"',
    "'",
    "\r",
    "\n",
    "\t",
    "&amp;",
    "]]>",
    "</C><C>x",
    "<C null=\"1\" />",
    "\U0001f52d",  # non-BMP
    "café 星",
]
AWKWARD_FLOATS = [
    float("inf"),
    float("-inf"),
    float("nan"),
    -0.0,
    1e-07,
    1e22,
    0.1 + 0.2,
]

VALUES = {
    ColumnType.INT: st.integers(min_value=-(2**70), max_value=2**70),
    ColumnType.FLOAT: st.one_of(
        st.sampled_from(AWKWARD_FLOATS), st.floats(), st.integers(-5, 5)
    ),
    ColumnType.STR: st.one_of(
        st.sampled_from(AWKWARD_TEXT),
        st.text(max_size=12),
        st.lists(st.sampled_from(AWKWARD_TEXT), max_size=4).map("".join),
    ),
    ColumnType.BOOL: st.booleans(),
}


@st.composite
def tables(draw):
    types = draw(st.lists(st.sampled_from(list(ColumnType)), max_size=13))
    schema = Schema(
        tuple(Column(f"c{i}_x.y", ctype) for i, ctype in enumerate(types))
    )
    row = st.tuples(*[st.one_of(st.none(), VALUES[t]) for t in types])
    return ResultTable(schema, draw(st.lists(row, max_size=6)))


@settings(max_examples=300, deadline=None)
@given(tables())
@example(ResultTable(Schema(()), []))
@example(ResultTable(Schema(()), [(), ()]))
@example(ResultTable(Schema.of(("s", ColumnType.STR)), [("",), (None,)]))
def test_direct_renderer_matches_elementtree_byte_for_byte(table):
    assert table.to_xml() == reference_xml(table)


def test_cells_of_the_wrong_type_render_as_elementtree_renders_them():
    # Tables are untyped at run time: whatever ``str`` gives is escaped.
    table = ResultTable(
        Schema.of(("n", ColumnType.INT), ("f", ColumnType.FLOAT)),
        [("<1>", "a&b"), (b"<", [1, "<"])],
    )
    assert table.to_xml() == reference_xml(table)


def test_attribute_escaping_matches_elementtree():
    # ``Column`` refuses such names today; the renderer must not depend
    # on that to stay well formed.
    column = object.__new__(Column)
    object.__setattr__(column, "name", "a\"b&<>\r\n\t'")
    object.__setattr__(column, "type", ColumnType.STR)
    table = ResultTable(Schema((column,)), [("v",)])
    assert table.to_xml() == reference_xml(table)
    (parsed,) = ET.fromstring(table.to_xml()).find("Columns")
    assert parsed.get("name") == column.name


@pytest.mark.parametrize("text", ["\r", "a\rb", "\r\n", "x\r\r<&"])
def test_a_carriage_return_in_a_cell_round_trips(text):
    table = ResultTable(Schema.of(("s", ColumnType.STR)), [(text,)])
    assert "\r" not in table.to_xml()
    assert ResultTable.from_xml(table.to_xml()).rows == [(text,)]


def test_markup_in_a_cell_parses_back_as_one_cell():
    table = ResultTable(
        Schema.of(("s", ColumnType.STR), ("n", ColumnType.INT)),
        [("</C><C>x", 7)],
    )
    text = table.to_xml()
    assert "<C>&lt;/C&gt;&lt;C&gt;x</C><C>7</C>" in text
    (row,) = ET.fromstring(text).find("Rows")
    assert [cell.text for cell in row] == ["</C><C>x", "7"]
    assert ResultTable.from_xml(text) == table
