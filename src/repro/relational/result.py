"""Query result tables: the unit of caching and of network transfer.

The paper's proxy stores query results as XML files on disk and ships
them over HTTP.  :class:`ResultTable` is that artifact: an ordered,
column-named row set that knows its own serialized size (the byte budget
the cache manager enforces, and the payload size the simulated network
charges for), can serialize to/from the XML a person or a client reads
and the binary form every program-to-program copy carries, and supports
the merge/deduplicate operation the proxy performs when combining a
probe result with a remainder result.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

from repro.relational.errors import ExecutionError, SchemaError
from repro.relational.rowcodec import decode_table
from repro.relational.schema import Column, Schema
from repro.relational.types import NULL_BYTES, ColumnType

# Serialization overhead constants used by the byte-size estimate.  They
# approximate the per-row and per-cell tag cost of the XML wire format so
# that size accounting stays proportional to the real payload without
# materializing the XML string for every query.
_ROW_OVERHEAD_BYTES = 16
_CELL_OVERHEAD_BYTES = 8
_HEADER_OVERHEAD_BYTES = 128

Row = TypeVar("Row")


# The wire format is written as text, not through a DOM.  Escaping and
# the empty-element form are ElementTree's with one deviation: ``& < >``
# and also ``\r`` in character data, which a parser would otherwise
# normalize to ``\n``; in attribute values also ``"`` and the other
# whitespace a parser would normalize away.
_TEXT = (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ("\r", "&#13;"))
_ATTRIBUTE = _TEXT + (('"', "&quot;"), ("\n", "&#10;"), ("\t", "&#09;"))
# The cell types whose ``str`` needs no escaping and is never empty.
_NUMBERS = frozenset((int, float, bool))


def _escape(text: str, references: tuple[tuple[str, str], ...]) -> str:
    for char, reference in references:
        text = text.replace(char, reference)
    return text


def _element(tag: str, content: str) -> str:
    return f"<{tag}>{content}</{tag}>" if content else f"<{tag} />"


def _cell_xml(value: Any) -> str:
    if value is None:
        return '<C null="1" />'
    text = str(value)
    if not text:
        return "<C />"
    if "&" in text or "<" in text or ">" in text or "\r" in text:
        text = _escape(text, _TEXT)
    return f"<C>{text}</C>"


def columns_xml(schema: Schema) -> str:
    """The ``<Columns>`` element of every table of ``schema`` (which
    keeps it: ``Schema.xml_columns``)."""
    columns = "".join(
        [
            f'<Column name="{_escape(column.name, _ATTRIBUTE)}"'
            f' type="{column.type.value}" />'
            for column in schema.columns
        ]
    )
    return _element("Columns", columns)


def sort_rows(
    rows: Iterable[Row], keys: Sequence[tuple[Callable[[Row], Any], bool]]
) -> list[Row]:
    """ORDER BY: a stable multi-key sort.

    ``keys`` are ``(value of a row, descending)`` pairs, the dominant
    key first; whatever a row is (a joined source tuple, a result
    tuple), each key is computed once per row.  NULL sorts as the
    largest value: last ascending, first descending.
    """
    ordered = list(rows)
    # Right to left, so the leftmost key dominates: the sort is stable,
    # under ``reverse`` too.
    for value_of, descending in reversed(keys):

        def nulls_last(row: Row) -> tuple[bool, Any]:
            value = value_of(row)
            return (value is None, value)

        ordered.sort(key=nulls_last, reverse=descending)
    return ordered


class ResultTable:
    """An immutable-by-convention result set with size accounting."""

    def __init__(self, schema: Schema, rows: Iterable[Sequence[Any]]) -> None:
        self.schema = schema
        self._rows: list[tuple[Any, ...]] = [tuple(row) for row in rows]
        self._byte_size: int | None = None
        self._xml: str | None = None

    # ------------------------------------------------------------ basics
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultTable):
            return NotImplemented
        return (
            self.schema.names == other.schema.names
            and self._rows == other._rows
        )

    def __repr__(self) -> str:
        return (
            f"<ResultTable {len(self._rows)} rows x "
            f"{len(self.schema)} cols>"
        )

    @property
    def rows(self) -> Sequence[tuple[Any, ...]]:
        return self._rows

    @property
    def column_names(self) -> tuple[str, ...]:
        return self.schema.names

    def column_values(self, name: str) -> list[Any]:
        position = self.schema.position(name)
        return [row[position] for row in self._rows]

    # ------------------------------------------------------------- sizes
    def byte_size(self) -> int:
        """Approximate serialized (XML) size in bytes; cached.

        The sum of ``ColumnType.byte_size`` over every cell plus the
        tag overheads, in O(rows): fixed widths come from the schema's
        byte plan, and only STR values and rows holding a NULL are
        looked at cell by cell.
        """
        if self._byte_size is None:
            fixed, strings, widths = self.schema.byte_plan
            fixed += _ROW_OVERHEAD_BYTES + _CELL_OVERHEAD_BYTES * len(widths)
            total = _HEADER_OVERHEAD_BYTES + fixed * len(self._rows)
            for row in self._rows:
                for position in strings:
                    value = row[position]
                    if value is not None:
                        total += len(value.encode("utf-8"))
                if None in row:
                    for width, value in zip(widths, row):
                        if value is None:
                            total += NULL_BYTES - width
            self._byte_size = total
        return self._byte_size

    # -------------------------------------------------------- operations
    def filtered(self, keep: Callable[[tuple[Any, ...]], bool]) -> "ResultTable":
        """A new result containing only rows where ``keep(row)`` is True."""
        return ResultTable(self.schema, [r for r in self._rows if keep(r)])

    def top_n(self, limit: int) -> "ResultTable":
        if limit < 0:
            raise ExecutionError(f"negative TOP limit: {limit}")
        return ResultTable(self.schema, self._rows[:limit])

    def merge_dedup(self, other: "ResultTable", key: str) -> "ResultTable":
        """Union with ``other``, deduplicating on ``key`` (first wins).

        The proxy uses this to combine the probe result (tuples served
        from the cache) with the remainder result from the origin, and to
        merge several subsumed cache entries in the region-containment
        case.  Column sets must match exactly.
        """
        if self.schema.names != other.schema.names:
            raise SchemaError(
                "cannot merge results with different columns: "
                f"{self.schema.names} vs {other.schema.names}"
            )
        position = self.schema.position(key)
        seen = {row[position] for row in self._rows}
        merged = list(self._rows)
        for row in other._rows:
            if row[position] not in seen:
                seen.add(row[position])
                merged.append(row)
        return ResultTable(self.schema, merged)

    # ------------------------------------------------------- wire format
    def to_xml(self) -> str:
        """Serialize to the XML wire format used by the HTTP deployment.

        Rendered once per table and kept, like :meth:`byte_size`: every
        HTTP response carrying the table hands out this string.
        """
        if self._xml is None:
            self._xml = self._render_xml()
        return self._xml

    def _render_xml(self) -> str:
        # A row of numbers and booleans renders without a look at each
        # cell: its text needs no escaping and is never empty.
        rows = "".join(
            [
                "<R><C>" + "</C><C>".join(map(str, row)) + "</C></R>"
                if row and _NUMBERS.issuperset(map(type, row))
                else _element("R", "".join(map(_cell_xml, row)))
                for row in self._rows
            ]
        )
        return (
            "<ResultTable>"
            + self.schema.xml_columns
            + _element("Rows", rows)
            + "</ResultTable>"
        )

    @staticmethod
    def from_xml(text: str) -> "ResultTable":
        """Parse the wire format back into a result table."""
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise ExecutionError(f"malformed result XML: {exc}") from None
        columns = []
        for column_el in root.find("Columns") or []:
            columns.append(
                Column(
                    column_el.get("name"),
                    ColumnType(column_el.get("type")),
                )
            )
        schema = Schema(tuple(columns))
        parsers = {
            ColumnType.INT: int,
            ColumnType.FLOAT: float,
            ColumnType.STR: str,
            ColumnType.BOOL: lambda text: text == "True",
        }
        rows = []
        for row_el in root.find("Rows") or []:
            values = []
            for column, cell in zip(schema.columns, row_el):
                if cell.get("null") == "1":
                    values.append(None)
                else:
                    values.append(parsers[column.type](cell.text or ""))
            rows.append(values)
        return ResultTable(schema, rows)

    def to_bytes(self) -> bytes:
        """The binary form every machine-read copy of a result takes
        (journal, snapshot, handoff, the origin's answer to a proxy):
        the schema's column list, encoded once per schema, then the
        rows (:mod:`repro.relational.rowcodec`).  Every value comes
        back exactly, floats bit for bit."""
        return self.schema.row_codec.encode(self._rows)

    @staticmethod
    def from_bytes(data: bytes) -> "ResultTable":
        """Rebuild a table from :meth:`to_bytes`'s form
        (:class:`SchemaError` on a blob that is not exactly one
        well-formed table)."""
        schema, rows = decode_table(data)
        return ResultTable(schema, rows)

    @staticmethod
    def empty(schema: Schema) -> "ResultTable":
        return ResultTable(schema, [])
