"""The binary table form: what a program reads, where XML is for people.

A result travels to another program — the journal, a snapshot, a
handoff, the origin's answer to a proxy — as one self-describing blob
(every integer little-endian)::

    [u32 header length] [header]          the schema, encoded once per schema
        header := [u16 column count] then per column
                  [u8 type code] [u16 name length] [name, UTF-8]
    [u32 row count]
    rows, each := [NULL bitmap] [fixed-width cells] [variable part]

* The bitmap has one bit per column (bit ``i % 8`` of byte ``i // 8``
  for column ``i``; at least one byte); a set bit means the cell is
  not in the fixed part.
* The fixed part is one ``struct`` pack of every non-STR column, in
  column order: INT ``q``, FLOAT ``d`` (its bits, so NaN payloads,
  signs and -0.0 survive), BOOL ``?``.  A flagged cell packs 0 — or,
  for an INT outside 64 bits, 1: the *escape*.
* The variable part holds, in column order, each non-NULL STR cell as
  ``[u32 length][UTF-8]`` and each escaped INT as ``[u32 length]
  [two's complement, little-endian]``.

A table without STR columns or escapes is fixed-width rows, which
decode with one ``iter_unpack``.  Decoding refuses what
:meth:`~repro.relational.schema.Schema.coerce_row` refuses — a cell or
a row that does not fit its schema — and a blob cut short or followed
by trailing bytes, each as a :class:`SchemaError`.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Any, Sequence

from repro.relational.errors import SchemaError
from repro.relational.schema import Column, Schema
from repro.relational.types import ColumnType

_TYPES = (ColumnType.INT, ColumnType.FLOAT, ColumnType.STR, ColumnType.BOOL)
_CODES = {ctype: code for code, ctype in enumerate(_TYPES)}
_CELLS = {ColumnType.INT: "q", ColumnType.FLOAT: "d", ColumnType.BOOL: "?"}
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_COLUMN = struct.Struct("<BH")
_ESCAPE = 1
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _sized(data: bytes) -> bytes:
    return _U32.pack(len(data)) + data


class RowCodec:
    """One schema's binary table codec (``Schema.row_codec``)."""

    def __init__(self, schema: Schema) -> None:
        columns = schema.columns
        self._types = tuple(column.type for column in columns)
        self._strings = ColumnType.STR in self._types
        # With INT and FLOAT columns only, a NULL or an INT beyond 64
        # bits makes ``pack`` raise, so rows need no looking at first.
        self._numeric = all(
            t in (ColumnType.INT, ColumnType.FLOAT) for t in self._types
        )
        # At least one byte, so that every row takes room: a row count
        # can then never exceed the bytes that hold the rows.
        self._bitmap = max(1, (len(columns) + 7) // 8)
        self._clear = bytes(self._bitmap)
        cells = "".join(_CELLS.get(t, "") for t in self._types)
        self._row = struct.Struct(f"<{self._bitmap}s{cells}")
        columns_bytes = _U16.pack(len(columns)) + b"".join(
            _COLUMN.pack(_CODES[c.type], len(name)) + name
            for c in columns
            for name in [c.name.encode("utf-8")]
        )
        #: The schema's part of every blob, computed once.
        self.header = _sized(columns_bytes)

    # ------------------------------------------------------------ encode
    def encode(self, rows: Sequence[Sequence[Any]]) -> bytes:
        """``rows`` (of this schema) as a table blob."""
        parts = [self.header, _U32.pack(len(rows))]
        if self._numeric:
            pack, clear = self._row.pack, self._clear
            try:
                return b"".join(parts + [pack(clear, *row) for row in rows])
            except struct.error:  # a NULL, or an INT beyond 64 bits
                pass
        return b"".join(parts + [self._encode_row(row) for row in rows])

    def _encode_row(self, row: Sequence[Any]) -> bytes:
        """One row, looking at each cell: NULLs, escapes, strings."""
        bitmap, cells, tail = 0, [], []
        for position, (ctype, value) in enumerate(zip(self._types, row)):
            if ctype is ColumnType.STR:
                if value is None:
                    bitmap |= 1 << position
                else:
                    tail.append(_sized(value.encode("utf-8")))
            elif value is None:
                bitmap |= 1 << position
                cells.append(0)
            elif ctype is ColumnType.INT and not (
                _INT64_MIN <= value <= _INT64_MAX
            ):
                bitmap |= 1 << position
                cells.append(_ESCAPE)
                width = value.bit_length() // 8 + 1
                digits = value.to_bytes(width, "little", signed=True)
                tail.append(_sized(digits))
            else:
                cells.append(value)
        flags = bitmap.to_bytes(self._bitmap, "little")
        return self._row.pack(flags, *cells) + b"".join(tail)

    # ------------------------------------------------------------ decode
    def decode(self, data: bytes, start: int, count: int) -> list[tuple]:
        """The ``count`` rows of ``data[start:]``; the rows must end
        exactly where ``data`` does."""
        row = self._row
        body = len(data) - start
        if not self._strings and body == count * row.size:
            # Fixed-width rows have no variable part: an escape flag in
            # one reads past the end and is refused.
            clear, end = self._clear, len(data)
            return [
                cells[1:] if cells[0] == clear
                else self._unflag(cells, data, end)[0]
                for cells in row.iter_unpack(memoryview(data)[start:])
            ]
        rows = []
        position = start
        for _ in range(count):
            cells = row.unpack_from(data, position)
            decoded, position = self._unflag(cells, data, position + row.size)
            rows.append(decoded)
        if position != len(data):
            raise SchemaError(
                f"{len(data) - position} trailing bytes after {count} rows"
            )
        return rows

    def _unflag(
        self, cells: tuple, data: bytes, position: int
    ) -> tuple[tuple, int]:
        """One row from its unpacked fixed part, reading its variable
        part at ``position``; returns the row and where it ends."""
        bitmap = int.from_bytes(cells[0], "little")
        if bitmap >> len(self._types):
            raise SchemaError("NULL bitmap flags a column past the last")
        values, fixed = [], iter(cells[1:])
        for column, ctype in enumerate(self._types):
            flagged = bitmap >> column & 1
            if ctype is ColumnType.STR:
                if flagged:
                    values.append(None)
                    continue
                text, position = _read_sized(data, position)
                values.append(str(text, "utf-8"))
                continue
            value = next(fixed)
            if flagged:
                if value == 0:
                    value = None
                elif ctype is ColumnType.INT and value == _ESCAPE:
                    digits, position = _read_sized(data, position)
                    value = int.from_bytes(digits, "little", signed=True)
                else:
                    raise SchemaError(
                        f"bad flagged {ctype.value} cell {value!r}"
                    )
            values.append(value)
        return tuple(values), position


def _read_sized(data: bytes, position: int) -> tuple[bytes, int]:
    (length,) = _U32.unpack_from(data, position)
    start = position + _U32.size
    end = start + length
    if end > len(data):
        raise SchemaError(f"a {length}-byte value cut short")
    return data[start:end], end


@lru_cache(maxsize=256)
def _schema_of(columns_bytes: bytes) -> Schema:
    """The schema a blob header names; each distinct header is parsed
    once while it stays among the most recent 256."""
    (count,) = _U16.unpack_from(columns_bytes, 0)
    position, columns = _U16.size, []
    for _ in range(count):
        code, length = _COLUMN.unpack_from(columns_bytes, position)
        if code >= len(_TYPES):
            raise SchemaError(f"unknown column type code {code}")
        position += _COLUMN.size
        name = columns_bytes[position:position + length]
        position += length
        if position > len(columns_bytes):
            raise SchemaError("a column name cut short")
        columns.append(Column(str(name, "utf-8"), _TYPES[code]))
    if position != len(columns_bytes):
        raise SchemaError("trailing bytes after the column list")
    return Schema(tuple(columns))


def decode_table(data: bytes) -> tuple[Schema, list[tuple]]:
    """A table blob's schema and rows (:class:`SchemaError` for a blob
    that is not exactly one well-formed table)."""
    try:
        (length,) = _U32.unpack_from(data, 0)
        start = _U32.size + length
        schema = _schema_of(bytes(data[_U32.size:start]))
        (count,) = _U32.unpack_from(data, start)
        return schema, schema.row_codec.decode(data, start + _U32.size, count)
    except (struct.error, UnicodeDecodeError) as exc:
        raise SchemaError(f"malformed table blob: {exc}") from None
