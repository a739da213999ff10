"""Column types and value coercion.

The engine is deliberately small: four scalar types cover the SkyServer
schema subset we model (object ids, coordinates, magnitudes, flags, and
names).  Coercion is strict — a value that does not fit its declared
column type raises :class:`~repro.relational.errors.SchemaError` rather
than being silently converted, per the "errors should never pass
silently" rule.
"""

from __future__ import annotations

import enum
import sys
from typing import Any

from repro.relational.errors import SchemaError


class ColumnType(enum.Enum):
    """The scalar types a column may hold."""

    INT = "int"
    FLOAT = "float"
    STR = "str"
    BOOL = "bool"

    def coerce(self, value: Any) -> Any:
        """Validate and normalize ``value`` for this type.

        ``None`` passes through for every type (SQL NULL).  Ints are
        accepted for FLOAT columns (widening); everything else must match
        exactly.
        """
        if value is None:
            return None
        if self is ColumnType.INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(f"expected int, got {value!r}")
            return value
        if self is ColumnType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"expected float, got {value!r}")
            return float(value)
        if self is ColumnType.STR:
            if not isinstance(value, str):
                raise SchemaError(f"expected str, got {value!r}")
            return value
        if self is ColumnType.BOOL:
            if not isinstance(value, bool):
                raise SchemaError(f"expected bool, got {value!r}")
            return value
        raise SchemaError(f"unknown column type {self!r}")

    def byte_size(self, value: Any) -> int:
        """Approximate serialized size of a value of this type.

        Matches the accounting the proxy cache uses for its byte budget:
        eight bytes for numbers, one for booleans, UTF-8 length for
        strings, four for NULL (the serialized ``null`` token).
        """
        if value is None:
            return NULL_BYTES
        if self is ColumnType.STR:
            return len(value.encode("utf-8"))
        return FIXED_BYTES[self]


#: The serialized width of a non-NULL value of each fixed-width type
#: (a STR value is its UTF-8 length), and of a NULL of any type.
#: ``ColumnType.byte_size`` and ``Schema.byte_plan`` both read these.
FIXED_BYTES = {ColumnType.INT: 8, ColumnType.FLOAT: 8, ColumnType.BOOL: 1}
NULL_BYTES = 4


def infer_type(value: Any) -> ColumnType:
    """Infer the narrowest :class:`ColumnType` for a Python value."""
    if isinstance(value, bool):
        return ColumnType.BOOL
    if isinstance(value, int):
        return ColumnType.INT
    if isinstance(value, float):
        return ColumnType.FLOAT
    if isinstance(value, str):
        return ColumnType.STR
    raise SchemaError(f"cannot infer a column type for {value!r}")


def is_finite(value: int | float) -> bool:
    """False for NaN, for either infinity, and for an int beyond float
    range (compared exactly, never converted, so nothing overflows).

    Numbers arriving from outside — form fields, free SQL — pass through
    this before they become a region or a table-function argument: NaN
    passes every ``low > high`` style check and would surface layers
    later, as a crash in whatever first rounds it.
    """
    return abs(value) <= sys.float_info.max
