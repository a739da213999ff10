"""Schemas: ordered, named, typed column lists."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from repro.relational.errors import SchemaError
from repro.relational.types import FIXED_BYTES, ColumnType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.relational.rowcodec import RowCodec


@dataclass(frozen=True)
class Column:
    """A single column: a name and a type.

    Column names are case-insensitive for lookup (SQL convention) but
    preserve their declared spelling for display and serialization.
    """

    name: str
    type: ColumnType

    def __post_init__(self) -> None:
        # A dot qualifies a column with its table alias ("p.objID"); such
        # names appear only in internal join namespaces.
        bare = self.name.replace("_", "").replace(".", "")
        if not self.name or not bare.isalnum():
            raise SchemaError(f"invalid column name {self.name!r}")


@dataclass(frozen=True)
class Schema:
    """An ordered collection of :class:`Column`.

    Provides positional access (rows are tuples) plus name lookup.
    """

    columns: tuple[Column, ...]
    _index: dict[str, int] = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    def __post_init__(self) -> None:
        columns = tuple(self.columns)
        object.__setattr__(self, "columns", columns)
        index: dict[str, int] = {}
        for position, column in enumerate(columns):
            key = column.name.lower()
            if key in index:
                raise SchemaError(f"duplicate column name {column.name!r}")
            index[key] = position
        object.__setattr__(self, "_index", index)

    @staticmethod
    def of(*pairs: tuple[str, ColumnType]) -> "Schema":
        """Shorthand: ``Schema.of(("objID", INT), ("ra", FLOAT))``."""
        return Schema(tuple(Column(name, ctype) for name, ctype in pairs))

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    @cached_property
    def byte_plan(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """What sizing a row of this schema needs, worked out once:
        the summed width of its fixed-width values, the positions of
        its STR columns, and each column's non-NULL width (0 for STR),
        which a NULL cell replaces."""
        widths = tuple(FIXED_BYTES.get(c.type, 0) for c in self.columns)
        types = [c.type for c in self.columns]
        strings = tuple(i for i, t in enumerate(types) if t is ColumnType.STR)
        return sum(widths), strings, widths

    @cached_property
    def row_codec(self) -> "RowCodec":
        """The binary table codec of this schema, worked out once
        (:mod:`repro.relational.rowcodec`): the encoded column list
        and the ``struct`` of a row's fixed-width cells."""
        from repro.relational.rowcodec import RowCodec

        return RowCodec(self)

    @cached_property
    def xml_columns(self) -> str:
        """The ``<Columns>`` element of this schema's tables in the XML
        wire format, rendered once."""
        from repro.relational.result import columns_xml

        return columns_xml(self)

    def has(self, name: str) -> bool:
        return name.lower() in self._index

    def find(self, key: str) -> int | None:
        """The position of the column named ``key``, already lower-cased;
        None when there is none."""
        return self._index.get(key)

    def position(self, name: str) -> int:
        try:
            return self._index[name.lower()]
        except KeyError:
            raise SchemaError(
                f"no column {name!r}; available: {', '.join(self.names)}"
            ) from None

    def column(self, name: str) -> Column:
        return self.columns[self.position(name)]

    def coerce_row(self, values: Sequence[Any]) -> tuple[Any, ...]:
        """Validate a row against the schema, returning a tuple."""
        if len(values) != len(self.columns):
            raise SchemaError(
                f"row has {len(values)} values, schema has "
                f"{len(self.columns)} columns"
            )
        return tuple(
            column.type.coerce(value)
            for column, value in zip(self.columns, values)
        )

    def project(self, names: Iterable[str]) -> "Schema":
        """A new schema restricted to ``names``, in the given order."""
        return Schema(tuple(self.column(name) for name in names))
