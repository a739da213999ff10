"""In-memory base tables with optional primary-key index."""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from repro.relational.errors import SchemaError
from repro.relational.schema import Schema


class Table:
    """A named base table: a schema plus a list of row tuples.

    The optional primary key builds a hash index used by point lookups
    and by the proxy's result merging (deduplication after a remainder
    query).  Rows are immutable tuples, and the table only grows — the
    workloads in the paper are read-only, so no delete/update path is
    needed (and none is pretended).  Rows from outside go through
    ``insert`` / ``insert_many``, which coerce every cell; rows the
    program typed itself (the generated catalogue) go through
    ``append_typed``, which does not.  Either way a batch is checked
    whole before the table changes.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        primary_key: str | None = None,
    ) -> None:
        self.name = name
        self.schema = schema
        self.primary_key = primary_key
        self._rows: list[tuple[Any, ...]] = []
        self._pk_position: int | None = None
        self._pk_index: dict[Any, int] | None = None
        if primary_key is not None:
            self._pk_position = schema.position(primary_key)
            self._pk_index = {}

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self._rows)

    @property
    def rows(self) -> Sequence[tuple[Any, ...]]:
        return self._rows

    def insert(self, values: Sequence[Any]) -> None:
        """Validate and append one row."""
        self.append_typed((self.schema.coerce_row(values),))

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> None:
        """Validate and append rows: all of them, or none."""
        self.append_typed([self.schema.coerce_row(values) for values in rows])

    def append_typed(self, rows: Sequence[tuple[Any, ...]]) -> None:
        """Append tuples whose cells already have their columns' types.

        Only the coercion is skipped: a row of the wrong width, or a
        NULL or duplicate primary key, refuses the whole batch and
        leaves the table as it was.
        """
        width = len(self.schema)
        for row in rows:
            if len(row) != width:
                raise SchemaError(
                    f"row has {len(row)} values, schema has {width} columns"
                )
        index = self._pk_index
        if index is not None:
            at = self._pk_position
            batch: dict[Any, int] = {}
            for position, row in enumerate(rows, len(self._rows)):
                key = row[at]
                if key is None:
                    raise SchemaError(
                        f"NULL primary key in table {self.name!r}"
                    )
                if key in index or key in batch:
                    raise SchemaError(
                        f"duplicate primary key {key!r} in table {self.name!r}"
                    )
                batch[key] = position
            index.update(batch)
        self._rows.extend(rows)

    def lookup(self, key: Any) -> tuple[Any, ...] | None:
        """Point lookup by primary key; None when absent."""
        if self._pk_index is None:
            raise SchemaError(f"table {self.name!r} has no primary key")
        position = self._pk_index.get(key)
        return None if position is None else self._rows[position]
