"""How every experiment result is printed and exported.

A result states each fact once.  Its table is one list of
``(header, value)`` columns that :func:`render_table` reads, so a header
cannot drift from its cells.  Its JSON form is its own dataclass fields
(:class:`Result`), converted by :func:`export`, plus the few derived
values it names in ``DERIVED``.
"""

from __future__ import annotations

import enum
from dataclasses import field, fields, is_dataclass
from operator import itemgetter
from typing import Any, Callable, ClassVar, Iterable, Sequence

#: A table column: its header and how to read its cell from a row.
Column = tuple[str, Callable[[Any], object]]


def render_table(
    title: str,
    columns: Sequence[Column],
    rows: Iterable[Any],
) -> str:
    """A fixed-width text table, the harness's output format.

    Numbers are formatted compactly (three decimals for floats under
    ten, otherwise no decimals — efficiencies vs milliseconds).
    """
    headers = [header for header, _ in columns]
    formatted = [
        [_format_cell(value(row)) for _, value in columns] for row in rows
    ]
    widths = [
        max(len(cell) for cell in column)
        for column in zip(headers, *formatted)
    ]
    lines = [title, ""]
    lines.append(
        "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in formatted:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        if abs(cell) < 10:
            return f"{cell:.3f}"
        return f"{cell:.0f}"
    return str(cell)


def fraction_label(fraction: float) -> str:
    """A cache fraction as the paper writes it: 1/6, 1/3, 1/2, 1."""
    for denominator in (6, 3, 2, 1):
        if abs(fraction - 1 / denominator) < 1e-9:
            return "1" if denominator == 1 else f"1/{denominator}"
    return f"{fraction:.3f}"


def fraction_columns(first: str, fractions: Iterable[float]) -> list[Column]:
    """Columns for ``(label, {fraction: value})`` rows: the label, then
    one column per cache fraction in ascending order."""
    return [(first, itemgetter(0))] + [
        (fraction_label(f), lambda row, f=f: row[1][f])
        for f in sorted(fractions)
    ]


def flat(*keys: str) -> Any:
    """A result field exported as these attributes of its value, at the
    top level of :meth:`Result.to_dict`, instead of as itself (no keys:
    the field is not exported)."""
    return field(metadata={"flat": keys})


def export(value: Any) -> Any:
    """``value`` as JSON-ready data: results through their own
    ``to_dict``, other dataclasses by field, enums by value, tuples as
    lists."""
    if isinstance(value, Result):
        return value.to_dict()
    if is_dataclass(value):
        return {f.name: export(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {key: export(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [export(item) for item in value]
    return value


class Result:
    """An experiment result (a dataclass) that serializes from its own
    fields; ``DERIVED`` names the properties exported beside them."""

    DERIVED: ClassVar[tuple[str, ...]] = ()

    def to_dict(self) -> dict:
        out: dict[str, Any] = {}
        for f in fields(self):  # type: ignore[arg-type]
            value = getattr(self, f.name)
            if "flat" in f.metadata:
                out.update(
                    (key, getattr(value, key)) for key in f.metadata["flat"]
                )
            else:
                out[f.name] = export(value)
        for name in self.DERIVED:
            out[name] = export(getattr(self, name))
        return out
