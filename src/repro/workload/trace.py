"""Traces: sequences of template-parameter bindings."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence


@dataclass(frozen=True)
class TraceQuery:
    """One logged query: a template id plus its parameter values.

    Parameter values are the primitive JSON types; two queries with
    equal ``(template_id, params)`` are *exact matches* in the paper's
    sense.
    """

    template_id: str
    params: tuple[tuple[str, Any], ...]

    @staticmethod
    def of(template_id: str, params: dict[str, Any]) -> "TraceQuery":
        return TraceQuery(template_id, tuple(sorted(params.items())))

    def param_dict(self) -> dict[str, Any]:
        return dict(self.params)


class Trace:
    """An ordered sequence of :class:`TraceQuery`.

    Append-only construction mirrors how the paper extracted traces
    from web logs.
    """

    def __init__(self, queries: Sequence[TraceQuery] = ()) -> None:
        self.queries: list[TraceQuery] = list(queries)

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[TraceQuery]:
        return iter(self.queries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(self.queries[index])
        return self.queries[index]

    def append(self, query: TraceQuery) -> None:
        self.queries.append(query)

    def head(self, n: int) -> "Trace":
        """The first ``n`` queries (Figure 5 uses the first 10,000)."""
        return Trace(self.queries[:n])

    def distinct_count(self) -> int:
        return len(set(self.queries))
