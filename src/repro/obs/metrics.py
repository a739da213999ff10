"""A small metrics registry with Prometheus text-format exposition.

Three instrument kinds, mirroring the Prometheus data model:

* :class:`Counter` — monotonically increasing totals;
* :class:`Gauge` — set/inc/dec point-in-time values (occupancy);
* :class:`Histogram` — fixed cumulative buckets plus ``_sum``/``_count``
  (``le`` is inclusive, as in Prometheus).

Each metric family may carry label names; ``family.labels(step="merge")``
returns (creating on first use) the child time series for that label
set.  Families without labels are used directly (``family.inc()``).

The registry renders the classic text format (``# HELP`` / ``# TYPE`` /
samples) for scraping and a JSON-able :meth:`MetricsRegistry.snapshot`
for the harness's per-run files.  Stdlib only, no external client.

Histograms additionally keep one *exemplar* per bucket — the most
recent ``(value, trace_id)`` observation that landed there — so a p95
bucket links to the distributed trace that caused it.  Classic
exposition is unchanged (version 0.0.4 has no exemplar syntax);
``exposition(exemplars=True)`` appends them OpenMetrics-style
(``... 42 # {trace_id="..."} 3.25``) and snapshots always carry them.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Any, Callable, Iterable

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets (milliseconds) for simulated-clock costs.
DEFAULT_MS_BUCKETS = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


class MetricError(Exception):
    """Metric misuse (bad names, label mismatches, type conflicts)."""


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value != value:  # NaN: is_integer()/repr() would render 'nan'
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _label_pairs(labelnames: tuple[str, ...], key: tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, key)
    )
    return "{" + body + "}"


class _Metric:
    """Shared family machinery: validation and label children."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> None:
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name: {name!r}")
        names = tuple(labelnames)
        for label in names:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise MetricError(f"invalid label name: {label!r}")
        if len(names) != len(set(names)):
            raise MetricError(f"duplicate label names: {names}")
        self.name = name
        self.help = help
        self.labelnames = names
        self._children: dict[tuple[str, ...], Any] = {}

    # ---------------------------------------------------------- children
    def labels(self, **labels: Any) -> Any:
        key = self._key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._new_child()
        return child

    def _key(self, labels: dict[str, Any]) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise MetricError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _default_child(self) -> Any:
        child = self._children.get(())
        if child is None:
            if self.labelnames:
                raise MetricError(
                    f"{self.name} carries labels {self.labelnames}; "
                    "use .labels(...)"
                )
            child = self.labels()
        return child

    def _new_child(self) -> Any:  # pragma: no cover - overridden
        raise NotImplementedError

    # ------------------------------------------------------- exposition
    def header_lines(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines

    def sample_lines(self) -> list[str]:  # pragma: no cover - overridden
        raise NotImplementedError

    def snapshot_values(self) -> dict[str, Any]:  # pragma: no cover
        raise NotImplementedError

    def _sorted_children(self) -> list[tuple[tuple[str, ...], Any]]:
        return sorted(self._children.items())


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"counters only go up; inc({amount})")
        self.value += amount


class Counter(_Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return self._default_child().value

    def total(self) -> float:
        """The family total across every label child.

        The time-series sampler's read path: an unlabeled family
        reports its single child, a labeled one (e.g. sheds by reason)
        the sum — and a family nothing observed yet reports 0.0
        without materializing a child.
        """
        return sum(child.value for child in self._children.values())

    def sample_lines(self) -> list[str]:
        return [
            f"{self.name}{_label_pairs(self.labelnames, key)} "
            f"{_format_value(child.value)}"
            for key, child in self._sorted_children()
        ]

    def snapshot_values(self) -> dict[str, Any]:
        return {
            _label_pairs(self.labelnames, key): child.value
            for key, child in self._sorted_children()
        }


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class _ComputedGaugeChild:
    """A gauge child whose value is computed when it is read."""

    __slots__ = ("_read",)

    def __init__(self, read: Callable[[], float]) -> None:
        self._read = read

    @property
    def value(self) -> float:
        return float(self._read())


class Gauge(_Metric):
    """A point-in-time value (cache occupancy, data version)."""

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def computed(self, read: Callable[[], float], **labels: Any) -> None:
        """Make the child for ``labels`` report ``read()`` whenever it
        is read, instead of a value something sets."""
        self._children[self._key(labels)] = _ComputedGaugeChild(read)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    @property
    def value(self) -> float:
        return self._default_child().value

    total = Counter.total
    sample_lines = Counter.sample_lines
    snapshot_values = Counter.snapshot_values


class _HistogramChild:
    __slots__ = ("counts", "sum", "count", "exemplars", "_uppers")

    def __init__(self, uppers: tuple[float, ...]) -> None:
        self._uppers = uppers
        self.counts = [0] * (len(uppers) + 1)  # last slot: +Inf
        #: Per bucket, the latest traced observation: (value, trace_id).
        self.exemplars: list[tuple[float, str] | None] = [None] * (
            len(uppers) + 1
        )
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, trace_id: str | None = None) -> None:
        self.sum += value
        self.count += 1
        # The first bucket with ``value <= upper``; NaN is in none.
        uppers = self._uppers
        slot = bisect_left(uppers, value) if value == value else len(uppers)
        self.counts[slot] += 1
        if trace_id:
            self.exemplars[slot] = (value, trace_id)

    def cumulative(self) -> list[int]:
        total = 0
        out = []
        for count in self.counts:
            total += count
            out.append(total)
        return out


class Histogram(_Metric):
    """Fixed-bucket cumulative histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_MS_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        uppers = tuple(sorted(float(b) for b in buckets))
        if not uppers:
            raise MetricError(f"{name}: histogram needs at least one bucket")
        if len(set(uppers)) != len(uppers):
            raise MetricError(f"{name}: duplicate bucket bounds {uppers}")
        if uppers and uppers[-1] == float("inf"):
            uppers = uppers[:-1]  # +Inf is implicit
        self.buckets = uppers

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float, trace_id: str | None = None) -> None:
        self._default_child().observe(value, trace_id=trace_id)

    def merged_counts(self) -> list[int]:
        """Per-bucket *non-cumulative* counts summed across children.

        The final slot is the implicit +Inf bucket.  The time-series
        sampler diffs successive merged counts to get the observation
        distribution of one window, from which rolling quantiles fall
        out without retaining raw observations.
        """
        merged = [0] * (len(self.buckets) + 1)
        for child in self._children.values():
            for slot, count in enumerate(child.counts):
                merged[slot] += count
        return merged

    def sample_lines(self, exemplars: bool = False) -> list[str]:
        lines = []
        for key, child in self._sorted_children():
            cumulative = child.cumulative()
            bounds = [*self.buckets, float("inf")]
            for i, (upper, total) in enumerate(zip(bounds, cumulative)):
                le = _escape_label_value(_format_value(upper))
                pairs = [
                    f'{n}="{_escape_label_value(v)}"'
                    for n, v in zip(self.labelnames, key)
                ]
                pairs.append(f'le="{le}"')
                line = f"{self.name}_bucket{{{','.join(pairs)}}} {total}"
                exemplar = child.exemplars[i] if exemplars else None
                if exemplar is not None:
                    value, trace_id = exemplar
                    line += (
                        f' # {{trace_id="{_escape_label_value(trace_id)}"}}'
                        f" {_format_value(value)}"
                    )
                lines.append(line)
            plain = _label_pairs(self.labelnames, key)
            lines.append(f"{self.name}_sum{plain} {_format_value(child.sum)}")
            lines.append(f"{self.name}_count{plain} {child.count}")
        return lines

    def snapshot_values(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for key, child in self._sorted_children():
            bounds = [*map(_format_value, self.buckets), "+Inf"]
            entry: dict[str, Any] = {
                "count": child.count,
                "sum": child.sum,
                "buckets": dict(zip(bounds, child.cumulative())),
            }
            exemplars = {
                bound: {"value": exemplar[0], "trace_id": exemplar[1]}
                for bound, exemplar in zip(bounds, child.exemplars)
                if exemplar is not None
            }
            if exemplars:
                entry["exemplars"] = exemplars
            out[_label_pairs(self.labelnames, key)] = entry
        return out


class MetricsRegistry:
    """Holds metric families; renders exposition text and snapshots."""

    def __init__(self) -> None:
        self._families: dict[str, _Metric] = {}

    # ------------------------------------------------------ registration
    def _register(
        self,
        cls: type[Any],
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        **kwargs: Any,
    ) -> Any:
        existing = self._families.get(name)
        if existing is not None:
            if type(existing) is not cls or (
                existing.labelnames != tuple(labelnames)
            ):
                raise MetricError(
                    f"metric {name!r} re-registered with a different "
                    "type or label set"
                )
            return existing
        family = cls(name, help, labelnames, **kwargs)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Counter:
        return self._register(Counter, name, help, tuple(labelnames))

    def gauge(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Gauge:
        return self._register(Gauge, name, help, tuple(labelnames))

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_MS_BUCKETS,
    ) -> Histogram:
        return self._register(
            Histogram, name, help, tuple(labelnames), buckets=buckets
        )

    def get(self, name: str) -> _Metric | None:
        return self._families.get(name)

    def families(self) -> Iterable[_Metric]:
        return self._families.values()

    # -------------------------------------------------------- rendering
    def exposition(self, exemplars: bool = False) -> str:
        """The Prometheus text format (version 0.0.4).

        ``exemplars=True`` appends OpenMetrics-style exemplar suffixes
        to histogram bucket lines; the classic format (the default) has
        no exemplar syntax, so scrapers get byte-identical output.
        """
        lines: list[str] = []
        for family in self._families.values():
            lines.extend(family.header_lines())
            if exemplars and isinstance(family, Histogram):
                lines.extend(family.sample_lines(exemplars=True))
            else:
                lines.extend(family.sample_lines())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict[str, Any]:
        """A JSON-able view: {name: {type, help, values}}."""
        return {
            family.name: {
                "type": family.kind,
                "help": family.help,
                "values": family.snapshot_values(),
            }
            for family in self._families.values()
        }


#: Content type scrapers expect from a ``/metrics`` endpoint.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
