"""Ablation: where the array/R-tree crossover falls.

The paper keeps the array because "the size of the cache description is
small so that a linear search and a tree search have similar main
memory performance".  That is a statement about *scale*.  This ablation
sweeps the description size by an order of magnitude beyond the paper's
regime and measures, in real time, one probe and one add/remove for
both structures: the probe locates the crossover the paper predicts but
never reaches, the add/remove makes "the maintenance of the R-tree
index is more costly than that of an array" a measured number.

Synthetic entries are used (regions on a grid), so the sweep isolates
the description structures from trace replay.
"""

from operator import itemgetter

import pytest

from repro.core.cache import CacheEntry
from repro.core.description import ArrayDescription, RTreeDescription
from repro.geometry.regions import HyperSphere
from repro.harness.render import render_table
from repro.relational.result import ResultTable
from repro.relational.schema import Schema

SIZES = (100, 1_000, 10_000)


def synthetic_entries(count: int):
    """Entries with sphere regions scattered on a plane grid."""
    result = ResultTable.empty(Schema.of())
    entries = []
    side = int(count**0.5) + 1
    for i in range(count):
        x, y = (i % side) * 0.1, (i // side) * 0.1
        entries.append(
            CacheEntry(
                entry_id=i + 1,
                template_id="synthetic",
                cache_key=("synthetic", i),
                region=HyperSphere((x, y, 0.0), 0.03),
                signature="",
                truncated=False,
                byte_size=100,
                row_count=10,
                result=result,
            )
        )
    return entries


def build(description, entries):
    for entry in entries:
        description.add(entry)
    return description


#: Timing samples per (structure, size); the per-sample repetition
#: count amortizes timer overhead, the samples give the regression
#: gate an honest IQR.
SAMPLES = 5
REPETITIONS = 50
#: Entries added and taken out again per add/remove sample.
CHURN = 50


def probe_samples(description, probe):
    """Median-friendly repeat measurements of one probe, in µs."""
    from repro.obs.wallclock import Stopwatch

    samples = []
    watch = Stopwatch()
    for _ in range(SAMPLES):
        watch.restart()
        for _ in range(REPETITIONS):
            description.candidates("synthetic", probe)
        samples.append(watch.elapsed_s / REPETITIONS * 1e6)
    return samples


def churn_samples(description, fresh):
    """µs per ``add`` and per ``remove`` at the description's size.

    Each sample adds the ``fresh`` entries and takes them out again, so
    the description is the same size for every sample.
    """
    from repro.obs.wallclock import Stopwatch

    added, removed = [], []
    watch = Stopwatch()
    for _ in range(SAMPLES):
        watch.restart()
        for entry in fresh:
            description.add(entry)
        added.append(watch.elapsed_s / len(fresh) * 1e6)
        watch.restart()
        for entry in fresh:
            description.remove(entry)
        removed.append(watch.elapsed_s / len(fresh) * 1e6)
    return added, removed


@pytest.fixture(scope="module")
def crossover_table(record_result, bench_report):
    from repro.perf.schema import median

    measured = {}  # entries -> median us per (description, operation)
    report = bench_report("ablation_scalability")
    ratio_samples = None
    for count in SIZES:
        entries = synthetic_entries(count + CHURN)
        entries, fresh = entries[:count], entries[count:]
        probe = entries[count // 2].region
        samples = {}
        for label, description in (
            ("array", build(ArrayDescription(), entries)),
            ("rtree", build(RTreeDescription(), entries)),
        ):
            samples[label, "probe"] = probe_samples(description, probe)
            samples[label, "add"], samples[label, "remove"] = (
                churn_samples(description, fresh)
            )
        # Raw times are machine-bound: trajectory-only.
        for (label, what), values in samples.items():
            report.metric(
                f"{label}_{what}_us_{count}", values, unit="us", gated=False
            )
        us = {key: median(tuple(values)) for key, values in samples.items()}
        measured[count] = us
        if count == SIZES[-1]:
            ratio_samples = [
                a / r
                for a, r in zip(
                    samples["array", "probe"], samples["rtree", "probe"]
                )
            ]
    # The gated claim is relative, so it survives machine speed
    # differences that sink absolute wall-clock gates: what the linear
    # scan pays over the R-tree probe at 10x the paper's regime.  Lower
    # is better — it rises when the scan regains per-entry work — and
    # ``test_crossover_exists`` holds it above 1.
    report.metric(
        f"array_over_rtree_{SIZES[-1]}",
        ratio_samples,
        unit="ratio",
        polarity="lower",
    )
    report.finish()
    text = render_table(
        "Ablation: real probe and add/remove time vs description size "
        "(the paper's regime is the first row)",
        [
            ("entries", itemgetter(0)),
            ("array probe us", lambda row: row[1]["array", "probe"]),
            ("rtree probe us", lambda row: row[1]["rtree", "probe"]),
            (
                "array/rtree",
                lambda row: row[1]["array", "probe"]
                / row[1]["rtree", "probe"],
            ),
            *(
                (f"{label} {what} us", lambda row, k=(label, what): row[1][k])
                for label in ("array", "rtree")
                for what in ("add", "remove")
            ),
        ],
        measured.items(),
    )
    record_result("ablation_scalability", text)
    return {
        count: (us["array", "probe"], us["rtree", "probe"])
        for count, us in measured.items()
    }


def test_crossover_exists(crossover_table):
    # In the paper's regime (hundreds of entries) the structures are
    # comparable; at 10k entries the R-tree must still win.
    array_large, rtree_large = crossover_table[SIZES[-1]]
    assert rtree_large < array_large, (
        "R-tree should beat linear scan at 10k entries"
    )


@pytest.mark.parametrize("kind", ["array", "rtree"])
@pytest.mark.parametrize("count", SIZES)
def test_probe_scaling(kind, count, benchmark, crossover_table):
    entries = synthetic_entries(count)
    description = build(
        ArrayDescription() if kind == "array" else RTreeDescription(),
        entries,
    )
    probe = entries[count // 2].region

    benchmark(description.candidates, "synthetic", probe)
