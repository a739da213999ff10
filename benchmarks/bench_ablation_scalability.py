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
the description structures from trace replay.  Real times are
machine-bound, so this bench writes its table and no bench document:
``test_crossover_exists`` holds the claim, and wallbench's
``radial_mix`` times the description probe end to end.
"""

from operator import itemgetter
from statistics import median

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


#: Timing samples per (structure, size), reported by their median; the
#: per-sample repetition count amortizes timer overhead.
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
def crossover_table(record_result):
    measured = {}  # entries -> median us per (description, operation)
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
        measured[count] = {
            key: median(values) for key, values in samples.items()
        }
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
