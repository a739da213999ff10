"""The function's own distance column is recomputed, not copied.

``n.distance`` is the distance from *the call's* centre.  A query
answered over rows cached for another call gets this query's distances:
the radial function template declares the column's rule
(``<Output name="distance">``) and local evaluation recomputes it from
the query's parameters, on the contained path and on the overlap
probe, before anything is merged, ordered or cut.  Every answer below
must equal the origin's direct answer as full tuples — compared as a
bag where the query has no ORDER BY (a cached answer keeps the cached
superset's row order; DESIGN.md §5).
"""

import collections

import pytest

from repro.core.proxy import FunctionProxy
from repro.core.stats import QueryStatus
from repro.templates.skyserver_templates import (
    NEAREST_TEMPLATE_ID,
    RADIAL_TEMPLATE_ID,
)

WIDE = {
    "ra": 164.0, "dec": 8.0, "radius": 40.0,
    "r_min": -9999.0, "r_max": 9999.0,
}
#: Inside ``WIDE``, around another centre.
INNER = {**WIDE, "ra": 164.1, "dec": 8.1, "radius": 20.0}
#: Overlaps ``WIDE`` without containing or being contained by it.
BESIDE = {**WIDE, "ra": 164.5, "dec": 8.2}


def bag(result):
    return collections.Counter(tuple(row) for row in result.rows)


def direct(origin, bound):
    return origin.execute_bound(bound).result


@pytest.fixture()
def proxy(origin):
    proxy = FunctionProxy(origin, origin.templates)
    proxy.serve(origin.templates.bind(RADIAL_TEMPLATE_ID, WIDE))
    return proxy


@pytest.fixture()
def answers(origin, proxy):
    """``(proxy's contained answer, origin's direct answer)``, each as
    ``{objID: {column: value}}``."""
    bound = origin.templates.bind(RADIAL_TEMPLATE_ID, INNER)
    response = proxy.serve(bound)
    assert response.record.status is QueryStatus.CONTAINED
    assert not response.record.contacted_origin

    def by_key(result):
        names = [column.name for column in result.schema.columns]
        return {
            row[names.index("objID")]: dict(zip(names, row))
            for row in result.rows
        }

    got = by_key(response.result)
    want = by_key(direct(origin, bound))
    assert len(want) > 20
    return got, want


def test_contained_answer_recomputes_the_function_column(answers):
    got, want = answers
    for obj_id, row in want.items():
        assert got[obj_id]["distance"] == row["distance"]


def test_contained_answer_matches_on_every_other_column(answers):
    got, want = answers
    assert set(got) == set(want)
    for obj_id, row in want.items():
        served = dict(got[obj_id])
        del served["distance"], row["distance"]
        assert served == row


def test_overlap_probe_carries_the_new_centres_distances(origin, proxy):
    bound = origin.templates.bind(RADIAL_TEMPLATE_ID, BESIDE)
    response = proxy.serve(bound)
    assert response.record.status is QueryStatus.OVERLAP
    assert response.record.tuples_from_cache > 20
    assert bag(response.result) == bag(direct(origin, bound))


def test_exact_hit_on_the_merged_entry_is_the_origins_answer(
    origin, proxy
):
    bound = origin.templates.bind(RADIAL_TEMPLATE_ID, BESIDE)
    proxy.serve(bound)  # overlap: probe + remainder, admitted merged
    again = proxy.serve(bound)
    assert again.record.status is QueryStatus.EXACT
    assert bag(again.result) == bag(direct(origin, bound))


def test_nearest_truncated_entries_are_untouched(origin, proxy):
    """A TOP-1 entry answers its own call only: a contained Nearest
    query goes to the origin, and the stored row keeps its call's
    distance."""
    templates = origin.templates
    first = templates.bind(NEAREST_TEMPLATE_ID, {**WIDE, "radius": 30.0})
    proxy.serve(first)
    (entry,) = [
        e for e in proxy.cache.entries()
        if e.template_id == NEAREST_TEMPLATE_ID
    ]
    stored = list(entry.result.rows)
    assert stored == list(direct(origin, first).rows)

    inner = templates.bind(NEAREST_TEMPLATE_ID, INNER)
    response = proxy.serve(inner)
    assert response.record.contacted_origin
    assert response.result == direct(origin, inner)
    assert list(entry.result.rows) == stored

    again = proxy.serve(first)
    assert again.record.status is QueryStatus.EXACT
    assert again.result == direct(origin, first)
