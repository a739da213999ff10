"""ROADMAP 1a, pinned: a contained answer's function columns are stale.

``n.distance`` is the distance from *the call's* centre.  A contained
query at a different centre is evaluated over rows cached for another
call, and nothing recomputes the column, so the proxy returns the old
centre's distances under ``served``.  This PR does not fix that; the
strict ``xfail`` makes the defect a tier-1 fact — the suite fails the
day the assertion starts passing unannounced — and the second test pins
what already holds.
"""

import pytest

from repro.core.proxy import FunctionProxy
from repro.core.stats import QueryStatus

WIDE = {
    "ra": 164.0, "dec": 8.0, "radius": 40.0,
    "r_min": -9999.0, "r_max": 9999.0,
}
#: Inside ``WIDE``, around another centre.
INNER = {**WIDE, "ra": 164.1, "dec": 8.1, "radius": 20.0}


@pytest.fixture()
def answers(origin):
    """``(proxy's contained answer, origin's direct answer)``, each as
    ``{objID: {column: value}}``."""
    proxy = FunctionProxy(origin, origin.templates)
    proxy.serve(origin.templates.bind("skyserver.radial", WIDE))
    bound = origin.templates.bind("skyserver.radial", INNER)
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
    want = by_key(origin.execute_bound(bound).result)
    assert len(want) > 20
    return got, want


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP 1a: cached function columns are not recomputed",
)
def test_contained_answer_recomputes_the_function_column(answers):
    got, want = answers
    for obj_id, row in want.items():
        assert got[obj_id]["distance"] == pytest.approx(row["distance"])


def test_contained_answer_matches_on_every_other_column(answers):
    got, want = answers
    assert set(got) == set(want)
    for obj_id, row in want.items():
        served = dict(got[obj_id])
        del served["distance"], row["distance"]
        assert served == row
