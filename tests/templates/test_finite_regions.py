"""No cached box has a non-finite edge: the binder refuses one first.

The cache descriptions agree (array ≡ R-tree ≡ ``HyperRect.intersect``)
over finite boxes only; on a box with a NaN edge the array's
comparisons reject by the finite edge while ``max(nan, x)`` keeps the
NaN for the tree.  What makes that disagreement unreachable is the
binder: a non-finite number in any parameter of any built-in template
is refused at ``bind`` and at ``bind_form`` (every form field; the
triangle has no form), and a journaled admit carrying one is re-bound
on replay, so it is counted ``error``, not restored.
"""

import pytest

from repro.core.cache import CacheManager
from repro.core.description import ArrayDescription
from repro.extensions.triangle import (
    TRIANGLE_TEMPLATE_ID,
    register_triangle_search,
)
from repro.persistence.image import replay_admits
from repro.persistence.records import AdmitRecord, region_to_dict
from repro.relational.result import ResultTable
from repro.relational.schema import Schema
from repro.server.origin import OriginServer
from repro.skydata.generator import SkyCatalogConfig
from repro.templates.errors import TemplateError
from repro.templates.skyserver_templates import (
    NEAREST_TEMPLATE_ID,
    RADIAL_TEMPLATE_ID,
    RECT_TEMPLATE_ID,
    nearest_info_file,
    radial_info_file,
    rect_info_file,
)

MAGS = {"r_min": -9999.0, "r_max": 9999.0}

#: One finite binding per built-in template.
VALID = {
    RADIAL_TEMPLATE_ID: {"ra": 164.0, "dec": 8.0, "radius": 10.0, **MAGS},
    RECT_TEMPLATE_ID: {
        "ra_min": 163.0, "ra_max": 165.0,
        "dec_min": 7.0, "dec_max": 9.0, **MAGS,
    },
    NEAREST_TEMPLATE_ID: {"ra": 164.0, "dec": 8.0, "radius": 10.0, **MAGS},
    TRIANGLE_TEMPLATE_ID: {
        "ra1": 163.0, "dec1": 7.0, "ra2": 165.0, "dec2": 7.0,
        "ra3": 164.0, "dec3": 9.0, **MAGS,
    },
}

NON_FINITE = ("nan", "inf", "-inf")

CASES = [
    pytest.param(template_id, name, text, id=f"{template_id}-{name}-{text}")
    for template_id, params in VALID.items()
    for name in params
    for text in NON_FINITE
]

FORMS = [radial_info_file(), rect_info_file(), nearest_info_file()]

FORM_CASES = [
    pytest.param(info, field, text, id=f"{info.form_name}-{field}-{text}")
    for info in FORMS
    for field in info.field_map
    for text in NON_FINITE
]


@pytest.fixture(scope="module")
def site():
    """A tiny site with the triangle search registered beside the
    three SkyServer templates."""
    origin = OriginServer.skyserver(
        SkyCatalogConfig(
            n_objects=200,
            ra_min=160.0,
            ra_max=168.0,
            dec_min=5.0,
            dec_max=11.0,
            seed=7,
        )
    )
    register_triangle_search(origin.catalog.functions, origin.templates)
    return origin


def test_every_built_in_template_and_parameter_is_covered(site):
    for template_id, params in VALID.items():
        site.templates.bind(template_id, params)  # the finite one binds
        assert set(params) == set(
            site.templates.query_template(template_id)
            .statement.parameter_names()
        )


@pytest.mark.parametrize("template_id, name, text", CASES)
def test_bind_refuses_a_non_finite_parameter(site, template_id, name, text):
    params = VALID[template_id]
    with pytest.raises(TemplateError):
        site.templates.bind(template_id, {**params, name: float(text)})


@pytest.mark.parametrize("info, field, text", FORM_CASES)
def test_bind_form_refuses_a_non_finite_field(site, info, field, text):
    params = VALID[info.template_id]
    form = {
        name: repr(params[parameter])
        for name, parameter in info.field_map.items()
    }
    site.templates.bind_form(info.form_name, form)  # the finite one binds
    with pytest.raises(TemplateError):
        site.templates.bind_form(info.form_name, {**form, field: text})


def replay_one(site, template_id, params):
    """Replay one admit journaled with ``params`` but the finite
    binding's region and signature; returns the tally and the cache."""
    finite = site.templates.bind(template_id, VALID[template_id])
    record = AdmitRecord(
        entry_id=1,
        template_id=template_id,
        params=params,
        region=region_to_dict(finite.region),
        signature=finite.signature,
        truncated=False,
        result=ResultTable.empty(Schema.of()).to_bytes(),
        data_version=None,
        ts_ms=0.0,
    )
    cache = CacheManager(ArrayDescription())
    tally = replay_admits(
        [record], cache, site.templates, None, accept_foreign=True
    )
    return tally, cache


@pytest.mark.parametrize("template_id", VALID)
def test_the_finite_admit_is_restored(site, template_id):
    tally, cache = replay_one(site, template_id, VALID[template_id])
    assert (tally.error, tally.restored) == (0, 1)
    assert len(cache) == 1


@pytest.mark.parametrize("template_id, name, text", CASES)
def test_a_journaled_non_finite_admit_is_an_error(
    site, template_id, name, text
):
    params = {**VALID[template_id], name: float(text)}
    tally, cache = replay_one(site, template_id, params)
    assert (tally.error, tally.restored) == (1, 0)
    assert len(cache) == 0
