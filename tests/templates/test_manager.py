"""Template manager registration and binding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extensions.triangle import (
    TRIANGLE_TEMPLATE_ID,
    triangle_function_template,
    triangle_query_template,
)
from repro.geometry.regions import HyperRect
from repro.sqlparser.ast import SelectStatement
from repro.templates.errors import TemplateError
from repro.templates.manager import TemplateManager
from repro.templates.skyserver_templates import (
    NEAREST_TEMPLATE_ID,
    RADIAL_TEMPLATE_ID,
    RECT_TEMPLATE_ID,
    radial_function_template,
    radial_info_file,
    radial_query_template,
    register_skyserver_templates,
)


@pytest.fixture()
def manager():
    manager = TemplateManager()
    register_skyserver_templates(manager)
    return manager


class TestRegistration:
    def test_lookup_is_case_insensitive(self, manager):
        assert manager.query_template(RADIAL_TEMPLATE_ID.upper())
        assert manager.function_template("fgetnearbyobjeq")
        assert manager.info_file("radial")

    def test_duplicate_function_template_rejected(self, manager):
        with pytest.raises(TemplateError, match="already registered"):
            manager.register_function_template(radial_function_template())

    def test_duplicate_query_template_rejected(self, manager):
        with pytest.raises(TemplateError, match="already registered"):
            manager.register_query_template(radial_query_template())

    def test_info_file_needs_known_template(self):
        manager = TemplateManager()
        with pytest.raises(TemplateError, match="unknown query template"):
            manager.register_info_file(radial_info_file())

    def test_unknown_lookups_raise(self, manager):
        with pytest.raises(TemplateError):
            manager.query_template("nope")
        with pytest.raises(TemplateError):
            manager.function_template("nope")
        with pytest.raises(TemplateError):
            manager.info_file("nope")

    def test_ids_and_info_files_listed(self, manager):
        assert set(manager.query_template_ids()) == {
            RADIAL_TEMPLATE_ID, RECT_TEMPLATE_ID, NEAREST_TEMPLATE_ID,
        }
        assert len(manager.info_files()) == 3


class TestBinding:
    def test_bind_builds_statement_and_region(self, manager, radial_params):
        bound = manager.bind(RADIAL_TEMPLATE_ID, radial_params)
        assert "fGetNearbyObjEq(164.0, 8.0, 10.0)" in bound.sql
        assert bound.region.dims == 3
        assert bound.key_column == "objID"
        assert bound.top is None

    def test_cache_key_identity(self, manager, radial_params):
        a = manager.bind(RADIAL_TEMPLATE_ID, radial_params)
        b = manager.bind(RADIAL_TEMPLATE_ID, dict(radial_params))
        assert a.cache_key() == b.cache_key()

    def test_cache_key_differs_on_params(self, manager, radial_params):
        a = manager.bind(RADIAL_TEMPLATE_ID, radial_params)
        other = dict(radial_params, radius=11.0)
        b = manager.bind(RADIAL_TEMPLATE_ID, other)
        assert a.cache_key() != b.cache_key()

    def test_bind_form_end_to_end(self, manager):
        bound = manager.bind_form(
            "Radial", {"ra": "164", "dec": "8", "radius": "10"}
        )
        assert bound.template_id == RADIAL_TEMPLATE_ID
        assert bound.params["r_min"] == -9999.0


# ---------------------------------------------------------------------
# One bind per query: the region is read off the statement ``bind``
# already built, not off a second binding of the whole template.
MAGS = {"r_min": -9999.0, "r_max": 9999.0}
coordinate = st.floats(min_value=-80.0, max_value=80.0, allow_nan=False)
extent = st.floats(min_value=0.01, max_value=30.0, allow_nan=False)


@st.composite
def template_params(draw):
    """(template id, parameters) over every region shape in the tree."""
    a, b, size = draw(coordinate), draw(coordinate), draw(extent)
    return draw(
        st.sampled_from(
            [
                (RADIAL_TEMPLATE_ID, {"ra": a, "dec": b, "radius": size}),
                (NEAREST_TEMPLATE_ID, {"ra": a, "dec": b, "radius": size}),
                (
                    RECT_TEMPLATE_ID,
                    {
                        "ra_min": a, "ra_max": a + size,
                        "dec_min": b, "dec_max": b + size,
                    },
                ),
                (
                    TRIANGLE_TEMPLATE_ID,
                    {
                        "ra1": a - size, "dec1": b - size,
                        "ra2": a + size, "dec2": b - size,
                        "ra3": a, "dec3": b + size,
                    },
                ),
            ]
        )
    )


@pytest.fixture(scope="module")
def all_shapes():
    manager = TemplateManager()
    register_skyserver_templates(manager)
    manager.register_function_template(triangle_function_template())
    manager.register_query_template(triangle_query_template())
    return manager


class TestBindOnce:
    def test_one_manager_bind_is_one_statement_bind(
        self, manager, radial_params, monkeypatch
    ):
        calls = []
        real_bind = SelectStatement.bind

        def counting_bind(self, values):
            calls.append(self)
            return real_bind(self, values)

        monkeypatch.setattr(SelectStatement, "bind", counting_bind)
        manager.bind(RADIAL_TEMPLATE_ID, radial_params)
        assert len(calls) == 1

    @settings(max_examples=60, deadline=None)
    @given(case=template_params())
    def test_region_and_statement_match_the_rebinding_path(
        self, all_shapes, case
    ):
        template_id, params = case
        params = {**params, **MAGS}
        template = all_shapes.query_template(template_id)
        bound = all_shapes.bind(template_id, params)
        # The two-bind derivation the manager used to run: bind the
        # statement, then bind it *again* to read the function call.
        assert bound.statement == template.statement.bind(dict(params))
        assert bound.region == template.region_for(params)
        assert bound.region == template.function_template.region_for(
            template.function_params(params)
        )

    def test_rect_region_is_the_form_rectangle(self, all_shapes):
        bound = all_shapes.bind(
            RECT_TEMPLATE_ID,
            {
                "ra_min": 1.0, "ra_max": 2.5,
                "dec_min": -3.0, "dec_max": 4.0,
                **MAGS,
            },
        )
        assert bound.region == HyperRect(lows=(1.0, -3.0), highs=(2.5, 4.0))

    def test_parameter_names_are_computed_once_and_stay_a_fresh_list(
        self, manager
    ):
        statement = manager.query_template(RADIAL_TEMPLATE_ID).statement
        names = statement.parameter_names()
        names.append("scribble")
        assert statement.parameter_names() == [
            "ra", "dec", "radius", "r_min", "r_max",
        ]
