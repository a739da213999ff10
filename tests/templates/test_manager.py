"""Template manager registration and binding."""

import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sqlparser
from repro.core.proxy import FunctionProxy
from repro.core.stats import QueryStatus
from repro.extensions.triangle import (
    TRIANGLE_TEMPLATE_ID,
    triangle_function_template,
    triangle_query_template,
)
from repro.geometry.regions import HyperRect
from repro.relational.types import is_finite
from repro.sqlparser.ast import SelectStatement
from repro.sqlparser.parser import parse_select
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
        assert "fGetNearbyObjEq(164.0, 8.0, 10.0)" in (
            bound.statement.to_sql()
        )
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
# Compile once, apply per query: binding reads the function call's
# arguments, the region and the residual signature off the compiled
# template; the bound statement is built only where it is sent.
MAGS = {"r_min": -9999.0, "r_max": 9999.0}
#: Ints, negatives, and both sides of the RA seam: each renders its own
#: way (``164``, ``-8.5``, ``359.99``).
coordinate = st.one_of(
    st.integers(min_value=-80, max_value=80),
    st.floats(min_value=-80.0, max_value=80.0, allow_nan=False),
    st.sampled_from([0, -0.0, 1e-9, 359.99, 360, 0.01]),
)
extent = st.one_of(
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=0.01, max_value=30.0, allow_nan=False),
)
magnitudes = st.one_of(
    st.just(MAGS),
    st.builds(
        lambda low, high: {"r_min": low, "r_max": low + high},
        st.one_of(st.integers(-5, 20), st.floats(-5.0, 20.0)),
        extent,
    ),
)


@st.composite
def template_params(draw):
    """(template id, parameters) over all four templates, every region
    shape in the tree."""
    a, b, size = draw(coordinate), draw(coordinate), draw(extent)
    template_id, params = draw(
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
    return template_id, {**params, **draw(magnitudes)}


@pytest.fixture(scope="module")
def all_shapes():
    manager = TemplateManager()
    register_skyserver_templates(manager)
    manager.register_function_template(triangle_function_template())
    manager.register_query_template(triangle_query_template())
    return manager


@contextmanager
def statement_work(monkeypatch):
    """Every statement ``bind`` / ``map_expressions`` and every call
    into :mod:`repro.sqlparser` made inside the block, by name."""
    calls = []
    for name in ("bind", "map_expressions"):
        real = getattr(SelectStatement, name)

        def counting(self, *args, _real=real, _name=name):
            calls.append(f"SelectStatement.{_name}")
            return _real(self, *args)

        monkeypatch.setattr(SelectStatement, name, counting)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(SQLPARSER):
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(None)


SQLPARSER = str(Path(repro.sqlparser.__file__).parent)


class TestBindOnce:
    """Bind computes (function parameters, region, signature) from the
    compiled template; the statement is built only when it is sent."""

    @pytest.fixture()
    def proxy(self, origin):
        return FunctionProxy(origin, origin.templates)

    def test_a_hit_builds_no_statement_and_calls_no_parser(
        self, origin, proxy, radial_params, monkeypatch
    ):
        def serve(radius):
            bound = origin.templates.bind(
                RADIAL_TEMPLATE_ID, dict(radial_params, radius=radius)
            )
            return proxy.serve(bound).record.status

        # Warm up: a forward, then one contained hit compiles the local
        # evaluation plan (once per template).
        assert serve(10.0) is QueryStatus.DISJOINT
        assert serve(4.0) is QueryStatus.CONTAINED
        with statement_work(monkeypatch) as calls:
            exact, contained = serve(10.0), serve(3.0)
        assert (exact, contained) == (
            QueryStatus.EXACT, QueryStatus.CONTAINED,
        )
        assert calls == []

    def test_a_forward_and_a_remainder_build_no_statement(
        self, origin, proxy, radial_params, monkeypatch
    ):
        """The origin runs the template's plan with the query's values
        (and a remainder's holes): no serve path binds the statement."""
        bound = origin.templates.bind(RADIAL_TEMPLATE_ID, radial_params)
        shifted = origin.templates.bind(
            RADIAL_TEMPLATE_ID,
            dict(radial_params, ra=radial_params["ra"] + 0.1),
        )
        built = []
        real = SelectStatement.bind

        def counting(self, values):
            built.append(real(self, values))
            return built[-1]

        monkeypatch.setattr(SelectStatement, "bind", counting)
        forward = proxy.serve(bound)
        overlap = proxy.serve(shifted)
        assert forward.record.status is QueryStatus.DISJOINT
        assert overlap.record.status is QueryStatus.OVERLAP
        assert built == []
        assert "statement" not in vars(bound)
        assert "statement" not in vars(shifted)
        monkeypatch.undo()
        entry = proxy.cache.entries()[0]
        assert entry.signature == bound.statement.where.to_sql()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=template_params())
    def test_fragments_and_arguments_equal_the_lazy_statement(
        self, all_shapes, case
    ):
        template_id, params = case
        bound = all_shapes.bind(template_id, params)
        signature = bound.signature
        function_params = dict(bound.function_params)
        statement = bound.statement  # built after, from the same values
        assert signature == statement.where.to_sql()
        template = all_shapes.query_template(template_id)
        assert function_params == dict(
            zip(
                template.function_template.params,
                statement.source.argument_values(),
            )
        )
        assert bound.region == template.function_template.region_for(
            function_params
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


# ---------------------------------------------------------------------
# A non-finite number renders SQL that does not parse back (``inf`` reads
# as a column), so ``bind`` refuses one in any parameter.
form_number = st.one_of(
    st.floats().map(repr),
    st.integers(min_value=-(10**6), max_value=10**6).map(str),
    st.sampled_from(["1e400", "-1e400", "10**400", "faint"]),
)


class TestNonFiniteParameters:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @example(min_mag="0", max_mag="inf")
    @example(min_mag="0", max_mag="nan")
    @example(min_mag="0", max_mag="-inf")
    @given(min_mag=form_number, max_mag=form_number)
    def test_a_binding_is_finite_and_its_sql_parses_back(
        self, all_shapes, min_mag, max_mag
    ):
        form = {
            "ra": "164", "dec": "8", "radius": "10",
            "min_mag": min_mag, "max_mag": max_mag,
        }
        values = radial_info_file().bind_form(form)
        if any(
            isinstance(values[name], (int, float))
            and not is_finite(values[name])
            for name in ("r_min", "r_max")
        ):
            with pytest.raises(TemplateError, match="is not a finite number"):
                all_shapes.bind_form("Radial", form)
            return
        bound = all_shapes.bind_form("Radial", form)
        assert parse_select(bound.statement.to_sql()) == bound.statement

    def test_the_refusal_names_the_parameter(self, all_shapes):
        with pytest.raises(
            TemplateError,
            match=r"^skyserver\.radial: \$r_max=inf is not a finite number$",
        ):
            all_shapes.bind(
                RADIAL_TEMPLATE_ID,
                {"ra": 164, "dec": 8, "radius": 10, "r_min": 0,
                 "r_max": float("inf")},
            )
