"""The generated binder equals the expression evaluator it compiles.

``QueryTemplate.binder`` and ``FunctionTemplate.region_for`` run code
generated from the templates' expression trees
(:mod:`repro.templates.binding`).  Their oracle is the binding spelled
out here over ``tests.interpreter.interpret`` — the argument
expressions, the function template's domains, each region expression
checked for a finite number in declared order, the shape, the query
parameters' finiteness and the bound WHERE text.  Over random region
and argument trees of every node kind the compiler handles, and
parameters that are NULL, bool, int, negative, str, huge, NaN or
infinite, both return the same values bit for bit or raise the same
exception type with the same message.
"""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry.regions import (
    ConvexPolytope,
    Halfspace,
    HyperRect,
    HyperSphere,
    region_to_dict,
)
from repro.relational.errors import ExecutionError
from repro.relational.expressions import (
    SCALAR_BUILTINS,
    And,
    Between,
    BinaryOp,
    BinaryOperator,
    ColumnRef,
    CountStar,
    FuncCall,
    InList,
    IsNull,
    Literal,
    Negate,
    Not,
    Or,
)
from repro.relational.types import is_finite
from repro.sqlparser.ast import Parameter, require_parameters
from repro.sqlparser.parser import parse_expression
from repro.templates.errors import TemplateError
from repro.templates.function_template import (
    FunctionTemplate,
    HalfspaceSpec,
    Shape,
)
from repro.templates.manager import TemplateManager
from repro.templates.query_template import QueryTemplate
from tests.interpreter import interpret, parameter_environment

#: The function's parameters (``$z`` is undeclared: an unbound read).
FUNCTION_PARAMS = ("a", "b")
#: The query's parameters: ``$p`` and ``$q`` feed the call, ``$s``
#: only the WHERE clause.
QUERY_SQL = (
    "SELECT objID FROM f($p, $q) n WHERE objID BETWEEN $p AND $s "
    "AND 'it''s $q {0}' <> $s"
)

# Small ints keep ``'text' * n`` small however deep the tree nests it;
# 10**400 is an int no float holds.
values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=12),
    st.just(10**400),
    st.sampled_from(
        [0.0, -0.0, 0.5, -1.5, 2.0, 90.0, 1e308, math.inf, -math.inf,
         math.nan]
    ),
    st.sampled_from(["", "a", "Bc"]),
)


def expressions(names):
    """Trees of every node kind the expression compiler handles."""
    atoms = st.one_of(
        values.map(Literal),
        st.sampled_from([*names, *names, "z"]).map(Parameter),
        st.sampled_from(["x", "COUNT"]).map(
            lambda kind: CountStar() if kind == "COUNT" else ColumnRef(kind)
        ),
    )

    def nodes(inner):
        some = st.lists(inner, min_size=1, max_size=3).map(tuple)
        return st.one_of(
            st.builds(
                BinaryOp, st.sampled_from(list(BinaryOperator)), inner, inner
            ),
            st.builds(And, some),
            st.builds(Or, some),
            st.builds(Not, inner),
            st.builds(Negate, inner),
            st.builds(Between, inner, inner, inner),
            st.builds(IsNull, inner, st.booleans()),
            st.builds(InList, inner, some),
            st.builds(
                FuncCall,
                st.sampled_from(
                    [*SCALAR_BUILTINS, "SIN", "nosuch", "sql_literal"]
                ),
                st.lists(inner, max_size=3).map(tuple),
            ),
        )

    return st.recursive(atoms, nodes, max_leaves=8)


def numeric(names):
    """Arithmetic over the parameters: trees that often bind."""
    atoms = st.one_of(
        st.sampled_from(names).map(Parameter),
        st.sampled_from([0.5, 2, -1.5, 90.0]).map(Literal),
    )

    def nodes(inner):
        return st.one_of(
            st.builds(
                BinaryOp,
                st.sampled_from(list(BinaryOperator)[:4]),
                inner,
                inner,
            ),
            st.builds(Negate, inner),
            st.builds(
                FuncCall,
                st.sampled_from(["sin", "cos", "abs", "least", "radians"]),
                st.lists(inner, min_size=1, max_size=2).map(tuple),
            ),
        )

    return st.recursive(atoms, nodes, max_leaves=8)


region_exprs = st.one_of(
    numeric(FUNCTION_PARAMS), numeric(FUNCTION_PARAMS),
    expressions(FUNCTION_PARAMS),
)
bounds = st.sampled_from([-math.inf, -10.0, 0, 1.5, 90.0, math.inf])


@st.composite
def function_templates(draw, region_exprs=region_exprs):
    shape = draw(st.sampled_from(list(Shape)))
    dims = draw(st.integers(min_value=1, max_value=2))
    exprs = st.lists(region_exprs, min_size=dims, max_size=dims).map(tuple)
    fields = {}
    if shape is Shape.HYPERSPHERE:
        fields.update(center_exprs=draw(exprs), radius_expr=draw(region_exprs))
    else:
        fields.update(low_exprs=draw(exprs), high_exprs=draw(exprs))
    if shape is Shape.POLYTOPE:
        fields["halfspace_specs"] = tuple(
            HalfspaceSpec(draw(exprs), draw(region_exprs))
            for _ in range(draw(st.integers(min_value=1, max_value=2)))
        )
    low, high = sorted([draw(bounds), draw(bounds)])
    domains = draw(st.sampled_from([(), (("a", low, high),)]))
    return FunctionTemplate(
        name="f",
        params=FUNCTION_PARAMS,
        shape=shape,
        dims=dims,
        point_exprs=tuple(ColumnRef("x") for _ in range(dims)),
        domains=domains,
        **fields,
    )


@st.composite
def query_templates(draw):
    function = draw(function_templates())
    template = QueryTemplate.from_sql("t", QUERY_SQL, function, "objID")
    statement = template.statement
    arg = st.one_of(numeric(("p", "q")), expressions(("p", "q")))
    args = draw(st.lists(arg, min_size=2, max_size=2))
    source = dataclasses.replace(statement.source, args=tuple(args))
    return dataclasses.replace(
        template, statement=dataclasses.replace(statement, source=source)
    )


numbers = st.one_of(st.sampled_from([0.5, -1.5, 2.0, 45.0, 3]), values)
numbers = st.one_of(numbers, numbers, values)
query_params = st.fixed_dictionaries({"p": numbers, "q": numbers, "s": numbers})


# ------------------------------------------------------------- oracle
def reference_region(function, params):
    """``region_for`` spelled out over the tree interpreter."""
    missing = [p for p in function.params if p not in params]
    if missing:
        raise TemplateError(
            f"{function.name}: missing parameter(s) {', '.join(missing)}"
        )
    for param, low, high in function.domains:
        value = params[param]
        finite = isinstance(value, (int, float)) and is_finite(value)
        if finite and not low <= value <= high:
            raise TemplateError(
                f"{function.name}: ${param}={value!r} is outside "
                f"[{low}, {high}]"
            )
    env = parameter_environment({p: params[p] for p in function.params})
    values = []
    for expr in function.region_exprs:
        try:
            value = interpret(expr, env)
        except ExecutionError as exc:
            raise TemplateError(
                f"cannot evaluate {expr.to_sql()}: {exc}"
            ) from exc
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TemplateError(
                f"template expression {expr.to_sql()} produced {value!r}, "
                "expected a number"
            )
        if not is_finite(value):
            raise TemplateError(
                f"template expression {expr.to_sql()} produced {value!r}, "
                "expected a finite number"
            )
        values.append(float(value))
    dims = function.dims
    if function.shape is Shape.HYPERSPHERE:
        if values[dims] < 0:
            raise TemplateError(
                f"{function.name}: negative radius {values[dims]}"
            )
        return HyperSphere(tuple(values[:dims]), values[dims])
    box = HyperRect(tuple(values[:dims]), tuple(values[dims:2 * dims]))
    if function.shape is Shape.HYPERRECT:
        return box
    faces = range(2 * dims, len(values), dims + 1)
    return ConvexPolytope(
        tuple(
            Halfspace(tuple(values[at:at + dims]), values[at + dims])
            for at in faces
        ),
        box,
    )


def reference_binding(template, params):
    """``binder`` spelled out: arguments, region, finiteness, WHERE."""
    statement = template.statement
    names = statement.parameter_names()
    require_parameters(names, params)
    env = parameter_environment(params)
    function = template.function_template
    function_params = {
        name: interpret(arg, env)
        for name, arg in zip(function.params, statement.source.args)
    }
    region = reference_region(function, function_params)
    for name in names:
        value = params[name]
        if isinstance(value, (int, float)) and not is_finite(value):
            raise TemplateError(
                f"{template.template_id}: ${name}={value!r} is not a "
                "finite number"
            )
    return function_params, region, statement.bind(params).where.to_sql()


def exact(value):
    """A value compared bit for bit: floats by ``float.hex``."""
    if isinstance(value, float):
        return "float", value.hex()
    if isinstance(value, (list, tuple)):
        return [exact(item) for item in value]
    if isinstance(value, dict):
        return {key: exact(item) for key, item in value.items()}
    if isinstance(value, (HyperSphere, HyperRect, ConvexPolytope)):
        return exact(region_to_dict(value))
    return type(value).__name__, repr(value)


def outcome(run):
    try:
        value = run()
    except Exception as exc:  # the type and the text are the outcome
        return "raised", type(exc).__name__, str(exc)
    return "returned", exact(value)


# -------------------------------------------------------------- tests
NO_NULLS = {"p": 1.5, "q": 2.0, "s": 0}


@given(template=query_templates(), params=query_params)
@settings(max_examples=300, derandomize=True, deadline=None)
@example(
    template=QueryTemplate.from_sql(
        "t", QUERY_SQL,
        FunctionTemplate(
            name="f", params=FUNCTION_PARAMS, shape=Shape.HYPERRECT, dims=1,
            point_exprs=(ColumnRef("x"),),
            low_exprs=(parse_expression("($a IS NULL) * 1.0"),),
            high_exprs=(parse_expression("$b = 1 OR 1 / 0 = 1"),),
        ),
        "objID",
    ),
    params={"p": None, "q": 1, "s": None},
)
def test_binder_equals_the_interpreted_binding(template, params):
    assert outcome(lambda: template.binder(params)) == outcome(
        lambda: reference_binding(template, params)
    )


@given(
    function=function_templates(),
    a=numbers,
    b=numbers,
)
@settings(max_examples=300, derandomize=True, deadline=None)
@example(
    function=FunctionTemplate(
        name="f", params=FUNCTION_PARAMS, shape=Shape.HYPERSPHERE, dims=1,
        point_exprs=(ColumnRef("x"),),
        center_exprs=(parse_expression("least($a, $b) + NULL"),),
        radius_expr=parse_expression("$a IN (NULL, 1)"),
    ),
    a=1,
    b=2.0,
)
@example(  # a SQL function that shares a name with a generator helper
    function=FunctionTemplate(
        name="f", params=FUNCTION_PARAMS, shape=Shape.HYPERRECT, dims=1,
        point_exprs=(ColumnRef("x"),),
        low_exprs=(parse_expression("sql_literal($a)"),),
        high_exprs=(parse_expression("$b"),),
    ),
    a=1.0,
    b=2.0,
)
def test_region_for_equals_the_interpreted_region(function, a, b):
    params = {"a": a, "b": b}
    assert outcome(lambda: function.region_for(params)) == outcome(
        lambda: reference_region(function, params)
    )


@given(
    function=function_templates(numeric(FUNCTION_PARAMS)),
    a=st.floats(-400.0, 400.0),
    b=st.floats(-400.0, 400.0),
)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_numeric_regions_are_bit_identical(function, a, b):
    """Arithmetic trees over finite numbers: mostly regions, compared
    by ``float.hex``."""
    params = {"a": a, "b": b}
    assert outcome(lambda: function.region_for(params)) == outcome(
        lambda: reference_region(function, params)
    )


def test_a_missing_parameter_keeps_its_refusal():
    template = QueryTemplate.from_sql(
        "t", QUERY_SQL, function_template_of(parse_expression("$a")),
        "objID",
    )
    for run in (template.binder, lambda p: reference_binding(template, p)):
        assert outcome(lambda: run({"p": 1.0})) == (
            "raised", "ExecutionError",
            "missing template parameter(s): q, s",
        )
    function = template.function_template
    assert outcome(lambda: function.region_for({"b": 1.0})) == outcome(
        lambda: reference_region(function, {"b": 1.0})
    )


def function_template_of(expr):
    return FunctionTemplate(
        name="f", params=FUNCTION_PARAMS, shape=Shape.HYPERRECT, dims=1,
        point_exprs=(ColumnRef("x"),), low_exprs=(expr,), high_exprs=(expr,),
    )


def deep(param, depth=100):
    """An expression nested past what generated code can spell."""
    return parse_expression("abs(" * depth + f"${param}" + ")" * depth)


def registered(template):
    """``template`` registered in a fresh manager (point on ``objID``,
    which the select list returns)."""
    function = dataclasses.replace(
        template.function_template, point_exprs=(ColumnRef("objID"),)
    )
    manager = TemplateManager()
    manager.register_query_template(
        dataclasses.replace(template, function_template=function)
    )
    return manager


def test_an_expression_nested_too_deeply_is_refused_at_registration():
    template = QueryTemplate.from_sql(
        "t", QUERY_SQL, function_template_of(parse_expression("$a")), "objID"
    )
    registered(template).bind("t", NO_NULLS)  # shallow: binds
    region = function_template_of(deep("a"))
    with pytest.raises(TemplateError, match="^f: an expression is nested"):
        registered(dataclasses.replace(template, function_template=region))
    source = dataclasses.replace(
        template.statement.source, args=(deep("p"), Parameter("q"))
    )
    statement = dataclasses.replace(template.statement, source=source)
    with pytest.raises(TemplateError, match="^t: an expression is nested"):
        registered(dataclasses.replace(template, statement=statement))
