"""Property: rendering a statement to SQL and re-parsing is identity.

The proxy rewrites queries textually (remainder queries travel as SQL
strings to the origin's free-SQL facility), so ``parse(to_sql(x)) == x``
is load-bearing, not cosmetic.

Statements are generated bottom-up from the same node types the parser
produces.  Literal floats use ``repr`` so the round-trip is exact.
"""

from operator import itemgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.errors import ExecutionError
from repro.relational.expressions import (
    And,
    Between,
    BinaryOp,
    BinaryOperator,
    ColumnRef,
    CountStar,
    Expression,
    FuncCall,
    InList,
    IsNull,
    Literal,
    Negate,
    Not,
    Or,
    compile_expression,
)
from repro.sqlparser.ast import (
    FunctionSource,
    JoinClause,
    OrderItem,
    Parameter,
    SelectItem,
    SelectStatement,
    TableSource,
    bind_expression,
)
from repro.sqlparser.parser import parse_expression, parse_select

from repro.sqlparser.tokens import KEYWORDS

identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    # Keywords would tokenize differently.
    lambda s: s not in KEYWORDS
)

qualified = st.builds(
    lambda a, b: f"{a}.{b}", identifiers, identifiers
)

literals = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6).map(Literal),
    st.floats(allow_nan=False, allow_infinity=False).map(Literal),
    st.text(
        alphabet=st.characters(
            codec="ascii", exclude_characters="\0\n\r"
        ),
        max_size=8,
    ).map(Literal),
    st.just(Literal(None)),
)

atoms = st.one_of(
    literals,
    st.one_of(identifiers, qualified).map(ColumnRef),
    identifiers.map(Parameter),
    st.just(CountStar()),
)


def expressions(depth: int = 2):
    if depth == 0:
        return atoms
    inner = expressions(depth - 1)
    return st.one_of(
        atoms,
        st.builds(
            BinaryOp,
            st.sampled_from(list(BinaryOperator)),
            inner,
            inner,
        ),
        st.builds(lambda a, b: And((a, b)), inner, inner),
        st.builds(lambda a, b: Or((a, b)), inner, inner),
        st.builds(Not, inner),
        # Negate over a numeric literal is non-canonical: the parser
        # folds "-1" into Literal(-1), so never generate Negate(number).
        st.builds(
            Negate,
            inner.filter(
                lambda e: not (
                    isinstance(e, Literal)
                    and isinstance(e.value, (int, float))
                    and not isinstance(e.value, bool)
                )
            ),
        ),
        st.builds(Between, inner, inner, inner),
        st.builds(lambda op, neg: IsNull(op, neg), inner, st.booleans()),
        st.builds(
            lambda op, choices: InList(op, tuple(choices)),
            inner,
            st.lists(inner, min_size=1, max_size=3),
        ),
        st.builds(
            lambda name, args: FuncCall(name, tuple(args)),
            identifiers,
            st.lists(inner, min_size=0, max_size=3),
        ),
    )


select_items = st.builds(
    SelectItem,
    expressions(1),
    st.one_of(st.none(), identifiers),
)

sources = st.one_of(
    st.builds(TableSource, identifiers, st.one_of(st.none(), identifiers)),
    st.builds(
        lambda name, args, alias: FunctionSource(name, tuple(args), alias),
        identifiers,
        st.lists(expressions(1), min_size=0, max_size=3),
        st.one_of(st.none(), identifiers),
    ),
)

joins = st.builds(
    JoinClause,
    st.builds(TableSource, identifiers, st.one_of(st.none(), identifiers)),
    expressions(1),
)

statements = st.builds(
    lambda items, source, join_list, where, order, top, star, distinct, \
            group: (
        SelectStatement(
            select_items=() if star else tuple(items),
            source=source,
            joins=tuple(join_list),
            where=where,
            order_by=tuple(order),
            top=top,
            star=star,
            distinct=distinct,
            group_by=() if star else tuple(group),
        )
    ),
    st.lists(select_items, min_size=1, max_size=4),
    sources,
    st.lists(joins, min_size=0, max_size=2),
    st.one_of(st.none(), expressions(2)),
    st.lists(
        st.builds(OrderItem, expressions(1), st.booleans()),
        min_size=0,
        max_size=2,
    ),
    st.one_of(st.none(), st.integers(min_value=0, max_value=1000)),
    st.booleans(),
    st.booleans(),
    st.lists(expressions(1), min_size=0, max_size=2),
)


@given(expr=expressions(3))
@settings(max_examples=300, deadline=None)
def test_expression_roundtrip(expr):
    assert parse_expression(expr.to_sql()) == expr


@given(stmt=statements)
@settings(max_examples=300, deadline=None)
def test_statement_roundtrip(stmt):
    assert parse_select(stmt.to_sql()) == stmt


# ------------------------------------------------------------------------
# The one walker (``Expression.children`` / ``map_children``,
# ``SelectStatement.expressions`` / ``map_expressions``) against the
# reflective walks it replaced, kept here as the oracle.


def reference_children(expr):
    """Which fields hold sub-expressions, re-derived by reflection."""
    found = []
    for value in vars(expr).values():
        if isinstance(value, Expression):
            found.append(value)
        elif isinstance(value, tuple):
            found.extend(v for v in value if isinstance(v, Expression))
    return tuple(found)


def reference_walk(expr):
    yield expr
    for child in reference_children(expr):
        yield from reference_walk(child)


def reference_bind(expr, values):
    """Substitute every parameter, copy every node."""
    if isinstance(expr, Parameter):
        return Literal(values[expr.name])

    def rebuilt(value):
        if isinstance(value, Expression):
            return reference_bind(value, values)
        if isinstance(value, tuple):
            return tuple(rebuilt(element) for element in value)
        return value

    return type(expr)(
        **{name: rebuilt(value) for name, value in vars(expr).items()}
    )


def reference_clauses(stmt):
    """Select items, function arguments, join conditions, WHERE,
    GROUP BY, ORDER BY."""
    clauses = [item.expression for item in stmt.select_items]
    if isinstance(stmt.source, FunctionSource):
        clauses += stmt.source.args
    clauses += [join.condition for join in stmt.joins]
    if stmt.where is not None:
        clauses.append(stmt.where)
    clauses += stmt.group_by
    clauses += [item.expression for item in stmt.order_by]
    return clauses


def reference_bind_statement(stmt, values):
    def rebuilt(expr):
        return reference_bind(expr, values)

    source = stmt.source
    if isinstance(source, FunctionSource):
        source = FunctionSource(
            source.name, tuple(map(rebuilt, source.args)), source.alias
        )
    return SelectStatement(
        select_items=tuple(
            SelectItem(rebuilt(i.expression), i.alias)
            for i in stmt.select_items
        ),
        source=source,
        joins=tuple(
            JoinClause(j.table, rebuilt(j.condition)) for j in stmt.joins
        ),
        where=None if stmt.where is None else rebuilt(stmt.where),
        order_by=tuple(
            OrderItem(rebuilt(o.expression), o.descending)
            for o in stmt.order_by
        ),
        top=stmt.top,
        star=stmt.star,
        distinct=stmt.distinct,
        group_by=tuple(map(rebuilt, stmt.group_by)),
    )


@given(expr=expressions(3))
@settings(max_examples=300, deadline=None)
def test_children_match_the_reflective_walk(expr):
    assert list(expr.walk()) == list(reference_walk(expr))
    for node in expr.walk():
        children = node.children()
        assert len(children) == len(reference_children(node))
        assert all(
            a is b for a, b in zip(children, reference_children(node))
        )


@given(expr=expressions(3))
@settings(max_examples=300, deadline=None)
def test_identity_map_shares_the_whole_tree(expr):
    assert expr.map_children(lambda child: child) is expr


bound_values = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(alphabet="abc'", max_size=4),
    st.none(),
)


@given(stmt=statements, data=st.data())
@settings(max_examples=300, deadline=None)
def test_statement_bind_matches_substitute_everything(stmt, data):
    names = stmt.parameter_names()
    assert stmt.expressions() == reference_clauses(stmt)
    assert names == list(
        dict.fromkeys(
            node.name
            for clause in reference_clauses(stmt)
            for node in reference_walk(clause)
            if isinstance(node, Parameter)
        )
    )
    values = {name: data.draw(bound_values, label=name) for name in names}
    bound = stmt.bind(values)
    reference = reference_bind_statement(stmt, values)
    assert bound == reference
    assert bound.to_sql() == reference.to_sql()
    assert bound.parameter_names() == []
    visited = []

    def visit(expr):
        visited.append(expr)
        return expr

    assert stmt.map_expressions(visit) == stmt
    assert all(a is b for a, b in zip(visited, stmt.expressions()))
    assert len(visited) == len(stmt.expressions())


numbers = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(min_value=-1e6, max_value=1e6),
)


def arithmetic(depth: int = 3):
    """Arithmetic over ``$``-parameters only: a function template's
    centre / radius expressions."""
    atoms = st.one_of(
        st.sampled_from(["ra", "dec", "radius"]).map(Parameter),
        numbers.map(Literal),
    )
    if depth == 0:
        return atoms
    inner = arithmetic(depth - 1)
    return st.one_of(
        atoms,
        st.builds(
            BinaryOp,
            st.sampled_from(
                [
                    BinaryOperator.ADD,
                    BinaryOperator.SUB,
                    BinaryOperator.MUL,
                    BinaryOperator.DIV,
                ]
            ),
            inner,
            inner,
        ),
        st.builds(Negate, inner),
        st.builds(
            lambda name, arg: FuncCall(name, (arg,)),
            st.sampled_from(["cos", "sin", "radians", "sqrt", "abs"]),
            inner,
        ),
        st.builds(
            lambda a, b, c: FuncCall("least", (a, b, c)), inner, inner, inner
        ),
    )


def parameter_slots(node):
    return itemgetter(node.name) if isinstance(node, Parameter) else None


@given(expr=arithmetic(), ra=numbers, dec=numbers, radius=numbers)
@settings(max_examples=300, deadline=None)
def test_parameter_slots_equal_substitution(expr, ra, dec, radius):
    """Compiled with each ``$name`` read from the call's values, an
    expression computes, bit for bit, what it computes compiled after
    :func:`bind_expression` substituted literals — the invariant that
    keeps a template's regions identical to its bound SQL's."""
    values = {"ra": ra, "dec": dec, "radius": radius}

    def outcome(evaluate):
        try:
            return repr(evaluate())  # exact for floats: NaN, -0.0, 1 vs 1.0
        except ExecutionError:
            return "error"

    assert outcome(
        lambda: compile_expression(expr, parameter_slots)(values)
    ) == outcome(lambda: compile_expression(bind_expression(expr, values))(()))
