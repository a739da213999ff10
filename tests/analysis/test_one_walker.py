"""One walker, verified by absence.

``repro.relational.expressions`` owns the only code that knows which
fields of an expression node hold sub-expressions
(``Expression.children`` / ``map_children``).  Six reflective copies of
that knowledge and thirteen hand-written ``_collect_refs`` methods used
to live elsewhere; this is the acceptance grep as a test, so a seventh
walker fails CI instead of going half-supported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
OWNER = SRC / "relational" / "expressions.py"
#: ``vars()`` over something that is not an expression node.  Adding a
#: file here is a reviewed decision, not a way to bring reflection back.
VARS_ALLOWED = {SRC / "core" / "costs.py"}
GONE = {"_collect_refs", "_walk_parameters"}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _is_call_of(node: ast.AST, name: str) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == name
    )


def test_no_module_reflects_over_a_node():
    offenders = []
    for path, tree in _modules():
        if path == OWNER:
            continue
        for node in ast.walk(tree):
            if _is_call_of(node, "vars") and path not in VARS_ALLOWED:
                offenders.append(f"{path.name}:{node.lineno} vars()")
            # type(x)(**fields): a node rebuilt from its reflected fields.
            if (
                isinstance(node, ast.Call)
                and _is_call_of(node.func, "type")
                and any(keyword.arg is None for keyword in node.keywords)
            ):
                offenders.append(f"{path.name}:{node.lineno} type(x)(**...)")
    assert offenders == []


def test_the_hand_written_walkers_stay_gone():
    defined = {
        f"{path.name}:{node.name}"
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in GONE
    }
    assert defined == set()


def test_function_templates_do_not_rebuild_expressions():
    """``$``-parameters are environment values there, not substituted
    literals: nothing under ``repro.templates`` names the rebuilder."""
    for path in (SRC / "templates").glob("*.py"):
        assert "bind_expression" not in path.read_text(encoding="utf-8"), path
