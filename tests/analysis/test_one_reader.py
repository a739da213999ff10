"""One reader per template document, verified by absence.

Function-template and info-file XML are read by the one reader beside
each layout's writer (``repro.templates.function_template`` and
``repro.templates.info_file``); the analyzer hands it a sink and parses
nothing itself.  This is the acceptance grep as a test, so a second
XML walk in the analyzer fails CI instead of drifting from the loader.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
GONE = {"_check_expr_container", "_SHAPE_ELEMENTS", "_offset_of"}


def _modules(root):
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_the_analyzer_imports_no_xml_parser():
    imported = set()
    for path, tree in _modules(SRC / "analysis"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            imported |= {
                f"{path.name}:{name}"
                for name in names
                if name == "xml" or name.startswith("xml.")
            }
    assert imported == set()


def test_the_second_reader_stays_gone():
    defined = set()
    for path, tree in _modules(SRC):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                names = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                continue
            defined |= {f"{path.name}:{name}" for name in names & GONE}
    assert defined == set()
