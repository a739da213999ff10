#!/usr/bin/env python
"""Code lines per ``src/repro`` package, and the total.

ROADMAP asks every PR to report its net ``src/`` line delta; this is
the command that produces the number.  A *code line* is a physical
line carrying at least one token that is not a comment, and that is
not part of a docstring — blank lines, comment-only lines, and module /
class / function docstrings do not count, so reformatting prose cannot
move the figure.

    python tools/src_size.py            # table for ./src/repro
    python tools/src_size.py path/to/other/checkout/src/repro
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of ``source`` are code."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def package_sizes(root: Path) -> dict[str, int]:
    """Code lines per top-level package under ``root`` (files sitting
    directly in ``root`` are grouped under ``.``)."""
    sizes: dict[str, int] = {}
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        package = relative.parts[0] if len(relative.parts) > 1 else "."
        sizes[package] = sizes.get(package, 0) + code_lines(
            path.read_text(encoding="utf-8")
        )
    return sizes


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parent.parent / "src" / "repro"
    root = Path(argv[1]) if len(argv) > 1 else default
    if not root.is_dir():
        print(f"not a directory: {root}", file=sys.stderr)
        return 2
    sizes = package_sizes(root)
    width = max(len(name) for name in sizes)
    for name, count in sorted(sizes.items()):
        print(f"{name:<{width}}  {count:>6}")
    print(f"{'total':<{width}}  {sum(sizes.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
