"""``tools/src_size.py``: what counts as a code line."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "src_size.py"
spec = importlib.util.spec_from_file_location("src_size", TOOL)
src_size = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_size)

SAMPLE = '''"""Module docstring,
two lines."""

import os  # trailing comments do not un-count a code line


# a comment-only line
def f(x):
    """One-line docstring."""
    text = """a string that is data,
    not a docstring"""
    return (
        x,
        text,
    )
'''


def test_blank_comment_and_docstring_lines_do_not_count():
    # import, def, the two lines of the data string, and the four
    # lines of the return statement.
    assert src_size.code_lines(SAMPLE) == 8


def test_packages_are_summed_under_their_top_level_name(tmp_path, capsys):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "pkg" / "sub" / "b.py").write_text("z = 3\n")
    (tmp_path / "top.py").write_text('"""Doc."""\n')
    assert src_size.package_sizes(tmp_path) == {".": 0, "pkg": 3}
    assert src_size.main(["src_size", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["total", "3"]
