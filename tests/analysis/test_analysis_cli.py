"""The offline linter CLI: ``python -m repro.analysis``."""

import json
from dataclasses import replace

from repro.analysis.__main__ import main
from repro.sqlparser.parser import parse_expression
from repro.templates import skyserver_templates
from repro.templates.skyserver_templates import (
    radial_function_template,
    radial_info_file,
)


def test_builtin_templates_lint_clean(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    # The nearest template's TOP 1 is reported as info, never an error.
    assert "FP208" in out
    assert "0 error(s)" in out


def test_broken_builtin_reports_instead_of_raising(monkeypatch, capsys):
    # A point expression over a parameter breaks the §3.1 properties:
    # strict registration refuses it, and the CLI prints the refusal's
    # report rather than a traceback.
    def broken():
        template = radial_function_template()
        return replace(
            template,
            point_exprs=(
                parse_expression("cx + $ra"),
                *template.point_exprs[1:],
            ),
        )

    monkeypatch.setattr(
        skyserver_templates, "radial_function_template", broken
    )
    assert main([]) == 1
    assert "FP109" in capsys.readouterr().out


def test_clean_xml_file_exits_zero(tmp_path, capsys):
    path = tmp_path / "radial.xml"
    path.write_text(radial_function_template().to_xml())
    assert main([str(path)]) == 0
    assert "no diagnostics" in capsys.readouterr().out


def test_bad_template_file_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.xml"
    path.write_text(
        "<FunctionTemplate><Name>f</Name>"
        "<Params><Param>ra</Param></Params>"
        "<Shape>blob</Shape><NumDimensions>1</NumDimensions>"
        "<PointCoordinate><Expr>x</Expr></PointCoordinate>"
        "</FunctionTemplate>"
    )
    assert main([str(path)]) == 1
    assert "FP103" in capsys.readouterr().out


def test_info_files_are_sniffed(tmp_path, capsys):
    path = tmp_path / "info.xml"
    path.write_text(radial_info_file().to_xml())
    assert main([str(path)]) == 0


def test_directories_recurse(tmp_path, capsys):
    (tmp_path / "nested").mkdir()
    (tmp_path / "nested" / "bad.xml").write_text("<Nope/>")
    assert main([str(tmp_path)]) == 1
    assert "FP102" in capsys.readouterr().out


def test_unreadable_path_exits_two(tmp_path, capsys):
    assert main([str(tmp_path / "missing.xml")]) == 2


def test_json_output(tmp_path, capsys):
    path = tmp_path / "bad.xml"
    path.write_text("<Nope/>")
    assert main(["--json", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["errors"] == 1
    assert payload["diagnostics"][0]["code"] == "FP102"
    assert payload["diagnostics"][0]["severity"] == "error"
