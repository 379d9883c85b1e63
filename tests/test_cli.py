"""Command-line interface: outputs, determinism and exit codes."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import pytest

import contragenic.cli as cli
from contragenic.cli import main
from contragenic.fields import VecField


def run_cli(*argv, capsys) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


#: body rows of ``basis --kind XY -n 3 --format latex``: X(3,0), the middle
#: orders and the top order n+1, where out-of-range solid harmonics drop out
XY3_LATEX_ROWS = [
    r"X & 3 & 0 & $X^{3}_{0} = 2 \widehat{U}^{3}_{0} + \left(\tfrac{1}{2} \widehat{U}^{3}_{1}\right) e_1 + \left(\tfrac{1}{2} \widehat{V}^{3}_{1}\right) e_2$ & 4/9*pi & 1.3962634015954636 \\",
    r"X & 3 & 1 & $X^{3}_{1} = \tfrac{5}{2} \widehat{U}^{3}_{1} + \left(-5 \widehat{U}^{3}_{0} + \tfrac{1}{4} \widehat{U}^{3}_{2}\right) e_1 + \left(\tfrac{1}{4} \widehat{V}^{3}_{2}\right) e_2$ & 40/9*pi & 13.962634015954636 \\",
    r"X & 3 & 2 & $X^{3}_{2} = 3 \widehat{U}^{3}_{2} + \left(-\tfrac{15}{2} \widehat{U}^{3}_{1} + \tfrac{1}{4} \widehat{U}^{3}_{3}\right) e_1 + \left(\tfrac{15}{2} \widehat{V}^{3}_{1} + \tfrac{1}{4} \widehat{V}^{3}_{3}\right) e_2$ & 80*pi & 251.32741228718345 \\",
    r"X & 3 & 3 & $X^{3}_{3} = \tfrac{7}{2} \widehat{U}^{3}_{3} + \left(-\tfrac{21}{2} \widehat{U}^{3}_{2}\right) e_1 + \left(\tfrac{21}{2} \widehat{V}^{3}_{2}\right) e_2$ & 1120*pi & 3518.583772020568 \\",
    r"X & 3 & 4 & $X^{3}_{4} = \left(-14 \widehat{U}^{3}_{3}\right) e_1 + \left(14 \widehat{V}^{3}_{3}\right) e_2$ & 8960*pi & 28148.670176164545 \\",
    r"Y & 3 & 1 & $Y^{3}_{1} = \tfrac{5}{2} \widehat{V}^{3}_{1} + \left(\tfrac{1}{4} \widehat{V}^{3}_{2}\right) e_1 + \left(-5 \widehat{U}^{3}_{0} - \tfrac{1}{4} \widehat{U}^{3}_{2}\right) e_2$ & 40/9*pi & 13.962634015954636 \\",
    r"Y & 3 & 2 & $Y^{3}_{2} = 3 \widehat{V}^{3}_{2} + \left(-\tfrac{15}{2} \widehat{V}^{3}_{1} + \tfrac{1}{4} \widehat{V}^{3}_{3}\right) e_1 + \left(-\tfrac{15}{2} \widehat{U}^{3}_{1} - \tfrac{1}{4} \widehat{U}^{3}_{3}\right) e_2$ & 80*pi & 251.32741228718345 \\",
    r"Y & 3 & 3 & $Y^{3}_{3} = \tfrac{7}{2} \widehat{V}^{3}_{3} + \left(-\tfrac{21}{2} \widehat{V}^{3}_{2}\right) e_1 + \left(-\tfrac{21}{2} \widehat{U}^{3}_{2}\right) e_2$ & 1120*pi & 3518.583772020568 \\",
    r"Y & 3 & 4 & $Y^{3}_{4} = \left(-14 \widehat{V}^{3}_{3}\right) e_1 + \left(-14 \widehat{U}^{3}_{3}\right) e_2$ & 8960*pi & 28148.670176164545 \\",
]
#: body rows of ``basis --kind contragenic -n 3 --format latex``: Z0, Z+, Z-
CONTRAGENIC3_LATEX_ROWS = [
    r"Z0 & 3 & 0 & $Z^{3}_{0} = \left(\widehat{V}^{3}_{1}\right) e_1 + \left(-\widehat{U}^{3}_{1}\right) e_2$ & 16/21*pi & 2.39359440273508 \\",
    r"Z+ & 3 & 1 & $Z^{3}_{1,+} = \left(\widehat{V}^{3}_{2}\right) e_1 + \left(6 \widehat{U}^{3}_{0} - \widehat{U}^{3}_{2}\right) e_2$ & 208/21*pi & 31.11672723555605 \\",
    r"Z- & 3 & 1 & $Z^{3}_{1,-} = \left(6 \widehat{U}^{3}_{0} + \widehat{U}^{3}_{2}\right) e_1 + \left(\widehat{V}^{3}_{2}\right) e_2$ & 208/21*pi & 31.11672723555605 \\",
    r"Z+ & 3 & 2 & $Z^{3}_{2,+} = \left(2 \widehat{V}^{3}_{1} + \widehat{V}^{3}_{3}\right) e_1 + \left(2 \widehat{U}^{3}_{1} - \widehat{U}^{3}_{3}\right) e_2$ & 1024/21*pi & 153.19004177504513 \\",
    r"Z- & 3 & 2 & $Z^{3}_{2,-} = \left(2 \widehat{U}^{3}_{1} + \widehat{U}^{3}_{3}\right) e_1 + \left(-2 \widehat{V}^{3}_{1} + \widehat{V}^{3}_{3}\right) e_2$ & 1024/21*pi & 153.19004177504513 \\",
]


class TestBasisCommand:
    def test_uv_degree_zero_single_entry(self, capsys):
        code, out = run_cli("basis", "--kind", "UV", "-n", "0", capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 1
        assert doc["rows"][0][:4] == ["U", 0, 0, "1"]

    def test_xy_degree_one_csv_has_five_rows(self, capsys):
        code, out = run_cli(
            "basis", "--kind", "XY", "-n", "1", "--format", "csv", capsys=capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 5
        labels = [line.split(",")[0] for line in lines[1:]]
        assert labels == ["X", "X", "X", "Y", "Y"]

    def test_contragenic_degree_one_entry(self, capsys):
        code, out = run_cli("basis", "--kind", "contragenic", "-n", "1", capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        (row,) = doc["rows"]
        assert row[0] == "Z0"
        assert row[3] == "(x2)*e1 + (-x1)*e2"
        assert row[4] == "8/15*pi"

    def test_latex_structural_output(self, capsys):
        code, out = run_cli(
            "basis", "--kind", "contragenic", "-n", "2", "--format", "latex", capsys=capsys
        )
        assert code == 0
        assert "\\widehat{V}^{2}_{1}" in out
        assert "e_1" in out and "e_2" in out

    @pytest.mark.parametrize(
        "kind, rows",
        [("XY", XY3_LATEX_ROWS), ("contragenic", CONTRAGENIC3_LATEX_ROWS)],
    )
    def test_latex_rows_exact(self, kind, rows, capsys):
        code, out = run_cli(
            "basis", "--kind", kind, "-n", "3", "--format", "latex", capsys=capsys
        )
        assert code == 0
        assert out.splitlines()[3:-1] == rows

    def test_deterministic_output(self, capsys):
        _, first = run_cli("basis", "--kind", "ambigenic", "-n", "2", capsys=capsys)
        _, second = run_cli("basis", "--kind", "ambigenic", "-n", "2", capsys=capsys)
        assert first == second


class TestCheckCommand:
    def test_legendre_suite_passes(self, capsys):
        code, out = run_cli(
            "check", "--suite", "legendre", "--max-degree", "8", capsys=capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["metadata"]["failures"] == 0
        assert all(row[0] == "PASS" for row in doc["rows"])

    def test_theorem21_suite_passes(self, capsys):
        code, out = run_cli(
            "check", "--suite", "theorem21", "--max-degree", "6", capsys=capsys
        )
        assert code == 0

    def test_dims_suite_passes(self, capsys):
        code, out = run_cli(
            "check", "--suite", "dims", "--max-degree", "5", capsys=capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["metadata"]["checks"] == 6


class TestDimsCommand:
    def test_table_rows(self, capsys):
        code, out = run_cli("dims", "--max-degree", "3", "--format", "csv", capsys=capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "0,1,3,3,3,3,yes"
        assert lines[2] == "1,3,5,2,8,9,yes"
        assert lines[4] == "3,7,9,2,16,21,yes"


class TestGramCommand:
    def test_contragenic_gram_is_diagonal(self, capsys):
        code, out = run_cli(
            "gram", "--kind", "contragenic", "-n", "2", capsys=capsys
        )
        assert code == 0
        doc = json.loads(out)
        rows = doc["rows"]
        for i, row in enumerate(rows):
            for j, value in enumerate(row[1:]):
                if i == j:
                    assert value != "0*pi"
                else:
                    assert value == "0*pi"


class TestBergmanEvalCommand:
    def test_degree_zero_values(self, capsys):
        code, out = run_cli(
            "bergman-eval", "-n", "0", "--x", "0.1,0.2,0.3", "--y", "0,0,0", capsys=capsys
        )
        assert code == 0
        doc = json.loads(out)
        b1 = doc["rows"][0]
        assert b1[1] == pytest.approx(-3 / (4 * 3.141592653589793), rel=1e-12)
        assert b1[2] == 0.0

    def test_rejects_points_outside_ball(self, capsys):
        code, _ = run_cli(
            "bergman-eval", "-n", "0", "--x", "2,0,0", "--y", "0,0,0", capsys=capsys
        )
        assert code == 2


class TestQuadcheckCommand:
    def test_all_trials_pass(self, capsys):
        code, out = run_cli(
            "quadcheck", "--max-degree", "5", "--trials", "8", "--seed", "3",
            "--format", "csv", capsys=capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 8
        assert all(line.split(",")[1] == "PASS" for line in lines[1:])

    def test_deterministic_given_seed(self, capsys):
        args = ("quadcheck", "--max-degree", "4", "--trials", "3", "--seed", "7")
        _, first = run_cli(*args, capsys=capsys)
        _, second = run_cli(*args, capsys=capsys)
        assert first == second

    def test_undersized_rule_fails(self, capsys):
        code, _ = run_cli(
            "quadcheck", "--max-degree", "8", "--trials", "4", "--seed", "1",
            "--order", "2", capsys=capsys,
        )
        assert code == 1


X2E1_DOC = {
    "format-version": 1,
    "representation": "monomial",
    "terms": [{"component": 1, "a": 0, "b": 0, "c": 1, "coefficient": "1"}],
}


class TestDecomposeCommand:
    def write(self, tmp_path, payload) -> str:
        path = tmp_path / "field.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_x2e1_flow(self, tmp_path, capsys):
        path = self.write(tmp_path, X2E1_DOC)
        out_path = tmp_path / "result.json"
        code = main(["decompose", path, "--output", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert {"n": 1, "label": "Z0", "m": 0, "coefficient": "1/2"} in doc["coefficients"]
        assert doc["norms"]["total"] == "4/15*pi"
        assert doc["norms"]["ambigenic"] == "2/15*pi"

    def test_basis_coeffs_passthrough(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            {
                "format-version": 1,
                "representation": "basis-coeffs",
                "terms": [{"label": "X", "n": 2, "m": 1, "coefficient": "1"}],
            },
        )
        code, out = run_cli("decompose", path, capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["coefficients"] == [
            {"n": 2, "label": "X+", "m": 1, "coefficient": "1"}
        ]
        assert doc["contragenic"]["terms"] == []

    def test_non_harmonic_exits_one(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            {
                "format-version": 1,
                "representation": "monomial",
                "terms": [
                    {"component": 0, "a": 2, "b": 0, "c": 0, "coefficient": "1"}
                ],
            },
        )
        code = main(["decompose", path])
        captured = capsys.readouterr()
        assert code == 1
        assert "not harmonic" in captured.err
        assert "residual" in captured.err

    def test_unknown_label_exits_two(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            {
                "format-version": 1,
                "representation": "basis-coeffs",
                "terms": [{"label": "Q", "n": 1, "m": 0, "coefficient": "1"}],
            },
        )
        code = main(["decompose", path])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {**X2E1_DOC, "terms": [{**X2E1_DOC["terms"][0], "component": 1.9, "a": 1.7}]},
            {**X2E1_DOC, "terms": [{**X2E1_DOC["terms"][0], "c": 1.0}]},
            {**X2E1_DOC, "terms": [{**X2E1_DOC["terms"][0], "b": False}]},
            {**X2E1_DOC, "format-version": 1.0},
            {**X2E1_DOC, "format-version": True},
            {
                "format-version": 1,
                "representation": "basis-coeffs",
                "terms": [{"label": "X", "n": 2.0, "m": 1, "coefficient": "1"}],
            },
            {
                "format-version": 1,
                "representation": "basis-coeffs",
                "terms": [{"label": "X", "n": 2, "m": True, "coefficient": "1"}],
            },
        ],
        ids=["component-a", "c-float", "b-bool", "version-float", "version-bool",
             "n-float", "m-bool"],
    )
    def test_non_integer_fields_exit_two(self, tmp_path, capsys, payload):
        path = self.write(tmp_path, payload)
        code = main(["decompose", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_missing_file_exits_three(self, capsys):
        code = main(["decompose", "/nonexistent/nowhere.json"])
        capsys.readouterr()
        assert code == 3

    def test_degree_cap_exits_four(self, tmp_path, capsys):
        # without the cap the basis of degree 40 would be built first
        path = self.write(
            tmp_path,
            {
                "format-version": 1,
                "representation": "basis-coeffs",
                "terms": [{"label": "Z0", "n": 40, "m": 0, "coefficient": "1"}],
            },
        )
        code = main(["decompose", path])
        captured = capsys.readouterr()
        assert code == 4
        assert "cap" in captured.err

    def test_cap_override_lifts_the_cap(self, tmp_path, capsys):
        # x0^13 is past the cap and not harmonic: with the flag it reaches decompose
        path = self.write(
            tmp_path,
            {
                "format-version": 1,
                "representation": "monomial",
                "terms": [
                    {"component": 0, "a": 13, "b": 0, "c": 0, "coefficient": "1"}
                ],
            },
        )
        assert main(["decompose", path]) == 4
        code = main(["decompose", path, "--cap-override"])
        captured = capsys.readouterr()
        assert code == 1
        assert "not harmonic" in captured.err

    def test_non_utf8_exits_two(self, tmp_path, capsys):
        path = tmp_path / "field.json"
        path.write_bytes(b'{"format-version": 1, "terms": ["\xff\xfe"]}')
        code = main(["decompose", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "UTF-8" in captured.err

    def test_reconstruction_mismatch_exits_one(self, tmp_path, capsys, monkeypatch):
        real = cli.decompose

        def drop_contragenic(field):
            d = real(field)
            return dataclasses.replace(d, contragenic=VecField.zero())

        monkeypatch.setattr(cli, "decompose", drop_contragenic)
        path = self.write(tmp_path, X2E1_DOC)
        code = main(["decompose", path])
        captured = capsys.readouterr()
        assert code == 1
        assert "sum back" in captured.err
        assert captured.out == ""

    def test_parseval_mismatch_exits_one(self, tmp_path, capsys, monkeypatch):
        real = cli.norm_report

        def doubled_total(d):
            report = real(d)
            return dataclasses.replace(report, total_norm_sq=report.total_norm_sq.scale(2))

        monkeypatch.setattr(cli, "norm_report", doubled_total)
        path = self.write(tmp_path, X2E1_DOC)
        code = main(["decompose", path])
        captured = capsys.readouterr()
        assert code == 1
        assert "Parseval" in captured.err
        assert captured.out == ""


class TestExitCodes:
    def test_usage_error(self, capsys):
        code = main(["basis", "--kind", "nope", "-n", "1"])
        capsys.readouterr()
        assert code == 2

    def test_cap_exceeded(self, capsys):
        code = main(["check", "--suite", "dims", "--max-degree", "13"])
        capsys.readouterr()
        assert code == 4

    def test_cap_override(self, capsys):
        code = main(
            ["basis", "--kind", "UV", "-n", "13", "--cap-override"]
        )
        capsys.readouterr()
        assert code == 0

    def test_output_io_error(self, tmp_path, capsys):
        code = main(
            ["basis", "--kind", "UV", "-n", "1", "--output", str(tmp_path / "no" / "dir.json")]
        )
        capsys.readouterr()
        assert code == 3


def test_consecutive_in_process_calls_match_fresh_processes(capsys, monkeypatch):
    # main reuses one parser per process; parsing must leave it unchanged, so
    # every call answers as a fresh process does, usage errors included
    builds = []
    real = cli.build_parser

    def counting():
        builds.append(None)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._shared_parser.cache_clear()
    runs = [
        ["dims", "--max-degree", "2"],
        ["basis", "--kind", "nope", "-n", "1"],
        ["gram", "--kind", "UV", "-n", "1", "--format", "csv"],
    ]
    for argv in runs:
        code = main(list(argv))
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "contragenic.cli", *argv], capture_output=True, text=True
        )
        assert (code, captured.out, captured.err) == (
            fresh.returncode,
            fresh.stdout,
            fresh.stderr,
        ), argv
    assert [main(argv) for argv in (["check"], runs[0], runs[1])] == [2, 0, 2]
    capsys.readouterr()
    assert len(builds) == 1
    cli._shared_parser.cache_clear()


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "contragenic.cli", "dims", "--max-degree", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "matches_expected" in result.stdout


def test_cli_import_does_not_load_numpy():
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, contragenic.cli; assert 'numpy' not in sys.modules, 'numpy loaded'",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
