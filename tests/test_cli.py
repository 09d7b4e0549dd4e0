"""Command-line behavior: golden outputs, exit codes, JSON schema tag.

The exit-code contract is load-bearing for scripting: 0 success, 1 semantic
failure (order not reached, series mismatch), 2 usage or input errors.
TestFuzz holds the contract over argvs drawn from a small grammar, and
holds main's two parse routes to the output of the full parser.
"""

import contextlib
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import A000081, main_by_full_parser, record_interns

from butcher_kit import cli
from butcher_kit.cli import _ORDER_CAP, main
from butcher_kit.oracle import MAX_FIELD_DEGREE, MAX_FIELD_DIM, MAX_POINT_DIGITS
from butcher_kit.trees import TreesByOrder

FIXTURES = Path(__file__).parent / "fixtures"
RK4 = str(FIXTURES / "rk4.json")
EULER = str(FIXTURES / "explicit_euler.json")
BUTCHER6 = str(FIXTURES / "butcher6_u2-5_v1-3.json")
LINEAR = str(FIXTURES / "linear1d.json")
QUAD = str(FIXTURES / "quad1d.json")
ROTATION = str(FIXTURES / "rotation2d.json")
MIDPOINT = str(FIXTURES / "implicit_midpoint.json")


_TOO_LONG_TO_PRINT = (
    f"error: a value has more than {sys.get_int_max_str_digits()} digits, too many to print;"
    " lower --p or use a shorter x0\n"
)
# A number one digit longer than Python reads from text, and the package's
# words for it, not Python's advice to raise the limit.
_TOO_LONG_TO_READ = "1" * (sys.get_int_max_str_digits() + 1)
_READ_REFUSAL = f"a number has more than {sys.get_int_max_str_digits()} digits, too many to read"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTrees:
    def test_bracket_listing_through_order_4(self, capsys):
        code, out, _ = run(capsys, "trees", "--order", "4")
        assert code == 0
        assert out.splitlines() == [
            "[]",
            "[[]]",
            "[[],[]]",
            "[[[]]]",
            "[[],[],[]]",
            "[[],[[]]]",
            "[[[],[]]]",
            "[[[[]]]]",
        ]

    def test_bracket_line_count_through_order_10(self, capsys):
        code, out, _ = run(capsys, "trees", "--order", "10")
        assert code == 0
        assert len(out.splitlines()) == 1205

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "trees", "--order", "3", "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert document["schema"] == "butcher-kit/1"
        assert document["max_order"] == 3
        assert document["total"] == 4
        assert document["orders"][2] == {
            "order": 3,
            "count": 2,
            "trees": ["[[],[]]", "[[[]]]"],
        }

    def test_rejects_nonpositive_order(self, capsys):
        code, _, err = run(capsys, "trees", "--order", "0")
        assert code == 2
        assert "--order" in err


class TestCount:
    def test_counts_through_order_6(self, capsys):
        code, out, _ = run(capsys, "count", "--order", "6")
        assert code == 0
        assert out == (
            "order 1: 1\n"
            "order 2: 1\n"
            "order 3: 2\n"
            "order 4: 4\n"
            "order 5: 9\n"
            "order 6: 20\n"
            "total: 37\n"
        )

    def test_counts_through_order_1(self, capsys):
        code, out, _ = run(capsys, "count", "--order", "1")
        assert code == 0
        assert out == "order 1: 1\ntotal: 1\n"

    @pytest.mark.parametrize("p", range(1, 13))
    def test_counts_equal_the_enumerated_forest(self, capsys, p):
        # count uses the counting recurrence; the forest checks it.
        forest = TreesByOrder(p)
        lines = [f"order {q}: {n}" for q, n in enumerate(forest.counts(), start=1)]
        expected = "\n".join([*lines, f"total: {forest.total()}"]) + "\n"
        assert run(capsys, "count", "--order", str(p)) == (0, expected, "")

    def test_counts_through_the_cap_are_a000081(self, capsys):
        code, out, _ = run(capsys, "count", "--order", str(_ORDER_CAP))
        assert code == 0
        assert out.splitlines() == [
            *(f"order {q}: {n}" for q, n in enumerate(A000081[:_ORDER_CAP], start=1)),
            f"total: {sum(A000081[:_ORDER_CAP])}",
        ]

    def test_builds_no_tree(self, capsys, monkeypatch, fresh_forest):
        built = record_interns(monkeypatch)
        code, out, _ = run(capsys, "count", "--order", "14")
        assert code == 0
        assert out.endswith(f"total: {sum(A000081[:14])}\n")
        assert built == [] and fresh_forest.trees == []


class TestConditions:
    def test_single_stage_first_order(self, capsys):
        code, out, _ = run(capsys, "conditions", "--order", "1", "--stages", "1")
        assert code == 0
        assert out == "b[1] == 1\n"

    def test_classical_explicit_four_stage_block(self, capsys):
        code, out, _ = run(
            capsys,
            "conditions", "--order", "4", "--stages", "4", "--explicit", "--subst-c",
        )
        assert code == 0
        assert out.splitlines() == [
            "b[1] + b[2] + b[3] + b[4] == 1",
            "b[2]*c[2] + b[3]*c[3] + b[4]*c[4] == 1/2",
            "b[2]*c[2]^2 + b[3]*c[3]^2 + b[4]*c[4]^2 == 1/3",
            "b[3]*c[2]*a[3,2] + b[4]*c[2]*a[4,2] + b[4]*c[3]*a[4,3] == 1/6",
            "b[2]*c[2]^3 + b[3]*c[3]^3 + b[4]*c[4]^3 == 1/4",
            "b[3]*c[2]*c[3]*a[3,2] + b[4]*c[2]*c[4]*a[4,2] + b[4]*c[3]*c[4]*a[4,3]"
            " == 1/8",
            "b[3]*c[2]^2*a[3,2] + b[4]*c[2]^2*a[4,2] + b[4]*c[3]^2*a[4,3] == 1/12",
            "b[4]*c[2]*a[3,2]*a[4,3] == 1/24",
        ]

    def test_latex_lines(self, capsys):
        code, out, _ = run(
            capsys, "conditions", "--order", "2", "--stages", "2", "--format", "latex"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "b_{1} + b_{2} = 1"
        assert lines[1].endswith("= \\frac{1}{2}")

    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys,
            "conditions", "--order", "4", "--stages", "4",
            "--explicit", "--subst-c", "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["schema"] == "butcher-kit/1"
        assert document["stages"] == 4
        assert document["explicit"] is True
        assert document["subst_c"] is True
        assert len(document["conditions"]) == 8
        assert sorted(entry["rhs"] for entry in document["conditions"]) == sorted(
            ["1", "1/2", "1/6", "1/24", "1/12", "1/3", "1/8", "1/4"]
        )

    def test_generic_single_node(self, capsys):
        code, out, _ = run(capsys, "conditions", "--order", "1", "--generic")
        assert code == 0
        assert out == "sum_{i=1}^{s} b_i == 1\n"

    def test_generic_includes_the_order_8_worked_line(self, capsys):
        code, out, _ = run(capsys, "conditions", "--order", "8", "--generic")
        assert code == 0
        worked = (
            "sum_{i=1}^{s} b_i (sum_{j=1}^{s} a_{i,j}) (sum_{j=1}^{s} a_{i,j}"
            " (sum_{k=1}^{s} a_{j,k}) (sum_{k=1}^{s} a_{j,k}"
            " (sum_{l=1}^{s} a_{k,l}))^2) == 1/192"
        )
        assert worked in out.splitlines()

    def test_stages_required_without_generic(self, capsys):
        code, _, err = run(capsys, "conditions", "--order", "2")
        assert code == 2
        assert "--stages" in err

    @pytest.mark.parametrize(
        "flags,named",
        [
            (("--stages", "1"), "--stages"),
            (("--explicit",), "--explicit"),
            (("--subst-c",), "--subst-c"),
            (("--format", "latex"), "--format latex"),
        ],
    )
    def test_generic_refuses_a_flag_it_would_ignore(self, capsys, flags, named):
        code, out, err = run(capsys, "conditions", "--order", "2", "--generic", *flags)
        assert code == 2
        assert out == ""
        assert err == f"error: --generic does not take {named}\n"

    def test_generic_json_matches_the_text_lines(self, capsys):
        code, text, _ = run(capsys, "conditions", "--order", "6", "--generic")
        assert code == 0
        code, out, err = run(
            capsys, "conditions", "--order", "6", "--generic", "--format", "json"
        )
        assert (code, err) == (0, "")
        document = json.loads(out)
        assert set(document) == {"schema", "max_order", "generic", "conditions"}
        assert document["schema"] == "butcher-kit/1"
        assert document["max_order"] == 6
        assert document["generic"] is True
        records = document["conditions"]
        # 1 + 1 + 2 + 4 + 9 + 20 rooted trees through order 6 (OEIS A000081).
        assert len(records) == 37
        assert all(set(record) == {"tree", "order", "lhs", "rhs"} for record in records)
        _, trees, _ = run(capsys, "trees", "--order", "6")
        assert [record["tree"] for record in records] == trees.splitlines()
        assert [f"{record['lhs']} == {record['rhs']}" for record in records] == (
            text.splitlines()
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("--generic",),
            ("--stages", "2"),
            ("--stages", "2", "--format", "latex"),
        ],
    )
    def test_text_output_formats_no_tree(self, capsys, monkeypatch, argv):
        # Only the JSON records name their trees; text formats none.
        def refuse(tree):
            raise AssertionError("format_tree called in text mode")

        monkeypatch.setattr("butcher_kit.cli.format_tree", refuse)
        code, out, err = run(capsys, "conditions", "--order", "4", *argv)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 8

    def test_generic_order_12_names_the_twelfth_level(self, capsys):
        code, out, _ = run(capsys, "conditions", "--order", "12", "--generic")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7813
        assert "(sum_{i_{12}=1}^{s} a_{w,i_{12}})" in lines[-1]


_FLAG_SETS = ((), ("--explicit",), ("--subst-c",), ("--explicit", "--subst-c"))


def _is_stdlib_json(out):
    """out is what json.dumps(indent=2) writes for the document it holds."""
    return out == json.dumps(json.loads(out), indent=2) + "\n"


class TestJsonWriter:
    # trees, conditions and verify write their lists record by record; the
    # bytes are the standard library's all the same.
    @pytest.mark.parametrize("p", range(1, 13))
    def test_trees(self, capsys, p):
        code, out, err = run(capsys, "trees", "--order", str(p), "--format", "json")
        assert (code, err) == (0, "")
        assert _is_stdlib_json(out)

    @pytest.mark.parametrize("p", range(1, 13))
    def test_generic_conditions(self, capsys, p):
        code, out, err = run(capsys, "conditions", "--order", str(p), "--generic", "--format", "json")
        assert (code, err) == (0, "")
        assert _is_stdlib_json(out)

    @pytest.mark.parametrize("flags", _FLAG_SETS)
    @pytest.mark.parametrize("stages", range(1, 4))
    @pytest.mark.parametrize("p", range(1, 6))
    def test_concrete_conditions(self, capsys, p, stages, flags):
        argv = ("conditions", "--order", str(p), "--stages", str(stages), *flags, "--format", "json")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert _is_stdlib_json(out)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("p", [1, 4, 5, 7])
    @pytest.mark.parametrize("tableau", [RK4, EULER, BUTCHER6, MIDPOINT])
    def test_verify(self, capsys, tableau, p, mode):
        # Orders that pass and orders that fail, in exact and float mode.
        argv = ("verify", tableau, "--max-order", str(p), "--mode", mode, "--format", "json")
        code, out, err = run(capsys, *argv)
        assert (code, err) in ((0, ""), (1, ""))
        assert _is_stdlib_json(out)

    _TEXTS = ['"', "\\", 'say "⊙\\"', "\x00\x1f\x7f\n\t\r\b\f", "⊙", "\U0001d4ae", "a/b"]

    def test_strings_are_the_stdlib_literals(self):
        for text in self._TEXTS:
            assert cli._string(text) == json.dumps(text)

    def test_streamed_list_is_the_stdlib_layout(self, capsys):
        for texts in (self._TEXTS, []):
            cli._emit_json({"n": 1, "on": True}, ("texts", map(cli._string, texts)))
            expected = {"schema": cli.SCHEMA, "n": 1, "on": True, "texts": texts}
            assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"

    def test_each_element_is_written_before_the_next_is_made(self, monkeypatch):
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        seen = []

        def elements():
            for text in ("a", "b", "c"):
                seen.append(out.getvalue())
                yield cli._string(text)

        cli._emit_json({}, ("texts", elements()))
        head = '{\n  "schema": "butcher-kit/1",\n  "texts": ['
        assert seen == [head, head + '\n    "a"', head + '\n    "a",\n    "b"']
        assert out.getvalue() == head + '\n    "a",\n    "b",\n    "c"\n  ]\n}\n'


class TestRefusals:
    # Every refusal of a streaming subcommand comes before its first byte
    # and before any tree is built.
    @pytest.mark.parametrize(
        "argv",
        [
            *(
                (*command, "--order", p)
                for p in ("0", "15")
                for command in (
                    ("trees",),
                    ("trees", "--format", "json"),
                    ("count",),
                    ("conditions", "--generic"),
                    ("conditions", "--generic", "--format", "json"),
                    ("conditions", "--stages", "2"),
                    ("conditions", "--stages", "2", "--format", "json"),
                )
            ),
            *(
                ("conditions", "--order", "3", *stages, *flags, "--format", fmt)
                for stages in ((), ("--stages", "0"), ("--stages", "101"))
                for flags in _FLAG_SETS
                for fmt in ("text", "latex", "json")
            ),
            *(
                ("conditions", "--order", p, "--stages", s, *flags, "--format", fmt)
                for p, s, flags in (
                    ("7", "5", ()),
                    ("9", "9", ("--explicit",)),
                    ("7", "13", ("--subst-c",)),
                    ("10", "10", ("--explicit", "--subst-c")),
                )
                for fmt in ("text", "latex", "json")
            ),
            *(
                ("conditions", "--order", "3", "--generic", *flag, "--format", fmt)
                for flag in (("--stages", "2"), ("--explicit",), ("--subst-c",))
                for fmt in ("text", "json")
            ),
            ("conditions", "--order", "3", "--generic", "--format", "latex"),
        ],
    )
    def test_exit_2_with_empty_stdout(self, capsys, fresh_forest, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert fresh_forest.trees == []


class TestSizeCaps:
    @pytest.mark.parametrize(
        "argv,fragment",
        [
            (("count", "--order", "20"), "--order must be <= 14"),
            (("trees", "--order", "15"), "--order must be <= 14"),
            (("conditions", "--order", "15", "--generic"), "--order must be <= 14"),
            (("verify", RK4, "--max-order", "15"), "--max-order must be <= 14"),
            (("conditions", "--order", "2", "--stages", "101"), "--stages must be <= 100"),
            (("conditions", "--order", "7", "--stages", "5"), "3,750,000 exceeds 1,000,000"),
            (("conditions", "--order", "9", "--stages", "9", "--explicit"), "exceeds 1,000,000"),
            (
                ("conditions", "--order", "10", "--stages", "10", "--explicit", "--subst-c"),
                "exceeds 10,000,000",
            ),
        ],
    )
    def test_refused_before_any_work(self, capsys, argv, fragment):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out == ""
        assert fragment in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("conditions", "--order", "6", "--stages", "6", "--explicit"),
            ("conditions", "--order", "6", "--stages", "5", "--subst-c"),
            ("conditions", "--order", "5", "--stages", "4"),
        ],
    )
    def test_accepted_below_the_caps(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out


class TestVerify:
    def test_rk4_exit_1_when_asking_for_5(self, capsys):
        code, out, _ = run(capsys, "verify", RK4, "--max-order", "5")
        assert code == 1
        assert "achieved order: 4" in out
        assert "1/120" in out

    def test_rk4_exit_0_with_lower_requirement(self, capsys):
        code, out, _ = run(
            capsys, "verify", RK4, "--max-order", "5", "--require-order", "4"
        )
        assert code == 0
        assert "achieved order: 4" in out

    def test_euler_exit_0_at_order_1(self, capsys):
        code, _, _ = run(capsys, "verify", EULER, "--max-order", "1")
        assert code == 0

    def test_butcher6_exit_0_at_order_5(self, capsys):
        code, _, _ = run(capsys, "verify", BUTCHER6, "--max-order", "5")
        assert code == 0

    def test_butcher6_exit_1_at_order_6(self, capsys):
        code, out, _ = run(capsys, "verify", BUTCHER6, "--max-order", "6")
        assert code == 1
        assert "achieved order: 5" in out

    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "verify", RK4, "--max-order", "5", "--format", "json"
        )
        assert code == 1
        document = json.loads(out)
        assert document["schema"] == "butcher-kit/1"
        assert document["tableau"] == "rk4"
        assert document["achieved_order"] == 4
        bushy = next(
            entry for entry in document["residuals"]
            if entry["tree"] == "[[],[],[],[]]"
        )
        assert bushy == {
            "tree": "[[],[],[],[]]",
            "order": 5,
            "weight": "5/24",
            "rhs": "1/5",
            "residual": "1/120",
            "pass": False,
        }

    def test_float_mode_flag(self, capsys, tmp_path):
        path = tmp_path / "near.json"
        path.write_text(json.dumps({
            "name": "near euler",
            "stages": 1,
            "A": [["0"]],
            "b": ["9999999999999999/10000000000000000"],
        }))
        exact_code, _, _ = run(capsys, "verify", str(path), "--max-order", "1")
        assert exact_code == 1
        float_code, out, _ = run(
            capsys, "verify", str(path), "--max-order", "1", "--mode", "float"
        )
        assert float_code == 0
        assert "tolerance 1e-12" in out

    def test_float_mode_zero_tolerance_passes_exact_residuals(self, capsys):
        # A residual equal to --tol passes: rk4's are 0 through order 4.
        code, out, err = run(
            capsys, "verify", RK4, "--max-order", "4", "--mode", "float", "--tol", "0"
        )
        assert (code, err) == (0, "")
        assert "achieved order: 4" in out

    def test_float_mode_overflowing_residual_fails_the_order(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"stages": 1, "A": [["0"]], "b": ["1" + "0" * 400]}))
        code, out, err = run(
            capsys, "verify", str(path), "--max-order", "1", "--mode", "float"
        )
        assert code == 1
        assert "achieved order: 0" in out
        assert "FAIL" in out
        assert err == ""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_value_too_long_to_print_names_verify_remedies(self, capsys, tmp_path, fmt):
        # A's entry reads, but at order 2 the residual 1/D - 1/2 has a
        # denominator 2D one digit longer than Python prints.  The refusal
        # names what verify takes, not the oracle's --p and x0, and comes
        # before any of the report.
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"stages": 1, "A": [["1/" + "9" * limit]], "b": ["1"]}))
        code, out, err = run(capsys, "verify", str(path), "--max-order", "2", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == (
            f"error: a value has more than {limit} digits, too many to print;"
            " lower --max-order or use shorter tableau entries\n"
        )

    @pytest.mark.parametrize("tol", ["inf", "1e400", "Infinity", "nan"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_non_finite_tolerance_is_usage_error(self, capsys, tol, fmt):
        # An infinite tolerance would pass every residual, and JSON has no
        # literal to write it.
        code, out, err = run(
            capsys, "verify", MIDPOINT, "--max-order", "3", "--mode", "float",
            "--tol", tol, "--format", fmt,
        )
        assert code == 2
        assert out == ""
        assert err == "error: --tol must be finite\n"

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "verify", "no-such.json", "--max-order", "2")
        assert code == 2
        assert "error:" in err

    def test_malformed_document_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"stages": 2, "A": [["0"]], "b": ["1", "0"]}')
        code, _, err = run(capsys, "verify", str(path), "--max-order", "2")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "document,message",
        [
            (
                {"stages": 1, "A": [[True]], "b": ["1"]},
                "A[1][1]: expected a rational, got a boolean",
            ),
            (
                {"stages": 1, "A": [["0"]], "b": [None]},
                "b[1]: expected a rational, got NoneType",
            ),
            (
                {"stages": 1, "A": [["0"]], "b": ["1"], "c": [[0]]},
                "c[1]: expected a rational, got list",
            ),
            (
                {"name": 4, "stages": 1, "A": [["0"]], "b": ["1"]},
                "'name' must be a string",
            ),
            # Digits are ASCII; Arabic-Indic numerals are not read as 1/2.
            (
                {"stages": 1, "A": [["\u0661/\u0662"]], "b": ["1"]},
                "A[1][1]: malformed rational: '\u0661/\u0662'",
            ),
            pytest.param(
                {"stages": 1, "A": [["0"]], "b": [_TOO_LONG_TO_READ]},
                f"b[1]: {_READ_REFUSAL}",
                id="entry-too-long-to-read",
            ),
        ],
    )
    def test_rejected_entry_is_input_error(self, capsys, tmp_path, document, message):
        path = tmp_path / "tableau.json"
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, "verify", str(path), "--max-order", "2")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("name", ["x\nachieved order: 9\ny", "lone \ud800 surrogate"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "{}", "--max-order", "2"),
            ("verify", "{}", "--max-order", "2", "--format", "json"),
            ("oracle", ROTATION, "--x0", "1,0", "--p", "2", "--tableau", "{}"),
        ],
        ids=["verify-text", "verify-json", "oracle"],
    )
    def test_name_that_is_not_printable_is_input_error(self, capsys, tmp_path, name, argv):
        # A forged "achieved order: 9" line would come first in the text
        # report, where scripts read the order; a lone surrogate cannot be
        # written to stdout at all.  Both are refused before any output.
        path = tmp_path / "tableau.json"
        path.write_text(json.dumps({"name": name, "stages": 1, "A": [["0"]], "b": ["1"]}))
        code, out, err = run(capsys, *(arg.format(path) for arg in argv))
        assert (code, out) == (2, "")
        assert err.startswith("error: 'name' holds a character that is not printable: ")

    def test_deeply_nested_document_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "verify", str(path), "--max-order", "2")
        assert code == 2
        assert out == ""
        assert err == "error: invalid JSON: nested too deeply\n"

    def test_requirement_above_max_order_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "verify", RK4, "--max-order", "3", "--require-order", "4"
        )
        assert code == 2
        assert "--require-order" in err


class TestOracle:
    def test_linear_flow_is_exponential(self, capsys):
        code, out, _ = run(capsys, "oracle", LINEAR, "--x0", "1", "--p", "6")
        assert code == 0
        lines = out.splitlines()
        assert "tau^6: (1/720)" in lines
        assert "flow trees vs picard: agree" in lines

    def test_quadratic_flow_is_geometric(self, capsys):
        code, out, _ = run(capsys, "oracle", QUAD, "--x0", "1", "--p", "5")
        assert code == 0
        lines = out.splitlines()
        for q in range(6):
            assert f"tau^{q}: (1)" in lines

    def test_rotation_with_rk4(self, capsys):
        code, out, _ = run(
            capsys, "oracle", ROTATION, "--x0", "1,0", "--p", "5",
            "--tableau", RK4,
        )
        assert code == 0
        lines = out.splitlines()
        assert "flow trees vs picard: agree" in lines
        assert "discrete trees vs direct: agree" in lines
        assert "flow vs discrete: first difference at degree 5" in lines

    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "oracle", ROTATION, "--x0", "1,0", "--p", "4",
            "--tableau", RK4, "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["schema"] == "butcher-kit/1"
        assert document["dim"] == 2
        assert document["x0"] == ["1", "0"]
        assert document["flow"]["agree"] is True
        assert document["flow"]["first_difference"] is None
        assert document["discrete"]["agree"] is True
        assert document["discrete"]["tableau"] == "rk4"
        # RK4 has order 4: no difference visible at degree 4.
        assert document["flow_vs_discrete_first_difference"] is None
        assert document["flow"]["trees"] == document["flow"]["picard"]

    def test_degree_cap(self, capsys):
        code, _, err = run(capsys, "oracle", LINEAR, "--x0", "1", "--p", "7")
        assert code == 2
        assert "between 0 and 6" in err

    def test_wrong_point_arity(self, capsys):
        code, _, err = run(capsys, "oracle", ROTATION, "--x0", "1", "--p", "3")
        assert code == 2
        assert "expected 2" in err

    def test_deeply_nested_document_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"dim": 1, "components": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = run(capsys, "oracle", str(path), "--x0", "1", "--p", "2")
        assert code == 2
        assert out == ""
        assert err == "error: invalid JSON: nested too deeply\n"

    @pytest.mark.parametrize(
        "component,message",
        [
            ("x1 + 1/0", "components[1]: zero denominator (at position 5)"),
            (
                "x1^100000",
                f"components[1]: degree 100000 exceeds the cap of {MAX_FIELD_DEGREE}"
                " (at position 0)",
            ),
            pytest.param(
                "x1^" + "9" * 5000,
                "components[1]: exponent has 5000 digits, more than 18 (at position 3)",
                id="exponent-of-5000-digits",
            ),
            # What stands where the grammar expects an operator is quoted as
            # written, and of two errors the first in reading order is named.
            ("x1 2", "components[1]: expected '+' or '-', found '2' (at position 3)"),
            ("x1 x2", "components[1]: expected '+' or '-', found 'x2' (at position 3)"),
            ("2 x1", "components[1]: expected '+' or '-', found 'x1' (at position 2)"),
            ("x1 ** x9", "components[1]: expected a factor, found '*' (at position 4)"),
            ("x1 + \u0661", "components[1]: unexpected character '\u0661' (at position 5)"),
            pytest.param(
                f"x1 - {_TOO_LONG_TO_READ}*x2",
                f"components[1]: {_READ_REFUSAL} (at position 5)",
                id="coefficient-too-long-to-read",
            ),
        ],
    )
    def test_malformed_component_is_positioned_input_error(
        self, capsys, tmp_path, component, message
    ):
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"dim": 2, "components": [component, "x1"]}))
        start = time.monotonic()
        code, out, err = run(capsys, "oracle", str(path), "--x0", "1/2,1/2", "--p", "3")
        assert time.monotonic() - start < 0.5
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_value_too_big_to_format_leaves_stdout_empty(self, capsys, tmp_path):
        # x0 is within the digit cap, but f(x0) = 10^-4356 has a denominator
        # of 4357 digits, beyond Python's integer-to-text limit: the error
        # comes after the series are computed, and no partial report may
        # reach stdout before it.
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"dim": 1, "components": ["x1^44"]}))
        start = time.monotonic()
        code, out, err = run(
            capsys, "oracle", str(path), "--x0", f"1/{10**99}", "--p", "1", "--tableau", RK4
        )
        assert time.monotonic() - start < 1
        assert (code, out, err) == (2, "", _TOO_LONG_TO_PRINT)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_value_too_long_to_print_names_the_limit(self, capsys, tmp_path, fmt):
        # x1^400 at x0 = 10^-30: the series compute, but from tau^1 on,
        # where f(x0) = 10^-12000, their denominators have more digits than
        # Python prints.  The message names the limit and what to shrink.
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"dim": 1, "components": ["x1^400"]}))
        code, out, err = run(
            capsys, "oracle", str(path), "--x0", f"1/{10**30}", "--p", "6",
            "--tableau", RK4, "--format", fmt,
        )
        assert (code, out, err) == (2, "", _TOO_LONG_TO_PRINT)

    def test_oversized_point_is_refused_before_any_work(self, capsys, tmp_path):
        # Without the digit cap on x0 this computed for seconds, then failed
        # to print its report.
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"dim": 1, "components": ["x1^2*x1^2*x1^2"]}))
        start = time.monotonic()
        code, out, err = run(
            capsys, "oracle", str(path), "--x0", f"1/{10**2200}", "--p", "6", "--tableau", RK4
        )
        assert time.monotonic() - start < 0.5
        assert (code, out, err) == (
            2,
            "",
            f"error: point entry 1: denominator has more than {MAX_POINT_DIGITS} digits\n",
        )

    def test_dim_above_the_cap_is_input_error(self, capsys, tmp_path):
        dim = MAX_FIELD_DIM + 1
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"dim": dim, "components": ["x1"] * dim}))
        code, out, err = run(capsys, "oracle", str(path), "--x0", ",".join(["1"] * dim), "--p", "1")
        assert (code, out, err) == (2, "", f"error: 'dim' must be <= {MAX_FIELD_DIM}\n")

    def test_dim_at_the_cap_is_accepted(self, capsys, tmp_path):
        dim = MAX_FIELD_DIM
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"dim": dim, "components": [f"x{i + 1}" for i in range(dim)]}))
        code, out, err = run(capsys, "oracle", str(path), "--x0", ",".join(["1"] * dim), "--p", "1")
        assert (code, err) == (0, "")
        assert "flow trees vs picard: agree" in out.splitlines()

    def test_point_too_long_to_read_meets_the_digit_cap(self, capsys):
        # The cap applies before any digit is converted, so a number too
        # long for Python to read gets the cap's message too.
        code, out, err = run(capsys, "oracle", LINEAR, "--x0", _TOO_LONG_TO_READ, "--p", "3")
        assert (code, out, err) == (
            2,
            "",
            f"error: point entry 1: numerator has more than {MAX_POINT_DIGITS} digits\n",
        )

    @pytest.mark.parametrize(
        "name,x0,shown",
        [
            ("quad1d", "-2/3", "x0: (-2/3)"),
            ("rotation2d", "-1,0", "x0: (-1, 0)"),
            ("rotation2d", "-1/2,-0.5", "x0: (-1/2, -1/2)"),
            ("linear1d", "-1", "x0: (-1)"),
        ],
    )
    def test_negative_first_entry_as_its_own_argument(self, capsys, name, x0, shown):
        field = str(FIXTURES / f"{name}.json")
        code, out, err = run(capsys, "oracle", field, "--x0", x0, "--p", "2")
        assert (code, err) == (0, "")
        assert shown in out.splitlines()
        assert run(capsys, "oracle", field, f"--x0={x0}", "--p", "2") == (code, out, err)
        assert run(capsys, "oracle", field, "--x", x0, "--p", "2") == (code, out, err)

    @pytest.mark.parametrize("argv", [["--x0"], ["--x0", "--p", "2"], ["--p", "2", "--x0"]])
    def test_x0_without_a_value_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "oracle", ROTATION, *argv)
        assert code == 2
        assert out == ""
        assert "argument --x0: expected one argument" in err

    def test_malformed_point(self, capsys):
        code, _, err = run(capsys, "oracle", LINEAR, "--x0", "huh", "--p", "3")
        assert code == 2
        assert "error:" in err

    def test_point_digits_are_ascii(self, capsys):
        code, out, err = run(capsys, "oracle", ROTATION, "--x0", "1,\u0662", "--p", "3")
        assert (code, out, err) == (2, "", "error: point entry 2: malformed rational: '\u0662'\n")


@pytest.mark.parametrize(
    "argv,document",
    [
        (("verify", "{path}", "--max-order", "1"), '{"stages": 1, "A": [["0"]], "b": [%s]}'),
        (("oracle", "{path}", "--x0", "1", "--p", "1"), '{"dim": %s, "components": ["x1"]}'),
    ],
    ids=["tableau-entry", "field-dim"],
)
def test_integer_literal_too_long_to_read_is_input_error(capsys, tmp_path, argv, document):
    # Python's own refusal would advise raising its digit limit.
    path = tmp_path / "document.json"
    path.write_text(document % _TOO_LONG_TO_READ)
    code, out, err = run(capsys, *(part.format(path=path) for part in argv))
    assert (code, out, err) == (2, "", f"error: {_READ_REFUSAL}\n")
    assert "set_int_max_str_digits" not in err


# Whole outputs, byte for byte, of the reports no perfbench digest covers.
# Each runs from the fixtures directory, so the field path printed is the
# fixture's bare name; "unnamed" is rk4 without its "name" field.
GOLDEN = Path(__file__).parent / "golden"
_RK4_FIVE = ("verify", "rk4.json", "--max-order", "5")
_ROTATION = ("oracle", "rotation2d.json", "--x0", "1,0", "--p", "5")
# The field with one variable per tree of order <= 6, at 0: each of its
# series' coefficients is 1/t! or b . Phi(t) on one tree's component.
_TREE_FIELD = (
    "oracle", "tree_field6.json", "--x0", ",".join(["0"] * 37), "--p", "6", "--tableau", "rk4.json"
)
# A degree-5 field of dim 6 at a point with no zero entry, so every
# derivative level through 5 has rows fed by many terms.
_WIDE = (
    "oracle", "wide6d.json", "--x0", "1/2,-2/3,3/2,-1,1/3,2", "--p", "6",
    "--tableau", "butcher6_u2-5_v1-3.json",
)
_WHOLE_OUTPUTS = {
    "verify_rk4_exact.txt": (1, _RK4_FIVE),
    "verify_rk4_exact.json": (1, _RK4_FIVE + ("--format", "json")),
    "verify_rk4_float.txt": (1, _RK4_FIVE + ("--mode", "float")),
    "verify_rk4_float.json": (1, _RK4_FIVE + ("--mode", "float", "--format", "json")),
    "oracle_rotation2d.txt": (0, _ROTATION),
    "oracle_rotation2d.json": (0, _ROTATION + ("--format", "json")),
    "oracle_rotation2d_rk4.txt": (0, _ROTATION + ("--tableau", "rk4.json")),
    "oracle_rotation2d_rk4.json": (0, _ROTATION + ("--tableau", "rk4.json", "--format", "json")),
    "oracle_rotation2d_unnamed.txt": (0, _ROTATION + ("--tableau", "unnamed")),
    "oracle_rotation2d_unnamed.json": (0, _ROTATION + ("--tableau", "unnamed", "--format", "json")),
    "conditions_3_2.tex": (0, ("conditions", "--order", "3", "--stages", "2", "--format", "latex")),
    "oracle_tree_field6_rk4.txt": (0, _TREE_FIELD),
    "oracle_tree_field6_rk4.json": (0, _TREE_FIELD + ("--format", "json")),
    "oracle_wide6d_butcher6.txt": (0, _WIDE),
    "oracle_wide6d_butcher6.json": (0, _WIDE + ("--format", "json")),
}
# verify on a tableau without c, whose c is the row sums of A, and on one
# with c, each in both modes and both formats; both fail their last order.
_WHOLE_OUTPUTS.update(
    {
        f"verify_{name}_{mode}.{ext}": (
            1, ("verify", fixture, "--max-order", order, "--mode", mode) + format_flags
        )
        for name, fixture, order in (
            ("extrapolated_euler_123", "extrapolated_euler_123.json", "4"),
            ("butcher6", "butcher6_u2-5_v1-3.json", "6"),
        )
        for mode in ("exact", "float")
        for ext, format_flags in (("txt", ()), ("json", ("--format", "json")))
    }
)


# SHA-256 of the stdout of every conditions and trees run the benchmark
# checks, keyed by its argv joined with spaces.
DIGESTS = json.loads((Path(__file__).parents[1] / "perfbench" / "digests.json").read_text())


class TestWholeOutput:
    @pytest.mark.parametrize("key", sorted(DIGESTS))
    def test_matches_benchmark_digest(self, capsys, key):
        code, out, err = run(capsys, *key.split(" "))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[key]

    @pytest.mark.parametrize("name", sorted(_WHOLE_OUTPUTS))
    def test_matches_golden_file(self, capsys, monkeypatch, tmp_path, name):
        unnamed = json.loads((FIXTURES / "rk4.json").read_text())
        del unnamed["name"]
        (tmp_path / "unnamed.json").write_text(json.dumps(unnamed))
        expected_code, argv = _WHOLE_OUTPUTS[name]
        argv = [str(tmp_path / "unnamed.json") if part == "unnamed" else part for part in argv]
        monkeypatch.chdir(FIXTURES)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (expected_code, "")
        assert out == (GOLDEN / name).read_text()


def _cli(argv, **options):
    """The CLI as its own process, with this checkout's package on the path."""
    paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.Popen(
        [sys.executable, "-m", "butcher_kit.cli", *argv], env=env, cwd=FIXTURES, **options
    )


class TestClosedStdout:
    # A reader that stops early, as `| head -1` does, closes the pipe.  The
    # rest of the output is dropped without a word on stderr, and the exit
    # code stays the run's own.
    def test_reader_leaves_after_the_first_line(self):
        # Far more output than a pipe buffers, so the writer meets the close.
        with _cli(["trees", "--order", "12"], stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"[]\n"
            proc.stdout.close()
            assert (proc.wait(timeout=60), proc.stderr.read()) == (0, b"")

    @pytest.mark.parametrize(
        "argv, first",
        [
            (("trees", "--order", "12", "--format", "json"), b"{\n"),
            (("conditions", "--order", "12", "--generic"), b"sum_{i=1}^{s} b_i == 1\n"),
            (("conditions", "--order", "12", "--generic", "--format", "json"), b"{\n"),
        ],
    )
    def test_reader_leaves_a_streamed_list_after_the_first_line(self, argv, first):
        with _cli(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == first
            proc.stdout.close()
            assert (proc.wait(timeout=60), proc.stderr.read()) == (0, b"")

    @pytest.mark.parametrize(
        "code, argv",
        [
            (0, ("trees", "--order", "3")),
            (0, ("count", "--order", "3")),
            (0, ("conditions", "--order", "3", "--generic", "--format", "json")),
            (0, ("verify", "rk4.json", "--max-order", "4")),
            (1, ("verify", "rk4.json", "--max-order", "5")),
            (0, ("oracle", "rotation2d.json", "--x0", "1,0", "--p", "3", "--tableau", "rk4.json")),
        ],
    )
    def test_reader_gone_before_the_first_byte(self, code, argv):
        read, write = os.pipe()
        os.close(read)
        try:
            with _cli(argv, stdout=write, stderr=subprocess.PIPE) as proc:
                assert (proc.wait(timeout=60), proc.stderr.read()) == (code, b"")
        finally:
            os.close(write)


class TestArgumentHandling:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["trees"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "trees" in out and "verify" in out and "oracle" in out


class _FullParserBuilt(Exception):
    pass


class TestParseRoutes:
    # main builds the full parser only for an argv the option table does
    # not read: no subcommand first, or a spelling the reader leaves over.
    # Each deferred argv names a subcommand.
    _DEFERRED = (
        ["count", "-h"],
        ["count", "--ord", "3"],
        ["count", "--", "--order", "3"],
        ["count", "--order", "3", "--order", "4"],
        ["count", "--order", "-3"],
        ["count", "--order", "x"],
        ["count", "--order"],
        ["count"],
        ["count", "--order", "3", "x"],
        ["trees", "--order", "3", "--format", "xml"],
        ["conditions", "--order", "3", "--explicit=1"],
        ["conditions", "--order", "3", "--generic", "--generic"],
        ["verify", "--max-order", "3"],
        ["verify", RK4, RK4, "--max-order", "3"],
        ["oracle", LINEAR, "--x0", "--p", "2"],
    )

    def test_a_subcommand_is_parsed_without_the_full_parser(self, capsys, monkeypatch):
        def refuse():
            raise _FullParserBuilt

        monkeypatch.setattr(cli, "build_parser", refuse)
        expected = "order 1: 1\norder 2: 1\norder 3: 2\ntotal: 4\n"
        assert run(capsys, "count", "--order", "3") == (0, expected, "")
        assert run(capsys, "count", "--order=3") == (0, expected, "")
        for argv in ([], ["frobnicate"], ["-h"], ["--order", "3", "count"], *self._DEFERRED):
            with pytest.raises(_FullParserBuilt):
                main(argv)

    def test_build_parser_takes_no_argument_and_parses_every_subcommand(self):
        # perfbench's tracer wraps cli.build_parser as a function of no
        # argument and times parse_args on the parser it returns.
        assert inspect.signature(cli.build_parser).parameters == {}
        canonical = {
            "trees": ["--order", "3"],
            "count": ["--order", "3"],
            "conditions": ["--order", "3", "--generic"],
            "verify": [RK4, "--max-order", "3"],
            "oracle": [LINEAR, "--x0", "1", "--p", "2"],
        }
        assert list(canonical) == list(cli._COMMANDS)
        others = (
            ["count", "--order=3"],
            ["trees", "--format=json", "--order", "3"],
            ["conditions", "--explicit", "--order", "4", "--subst-c", "--stages=2", "--format", "latex"],
            ["verify", "--max-order=3", "--tol=0.5", RK4, "--mode", "float", "--require-order", "2"],
            ["oracle", "--p", "2", "--tableau", RK4, "--x0=-1,0", ROTATION, "--format=json"],
        )
        for argv in (*([name, *argv] for name, argv in canonical.items()), *others):
            assert vars(cli._read_argv(argv)) == vars(cli.build_parser().parse_args(argv)), argv

    def test_each_read_and_each_full_parser_is_fresh(self):
        # The tracer wraps build_parser and patches the parser it returns,
        # so that one must stay fresh on every call.
        argv = ["conditions", "--order", "3", "--generic"]
        assert cli._read_argv(argv) is not cli._read_argv(argv)
        assert cli.build_parser() is not cli.build_parser()

    # Each argv with its exit code, in an order where a run leaves out an
    # option the run before gave, so that nothing a run parsed may leak
    # into the next.
    _SEQUENCE = (
        (0, ["verify", RK4, "--max-order", "5", "--require-order", "4"]),
        (1, ["verify", RK4, "--max-order", "5"]),
        (2, ["verify", RK4, "--max-order"]),
        (0, ["verify", "-h"]),
        (0, ["conditions", "--order", "3", "--stages", "2", "--subst-c"]),
        (0, ["conditions", "--order", "3", "--stages", "2"]),
        (2, ["conditions", "--order", "3", "--bogus"]),
        (0, ["oracle", ROTATION, "--x0", "1,0", "--p", "3", "--tableau", RK4]),
        (0, ["oracle", ROTATION, "--x0", "1,0", "--p", "3"]),
        (0, ["trees", "--order", "2", "--format", "json"]),
        (0, ["trees", "--order", "2"]),
    )

    def test_runs_in_one_process_read_as_in_fresh_processes(self, monkeypatch):
        # argparse wraps usage and help to the terminal's width, here and
        # in the child.
        monkeypatch.setenv("COLUMNS", "80")
        for code, argv in self._SEQUENCE:
            kept = _outputs(main, argv)
            with _cli(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
                out, err = proc.communicate(timeout=60)
            assert kept == (proc.returncode, out, err), argv
            assert kept[0] == code, argv


# -- fuzzing ---------------------------------------------------------------

# Sizes are mostly in range but small, so that every argv runs in
# milliseconds; the rest are out of range on either side (above every cap:
# orders 14, --p 6, --stages 100), or not numbers.
def _sizes(largest):
    in_range = st.integers(1, largest).map(str)
    return st.one_of(
        in_range,
        in_range,
        st.integers(-2, 0).map(str),
        st.integers(101, 10**9).map(str),
        st.sampled_from(["", "x", "1.5"]),
    )


def _formats(*valid):
    return st.sampled_from([*valid, "xml"])


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-2, 2),
    st.sampled_from(["0", "1", "1/2", "-1/3", "0.25", "1/0", "x1", "x", ""]),
)
_KEYS = st.sampled_from(["name", "stages", "A", "b", "c", "dim", "components", "extra"])
_ANY_JSON = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_KEYS, kids, max_size=5),
    max_leaves=10,
)
_ENTRIES = st.lists(_SCALARS, max_size=3)
_TABLEAU_LIKE = st.fixed_dictionaries(
    {"stages": st.integers(1, 3) | _SCALARS, "A": st.lists(_ENTRIES, max_size=3), "b": _ENTRIES},
    optional={"c": _ENTRIES, "name": _SCALARS, "extra": _SCALARS},
)
_COMPONENT = st.lists(
    st.sampled_from(["x1", "x2", "x1^2", "x2^0", "x3", "1/2", "3", "1/0", "+", "-", "*", " ", "("]),
    max_size=6,
).map("".join)
_FIELD_LIKE = st.fixed_dictionaries(
    {
        "dim": st.integers(1, 2) | _SCALARS,
        "components": st.lists(_COMPONENT | _SCALARS, max_size=3),
    },
    optional={"extra": _SCALARS},
)
# Inputs that fail late or deep: at x0 = 10^-2200 the series of x1^2 holds
# a value too big to format from degree 1 on, found only after the series
# are computed; an exponent of 5000 digits is too long for int() to read.
_TINY_POINT = f"1/{10**2200}"
_EDGE_FIELDS = st.sampled_from(
    [json.dumps({"dim": 1, "components": [text]}) for text in ("x1^2", "x1 + x1^" + "9" * 5000)]
)
_MALFORMED = st.sampled_from(["", "{", "[1, 2]", "null", "[" * 5000 + "]" * 5000])
_RATIONALS = st.sampled_from(["1", "0", "-1/2", "0.5", "1/0", "x", "", " 2 "])
_POINTS = st.one_of(
    st.sampled_from(["1", "1/2", "1,0", "-1/2,1"]),
    st.lists(_RATIONALS, min_size=1, max_size=3).map(",".join),
)
_TABLEAUS = ["explicit_euler.json", "implicit_midpoint.json", "rk4.json", "butcher6_u2-5_v1-3.json"]
_FIELDS = ["linear1d.json", "quad1d.json", "rotation2d.json", "mixed2d.json"]


def _document(shaped):
    return st.one_of(
        shaped.map(json.dumps), _ANY_JSON.map(json.dumps), _MALFORMED, st.text(max_size=30)
    )


def _path(fixtures, written):
    return st.sampled_from([str(FIXTURES / name) for name in fixtures] + ["no-such.json", written])


def _argv(*parts):
    """Each part is a strategy for a list of tokens; the argv joins them."""
    return st.tuples(*parts).map(lambda lists: [token for tokens in lists for token in tokens])


def _option(flag, values):
    """The flag with one drawn value, or nothing."""
    return st.one_of(st.just([]), values.map(lambda value: [flag, value]))


def _commands(tableau_path, field_path, edge_path):
    tableau = _path(_TABLEAUS, tableau_path)
    return st.one_of(
        _argv(
            _path(_FIELDS, field_path).map(lambda path: ["oracle", path]),
            _POINTS.map(lambda point: ["--x0", point]),
            _sizes(6).map(lambda p: ["--p", p]),
            _option("--tableau", tableau),
            _option("--format", _formats("text", "json")),
        ),
        _argv(
            tableau.map(lambda path: ["verify", path]),
            _sizes(8).map(lambda p: ["--max-order", p]),
            _option("--require-order", _sizes(8)),
            _option("--mode", st.sampled_from(["exact", "float", "fuzzy"])),
            _option("--tol", st.sampled_from(["0", "1e-12", "-1", "inf", "nan", "x"])),
            _option("--format", _formats("text", "json")),
        ),
        _argv(
            _sizes(5).map(lambda p: ["conditions", "--order", p]),
            _option("--stages", _sizes(3)),
            _option("--format", _formats("text", "latex", "json")),
            st.lists(st.sampled_from(["--explicit", "--subst-c", "--generic"]), max_size=3),
        ),
        _argv(_sizes(7).map(lambda p: ["count", "--order", p])),
        _argv(
            _sizes(6).map(lambda p: ["trees", "--order", p]),
            _option("--format", _formats("bracket", "json")),
        ),
        _argv(
            st.just(["oracle", edge_path, "--x0", _TINY_POINT]),
            st.integers(0, 6).map(lambda p: ["--p", str(p)]),
            _option("--tableau", tableau),
            _option("--format", _formats("text", "json")),
        ),
    )


# Words put anywhere in a drawn argv: a subcommand's name, options of the
# full parser, of a subcommand's or of none, a bare "--", stray values, and
# options in the spellings main reads (--order=3) or defers (--explicit=1),
# which give a flag twice where the argv already has it.
_JUNK = st.sampled_from(
    [
        "extra", "--", "-h", "--help", "-x", "--bogus", "--ord", "--order", "3", "-1,0", "--x", "@x", "",
        "--order=3", "--format=json", "--explicit=1", "--x0=-1,0", "--tol=nan", "-3", "--generic",
        *cli._COMMANDS,
    ]
)
# The documents written for each test: a tableau, a field and an edge field.
_DOCUMENTS = st.tuples(_document(_TABLEAU_LIKE), _document(_FIELD_LIKE), _EDGE_FIELDS)
_PLACEHOLDERS = ("<tableau>", "<field>", "<edge>")


def _outputs(entry, argv):
    """(exit code, stdout, stderr) of entry(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(argv)
    return code, out.getvalue(), err.getvalue()


def _route_examples(*argvs):
    """An example of the route test for each argv, with no junk added."""

    def decorate(test):
        for argv in reversed(argvs):
            test = example(documents=("", "", ""), argv=argv.split(" "), junk=[])(test)
        return test

    return decorate


class TestFuzz:
    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_exit_code_contract(self, tmp_path, data):
        tableau_path, field_path = tmp_path / "tableau.json", tmp_path / "field.json"
        tableau_path.write_text(data.draw(_document(_TABLEAU_LIKE), label="tableau document"))
        field_path.write_text(data.draw(_document(_FIELD_LIKE), label="field document"))
        edge_path = tmp_path / "edge.json"
        edge_path.write_text(data.draw(_EDGE_FIELDS, label="edge field document"))
        argv = data.draw(
            _commands(str(tableau_path), str(field_path), str(edge_path)), label="argv"
        )
        code, out, err = _outputs(main, argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert err
            assert out == ""

    @pytest.mark.parametrize("columns", ["80", "200"])
    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(
        documents=_DOCUMENTS,
        argv=_commands(*_PLACEHOLDERS),
        junk=st.lists(st.tuples(st.integers(0, 12), _JUNK), max_size=3),
    )
    @_route_examples(
        "trees --order 3 extra",
        "count --order 4 count",
        "--order 3 count",
        "trees --ord 3",
        "trees -- --order 3",
        "count --order",
        *(f"{name} -h" for name in cli._COMMANDS),
        "oracle f.json --x -1,0 --p 2",
        "count --order=3",
        "count --order 3 --order 4",
        "count --order -3",
        "conditions --order 3 --explicit=1",
        "verify <tableau> --max-order 3 --tol=nan",
        "oracle <field> --x0=-1,0 --p 2",
    )
    def test_parse_routes_match_the_full_parser(
        self, monkeypatch, tmp_path, columns, documents, argv, junk
    ):
        # argparse wraps usage and help to the terminal's width.
        monkeypatch.setenv("COLUMNS", columns)
        paths = {name: tmp_path / f"{name[1:-1]}.json" for name in _PLACEHOLDERS}
        for name, document in zip(_PLACEHOLDERS, documents):
            paths[name].write_text(document)
        argv = [str(paths.get(token, token)) for token in argv]
        for position, token in junk:
            argv.insert(position, token)
        assert _outputs(main, argv) == _outputs(main_by_full_parser, argv)
