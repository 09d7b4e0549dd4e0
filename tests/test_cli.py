"""Command-line behavior: golden outputs, exit codes, JSON schema tag.

The exit-code contract is load-bearing for scripting: 0 success, 1 semantic
failure (order not reached, series mismatch), 2 usage or input errors.
TestFuzz holds the contract over argvs drawn from a small grammar.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from butcher_kit.cli import main
from butcher_kit.oracle import MAX_FIELD_DEGREE, MAX_POINT_DIGITS

FIXTURES = Path(__file__).parent / "fixtures"
RK4 = str(FIXTURES / "rk4.json")
EULER = str(FIXTURES / "explicit_euler.json")
BUTCHER6 = str(FIXTURES / "butcher6_u2-5_v1-3.json")
LINEAR = str(FIXTURES / "linear1d.json")
QUAD = str(FIXTURES / "quad1d.json")
ROTATION = str(FIXTURES / "rotation2d.json")


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

    def test_generic_order_12_names_the_twelfth_level(self, capsys):
        code, out, _ = run(capsys, "conditions", "--order", "12", "--generic")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7813
        assert "(sum_{i_{12}=1}^{s} a_{w,i_{12}})" in lines[-1]


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

    def test_point_too_long_to_read_meets_the_digit_cap(self, capsys):
        # The cap applies before any digit is converted, so a number too
        # long for Python to read gets the cap's message too.
        code, out, err = run(capsys, "oracle", LINEAR, "--x0", _TOO_LONG_TO_READ, "--p", "3")
        assert (code, out, err) == (
            2,
            "",
            f"error: point entry 1: numerator has more than {MAX_POINT_DIGITS} digits\n",
        )

    def test_malformed_point(self, capsys):
        code, _, err = run(capsys, "oracle", LINEAR, "--x0", "huh", "--p", "3")
        assert code == 2
        assert "error:" in err

    def test_point_digits_are_ascii(self, capsys):
        code, out, err = run(capsys, "oracle", ROTATION, "--x0", "1,\u0662", "--p", "3")
        assert (code, out, err) == (2, "", "error: point entry 2: malformed rational: '\u0662'\n")


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
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue()
            assert out.getvalue() == ""
