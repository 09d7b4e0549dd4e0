"""Command-line behavior: golden outputs, exit codes, JSON schema tag.

The exit-code contract is load-bearing for scripting: 0 success, 1 semantic
failure (order not reached, series mismatch), 2 usage or input errors.
"""

import json
from pathlib import Path

import pytest

from butcher_kit.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
RK4 = str(FIXTURES / "rk4.json")
EULER = str(FIXTURES / "explicit_euler.json")
BUTCHER6 = str(FIXTURES / "butcher6_u2-5_v1-3.json")
LINEAR = str(FIXTURES / "linear1d.json")
QUAD = str(FIXTURES / "quad1d.json")
ROTATION = str(FIXTURES / "rotation2d.json")


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

    def test_malformed_point(self, capsys):
        code, _, err = run(capsys, "oracle", LINEAR, "--x0", "huh", "--p", "3")
        assert code == 2
        assert "error:" in err


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
