"""Tableau loading and order-verification checks.

Core claims:
  * frozen residuals hold: explicit Euler leaves -1/2 at order 2, RK4 is
    exactly order 4 with residual 1/120 on the order-5 bushy tree;
  * every member of the 6-stage two-parameter family has order exactly 5;
  * direct exact evaluation of weights agrees with the polynomial route
    (generate raw or c-substituted condition, bind A, b and the row sums,
    evaluate), on fixed and on random explicit and implicit tableaus;
  * c never enters the residuals; inconsistent c is only flagged;
  * the loader gives distinct diagnostics for dimension mismatches,
    malformed rationals, duplicate and unknown fields.
"""

import dataclasses
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import BUTCHER6_SAMPLES, butcher6, explicit_euler, implicit_midpoint, rk4

from butcher_kit.algebra import a_var, b_var, c_var
from butcher_kit.conditions import GenerationFlags, elementary_weight
from butcher_kit.trees import enumerate_by_leaf, from_children, parse_tree, single_node
from butcher_kit.verify import (
    ButcherTableau,
    TableauError,
    load_tableau,
    residual,
    verify_order,
    weight_value,
    weight_vector_values,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _bushy(q):
    return from_children([single_node()] * (q - 1))


@st.composite
def _random_tableaus(draw):
    """Rational tableaus of 1-3 stages, explicit or implicit."""
    stages = draw(st.integers(1, 3))
    explicit = draw(st.booleans())
    entries = st.fractions(-2, 2, max_denominator=5)
    a = [
        [draw(entries) if j < i or not explicit else 0 for j in range(stages)]
        for i in range(stages)
    ]
    b = [draw(entries) for _ in range(stages)]
    return ButcherTableau.from_rows("random", a, b)


def _chain(q):
    tree = single_node()
    for _ in range(q - 1):
        tree = from_children([tree])
    return tree


class TestLoading:
    def test_rk4_file_round_trip(self):
        loaded = load_tableau((FIXTURES / "rk4.json").read_text())
        assert loaded == rk4()
        assert loaded.explicit
        assert loaded.row_sum_consistent

    def test_mapping_source(self):
        document = {"stages": 1, "A": [["1/2"]], "b": ["1"], "c": ["1/2"]}
        loaded = load_tableau(document)
        assert loaded == dataclasses.replace(implicit_midpoint(), name="")

    def test_c_defaults_to_row_sums(self):
        loaded = load_tableau((FIXTURES / "explicit_euler.json").read_text())
        assert loaded.c == (Fraction(0),)
        assert loaded.row_sum_consistent

    def test_integer_entries_are_exact(self):
        loaded = load_tableau({"stages": 1, "A": [[0]], "b": [1]})
        assert loaded.b == (Fraction(1),)

    def test_decimal_strings_are_exact(self):
        loaded = load_tableau({"stages": 1, "A": [["0.5"]], "b": ["1"]})
        assert loaded.a[0][0] == Fraction(1, 2)

    @pytest.mark.parametrize(
        "document,fragment",
        [
            ({"stages": 2, "A": [["0", "0"]], "b": ["1", "0"]}, "rows"),
            ({"stages": 2, "A": [["0"], ["0", "0"]], "b": ["1", "0"]}, "A[1]"),
            ({"stages": 2, "A": [["0", "0"], ["0", "0"]], "b": ["1"]}, "'b'"),
            ({"stages": 1, "A": [["0"]], "b": ["1"], "c": []}, "'c'"),
            ({"stages": 1, "A": [["1/0"]], "b": ["1"]}, "A[1][1]"),
            ({"stages": 1, "A": [["zzz"]], "b": ["1"]}, "malformed rational"),
            ({"stages": 1, "A": [[0.5]], "b": ["1"]}, "floats are not exact"),
            ({"stages": 1, "A": [["0"]], "b": ["1"], "badkey": 1}, "unknown fields"),
            ({"A": [["0"]], "b": ["1"]}, "missing field"),
            ({"stages": True, "A": [["0"]], "b": ["1"]}, "integer"),
            ({"stages": 0, "A": [], "b": []}, ">= 1"),
            ({"stages": 1, "A": "oops", "b": ["1"]}, "list of rows"),
        ],
    )
    def test_distinct_diagnostics(self, document, fragment):
        with pytest.raises(TableauError) as err:
            load_tableau(document)
        assert fragment in str(err.value)

    def test_duplicate_field_in_json_text(self):
        text = '{"stages": 1, "A": [["0"]], "b": ["1"], "b": ["1"]}'
        with pytest.raises(TableauError, match="duplicate field"):
            load_tableau(text)

    def test_invalid_json_text(self):
        with pytest.raises(TableauError, match="invalid JSON"):
            load_tableau("{not json")

    def test_non_object_document(self):
        with pytest.raises(TableauError, match="JSON object"):
            load_tableau("[1, 2]")

    def test_explicit_detection(self):
        assert explicit_euler().explicit
        assert rk4().explicit
        assert not implicit_midpoint().explicit


class TestResiduals:
    def test_first_condition_everywhere(self):
        # weight([]) is sum(b); all four fixtures are consistent methods.
        for tableau in (explicit_euler(), implicit_midpoint(), rk4(), butcher6(1, 1)):
            assert residual(tableau, single_node()) == 0

    def test_explicit_euler_order_2_residual(self):
        assert residual(explicit_euler(), parse_tree("[[]]")) == Fraction(-1, 2)

    def test_rk4_bushy_order5_residual(self):
        bushy = _bushy(5)
        assert weight_value(rk4(), bushy) == Fraction(5, 24)
        assert residual(rk4(), bushy) == Fraction(1, 120)

    def test_rk4_chain5_is_nilpotent(self):
        assert weight_value(rk4(), _chain(5)) == 0
        assert residual(rk4(), _chain(5)) == Fraction(-1, 120)

    def test_weight_vector_of_one_leaf_child_is_row_sums(self):
        assert weight_vector_values(rk4(), parse_tree("[[]]")) == rk4().row_sums()

    def test_explicit_chain_beyond_stages_has_zero_weight(self):
        for tableau in (explicit_euler(), rk4(), butcher6(Fraction(2, 5), Fraction(1, 3))):
            assert weight_value(tableau, _chain(tableau.stages + 1)) == 0

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(tableau=_random_tableaus())
    @example(tableau=rk4())
    @example(tableau=implicit_midpoint())
    @example(tableau=butcher6(Fraction(1, 2), Fraction(1, 4)))
    def test_direct_evaluation_matches_polynomial_route(self, tableau):
        # The same Phi recursion runs over Fractions here and over
        # CoeffPolynomial variables in conditions; binding the variables to
        # the tableau must give the same weights, in the raw form and, with
        # c[i] bound to the row sums, in the substitute_c form.
        s = tableau.stages
        binding = {b_var(i): tableau.b[i - 1] for i in range(1, s + 1)}
        binding.update(
            {
                a_var(i, j): tableau.a[i - 1][j - 1]
                for i in range(1, s + 1)
                for j in range(1, s + 1)
            }
        )
        with_c = dict(binding)
        with_c.update({c_var(i): tableau.row_sums()[i - 1] for i in range(1, s + 1)})
        raw = GenerationFlags(explicit=tableau.explicit)
        subst_c = GenerationFlags(explicit=tableau.explicit, substitute_c=True)
        for tree in enumerate_by_leaf(5):
            direct = weight_value(tableau, tree)
            via_poly = elementary_weight(tree, s, raw).substitute(binding)
            assert via_poly.evaluate_constant() == direct
            via_c = elementary_weight(tree, s, subst_c).substitute(with_c)
            assert via_c.evaluate_constant() == direct


class TestVerifyOrder:
    def test_rk4_achieves_exactly_4(self):
        report = verify_order(rk4(), 5)
        assert report.achieved_order == 4
        assert report.requested_order == 5
        # All 17 trees of order <= 5 are reported: the failing order stays
        # fully visible.
        assert len(report.residuals) == 17
        assert all(e.passed for e in report.residuals if e.order <= 4)
        assert any(not e.passed for e in report.residuals if e.order == 5)

    def test_rk4_passes_when_asked_exactly_4(self):
        report = verify_order(rk4(), 4)
        assert report.achieved_order == 4
        assert all(e.passed for e in report.residuals)

    def test_explicit_euler_order_1(self):
        report = verify_order(explicit_euler(), 3)
        assert report.achieved_order == 1
        assert [e.order for e in report.residuals] == [1, 2]
        assert report.residuals[1].residual == Fraction(-1, 2)

    def test_implicit_midpoint_order_2(self):
        report = verify_order(implicit_midpoint(), 3)
        assert report.achieved_order == 2

    def test_butcher6_family_is_order_5_at_three_samples(self):
        start = time.monotonic()
        for u, v in BUTCHER6_SAMPLES:
            tableau = butcher6(u, v)
            assert tableau.row_sum_consistent
            report = verify_order(tableau, 6)
            assert report.achieved_order == 5
        assert time.monotonic() - start < 10.0

    def test_scaled_b_breaks_the_first_condition(self):
        base = rk4()
        scaled = ButcherTableau(
            name="rk4 scaled",
            a=base.a,
            b=tuple(2 * x for x in base.b),
            c=base.c,
        )
        report = verify_order(scaled, 4)
        assert report.achieved_order == 0
        assert len(report.residuals) == 1
        assert report.residuals[0].residual == 1

    def test_c_has_no_effect_on_residuals(self):
        base = rk4()
        skewed = ButcherTableau(name="rk4 bad c", a=base.a, b=base.b, c=(Fraction(9),) * 4)
        baseline = verify_order(base, 5)
        report = verify_order(skewed, 5)
        assert not report.row_sum_consistent
        assert report.achieved_order == baseline.achieved_order
        assert [e.residual for e in report.residuals] == [
            e.residual for e in baseline.residuals
        ]

    def test_float_mode_tolerates_tiny_error(self):
        close = ButcherTableau.from_rows(
            "almost euler", [["0"]], ["9999999999999999/10000000000000000"]
        )
        assert verify_order(close, 1, mode="exact").achieved_order == 0
        assert verify_order(close, 1, mode="float").achieved_order == 1
        assert verify_order(close, 1, mode="float", tol=1e-20).achieved_order == 0

    def test_float_mode_residual_beyond_float_range_is_infinite(self):
        huge = ButcherTableau.from_rows("huge b", [["0"]], ["1" + "0" * 400])
        report = verify_order(huge, 1, mode="float")
        assert report.achieved_order == 0
        assert not report.residuals[0].passed
        assert report.residuals[0].residual == 10**400 - 1
        assert verify_order(huge, 1, mode="float", tol=math.inf).achieved_order == 1

    def test_invalid_requests(self):
        with pytest.raises(TableauError):
            verify_order(rk4(), 0)
        with pytest.raises(TableauError):
            verify_order(rk4(), 3, mode="fuzzy")


class TestReportShapes:
    def test_text_rendering(self):
        text = verify_order(rk4(), 5).render_text()
        assert "tableau: rk4 (4 stages, explicit)" in text
        assert "achieved order: 4" in text
        assert "row sums match c: yes" in text
        assert "FAIL" in text
        assert "1/120" in text

    def test_mapping_shape(self):
        mapping = verify_order(explicit_euler(), 2).to_mapping()
        assert mapping["tableau"] == "explicit euler"
        assert mapping["achieved_order"] == 1
        assert mapping["requested_order"] == 2
        assert mapping["mode"] == "exact"
        assert mapping["tolerance"] is None
        first = mapping["residuals"][0]
        assert first == {
            "tree": "[]",
            "order": 1,
            "weight": "1",
            "rhs": "1",
            "residual": "0",
            "pass": True,
        }
        json.dumps(mapping)  # stays serializable
