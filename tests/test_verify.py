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
    malformed rationals, duplicate and unknown fields;
  * in a fresh process each shape's text is joined once: formatting the
    forest again and two reports with their text and mapping join none.
"""

import importlib.util
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    A000081,
    BUTCHER6_SAMPLES,
    butcher6,
    evaluate_constant,
    explicit_euler,
    implicit_midpoint,
    in_fresh_process,
    random_tableaus,
    record_interns,
    residuals_reference,
    rk4,
    substitute,
    weight_reference,
)

from butcher_kit import verify
from butcher_kit.algebra import a_var, b_var, c_var
from butcher_kit.conditions import ElementaryWeights, GenerationFlags, symbolic_weights
from butcher_kit.trees import (
    MAX_PARSE_DEPTH,
    RootedTree,
    enumerate_by_leaf,
    parse_tree,
    tree_factorial,
)
from butcher_kit.verify import (
    ButcherTableau,
    TableauError,
    load_tableau,
    verify_order,
    weight_value,
)

FIXTURES = Path(__file__).parent / "fixtures"
PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _bushy(q):
    return RootedTree((RootedTree(),) * (q - 1))


def _chain(q):
    tree = RootedTree()
    for _ in range(q - 1):
        tree = RootedTree((tree,))
    return tree


def _binding(tableau, with_c=False):
    """b[i] and a[i,j] bound to the tableau's entries, and c[i] to its row sums if asked."""
    s = tableau.stages
    binding = {b_var(i): tableau.b[i - 1] for i in range(1, s + 1)}
    binding.update(
        {a_var(i, j): tableau.a[i - 1][j - 1] for i in range(1, s + 1) for j in range(1, s + 1)}
    )
    if with_c:
        binding.update({c_var(i): tableau.row_sums()[i - 1] for i in range(1, s + 1)})
    return binding


class TestLoading:
    def test_rk4_file_round_trip(self):
        loaded = load_tableau((FIXTURES / "rk4.json").read_text())
        assert loaded == rk4()
        assert loaded.explicit
        assert loaded.row_sum_consistent

    def test_mapping_source(self):
        document = {"stages": 1, "A": [["1/2"]], "b": ["1"], "c": ["1/2"]}
        loaded = load_tableau(document)
        m = implicit_midpoint()
        assert loaded == ButcherTableau("", m.a, m.b, m.c)

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

    @pytest.mark.parametrize(
        "a,b,c,message",
        [
            ([["0", "0"]], ["1", "0"], None, "A must be 2x2 to match b"),
            ([["0", "0"], ["1"]], ["1", "0"], None, "A must be 2x2 to match b"),
            ([["0", "0"], ["1", "0"]], ["1", "0"], ["0"], "c has 1 entries, expected 2"),
            ([], [], None, "a tableau needs at least one stage"),
        ],
    )
    def test_from_rows_checks_the_shape(self, a, b, c, message):
        with pytest.raises(TableauError) as err:
            ButcherTableau.from_rows("shape", a, b, c)
        assert str(err.value) == message

    def test_each_distinct_entry_string_is_parsed_once_per_document(self, monkeypatch):
        parsed = []
        parse = verify.parse_rational

        def counting(text):
            parsed.append(text)
            return parse(text)

        monkeypatch.setattr(verify, "parse_rational", counting)
        document = {
            "stages": 3,
            "A": [["0", "0", "0"], ["1/2", "0", "0"], [0, "1/2", "0"]],
            "b": ["1/6", "2/3", "1/6"],
            "c": ["0", "1/2", 1],
        }
        loaded = load_tableau(document)
        assert parsed == ["0", "1/2", "1/6", "2/3"]
        assert loaded.a[2] == (Fraction(0), Fraction(1, 2), Fraction(0))
        assert loaded.c == (Fraction(0), Fraction(1, 2), Fraction(1))
        # The memo is the document's: a second load parses again.
        assert load_tableau(document) == loaded
        assert parsed[4:] == parsed[:4]

    @pytest.mark.parametrize(
        "a,where",
        [
            # True == 1 and hash(True) == hash(1), but a boolean is never
            # read as the int before it, nor as an equal string.
            ([[1, "0"], ["0", True]], "A[2][2]"),
            ([["1", True], ["0", "0"]], "A[1][2]"),
            # A bad entry written twice is named where it first stands.
            ([["0", "1/0"], ["1/0", "0"]], "A[1][2]"),
        ],
    )
    def test_repeated_entries_are_still_refused_where_they_stand(self, a, where):
        with pytest.raises(TableauError) as err:
            load_tableau({"stages": 2, "A": a, "b": ["1", "0"]})
        assert str(err.value).startswith(f"{where}: ")

    @pytest.mark.parametrize(
        "name,shown",
        [
            # A line break would start a forged line of the text report.
            ("x\nachieved order: 9\ny", "'\\n'"),
            ("lone \ud800 surrogate", "'\\ud800'"),
            ("tab\tstop", "'\\t'"),
            ("\x1b[2Jclear", "'\\x1b'"),
        ],
    )
    def test_name_that_is_not_printable_is_refused(self, name, shown):
        with pytest.raises(TableauError) as err:
            load_tableau({"name": name, "stages": 1, "A": [["0"]], "b": ["1"]})
        assert str(err.value) == f"'name' holds a character that is not printable: {shown}"

    def test_every_fixture_and_benchmark_name_is_accepted(self):
        names = set()
        for path in sorted(FIXTURES.glob("*.json")):
            document = json.loads(path.read_text())
            if "stages" in document:
                names.add(load_tableau(document).name)
        spec = importlib.util.spec_from_file_location("gen", PERFBENCH / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        for workload in ("conditions", "verify", "oracle", "forest"):
            for seed in (1, 2, 3):
                for document in gen.job_list(workload, seed)[1].values():
                    if "stages" in document:
                        names.add(load_tableau(document).name)
        assert {"rk4", "implicit midpoint", "butcher6 u=2/5 v=1/3"} <= names
        assert any(name.startswith("kutta4 ") for name in names)

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

    def test_nesting_too_deep_to_decode(self):
        with pytest.raises(TableauError, match="^invalid JSON: nested too deeply$"):
            load_tableau("[" * 100_000 + "]" * 100_000)

    def test_integer_literal_too_long_to_read(self):
        digits = sys.get_int_max_str_digits() + 1
        text = '{"stages": 1, "A": [["0"]], "b": [' + "1" * digits + "]}"
        with pytest.raises(TableauError) as err:
            load_tableau(text)
        assert str(err.value) == (
            f"a number has more than {digits - 1} digits, too many to read"
        )

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(tableau=random_tableaus(stages=st.integers(1, 6)))
    @example(tableau=ButcherTableau.from_rows("zero A", [[0, 0], [0, 0]], [1, 0]))
    @example(
        tableau=ButcherTableau.from_rows(
            "mixed", [["-1/2", "3/4", 0], ["5/6", "-7/3", "2"], [0, "-1/9", "1/9"]], [1, 0, 0]
        )
    )
    @example(
        tableau=ButcherTableau.from_rows(
            "coprime denominators",
            [
                [Fraction(1, 2**61 - 1), Fraction(-1, 3**40)],
                [Fraction(2, 3**40), Fraction(-1, 5**27)],
            ],
            [1, 0],
        )
    )
    def test_row_sums_are_the_fraction_sums(self, tableau):
        # random_tableaus omits c, so c is the row sums too.
        sums = tuple(sum(row, Fraction(0)) for row in tableau.a)
        assert tableau.row_sums() == sums and tableau.c == sums
        assert all(type(x) is Fraction for x in tableau.row_sums())
        assert tableau.row_sum_consistent
        given_c = ButcherTableau.from_rows("given c", tableau.a, tableau.b, [7] * tableau.stages)
        assert given_c.row_sums() == sums and given_c.c == (7,) * tableau.stages
        assert given_c.row_sum_consistent == (sums == given_c.c)

    def test_explicit_detection(self):
        assert explicit_euler().explicit
        assert rk4().explicit
        assert not implicit_midpoint().explicit


class TestResiduals:
    def test_first_condition_everywhere(self):
        # weight([]) is sum(b); all four fixtures are consistent methods.
        for tableau in (explicit_euler(), implicit_midpoint(), rk4(), butcher6(1, 1)):
            assert tableau.elementary_weights().weight(RootedTree()) == 1

    def test_explicit_euler_order_2_residual(self):
        tree = parse_tree("[[]]")
        weight = explicit_euler().elementary_weights().weight(tree)
        assert weight - Fraction(1, tree_factorial(tree)) == Fraction(-1, 2)

    def test_rk4_bushy_order5_residual(self):
        bushy = _bushy(5)
        weight = rk4().elementary_weights().weight(bushy)
        assert weight == weight_value(rk4(), bushy) == Fraction(5, 24)
        assert weight - Fraction(1, tree_factorial(bushy)) == Fraction(1, 120)

    def test_rk4_chain5_is_nilpotent(self):
        chain = _chain(5)
        weight = rk4().elementary_weights().weight(chain)
        assert weight == 0
        assert weight - Fraction(1, tree_factorial(chain)) == Fraction(-1, 120)

    def test_weight_vector_of_one_leaf_child_is_row_sums(self):
        assert rk4().elementary_weights().vector(parse_tree("[[]]")) == rk4().row_sums()

    def test_bushy_tree_at_the_parse_depth_limit(self):
        # [[],[[],...]] nested MAX_PARSE_DEPTH deep: every level has a leaf
        # and one deeper child, so the integer route multiplies two child
        # factors at every level.  An implicit tableau, whose weights do not
        # vanish with depth.
        text = "[]"
        for _ in range(MAX_PARSE_DEPTH - 1):
            text = f"[[],{text}]"
        tree = parse_tree(text)
        tableau = ButcherTableau.from_rows(
            "implicit", [["1/4", "-1/3"], ["1/2", "2/5"]], ["1/2", "1/2"]
        )
        weight = tableau.elementary_weights().weight(tree)
        assert weight != 0
        assert weight == weight_reference(tableau, tree)

    def test_explicit_chain_beyond_stages_has_zero_weight(self):
        for tableau in (explicit_euler(), rk4(), butcher6(Fraction(2, 5), Fraction(1, 3))):
            assert tableau.elementary_weights().weight(_chain(tableau.stages + 1)) == 0

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(tableau=random_tableaus())
    @example(tableau=rk4())
    @example(tableau=implicit_midpoint())
    @example(tableau=butcher6(Fraction(1, 2), Fraction(1, 4)))
    def test_direct_evaluation_matches_polynomial_route(self, tableau):
        # The same Phi recursion runs over Fractions here and over
        # CoeffPolynomial variables in conditions; binding the variables to
        # the tableau must give the same weights, in the raw form and, with
        # c[i] bound to the row sums, in the substitute_c form.
        s = tableau.stages
        binding, with_c = _binding(tableau), _binding(tableau, with_c=True)
        weights = tableau.elementary_weights()
        raw = symbolic_weights(s, GenerationFlags(explicit=tableau.explicit))
        subst_c = symbolic_weights(s, GenerationFlags(explicit=tableau.explicit, substitute_c=True))
        for tree in enumerate_by_leaf(5):
            direct = weights.weight(tree)
            assert evaluate_constant(substitute(raw.weight(tree), binding)) == direct
            assert evaluate_constant(substitute(subst_c.weight(tree), with_c)) == direct

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(tableau=random_tableaus(stages=st.just(4), explicit=st.just(True)))
    @example(tableau=rk4())
    def test_explicit_subst_c_polynomials_match_at_four_stages(self, tableau):
        # The --explicit --subst-c polynomials at s = 4, stage by stage and
        # summed with b, bound to a 4-stage explicit tableau with c[i] its
        # row sums, give the integer route's weights through order 5.
        symbolic = symbolic_weights(4, GenerationFlags(explicit=True, substitute_c=True))
        weights, binding = tableau.elementary_weights(), _binding(tableau, with_c=True)
        for tree in enumerate_by_leaf(5):
            stages = [evaluate_constant(substitute(x, binding)) for x in symbolic.vector(tree)]
            assert tuple(stages) == weights.vector(tree)
            assert evaluate_constant(substitute(symbolic.weight(tree), binding)) == weights.weight(tree)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(tableau=random_tableaus())
    @example(tableau=ButcherTableau.from_rows("zero A", [[0, 0], [0, 0]], [Fraction(1, 3), 2]))
    @example(
        tableau=ButcherTableau.from_rows(
            "zeros in b", [[0, 0, 0], ["2/3", 0, 0], ["1/4", "3/4", 0]], ["1/4", 0, "3/4"]
        )
    )
    @example(
        tableau=ButcherTableau.from_rows(
            "negative", [["-1/2", "3/4"], ["5/6", "-7/3"]], ["-5/2", "7/2"]
        )
    )
    @example(
        tableau=ButcherTableau.from_rows(
            "coprime denominators",
            [[Fraction(1, 2**61 - 1), 0], [Fraction(2, 3**40), Fraction(-1, 5**27)]],
            [Fraction(1, 7**22), Fraction(3, 2**61 - 1)],
        )
    )
    def test_integer_route_matches_fraction_route(self, tableau):
        # elementary_weights() runs over integer numerators and divides once
        # per tree; the reference runs the same recursion over Fractions.
        rows = [[(j, x) for j, x in enumerate(row) if x] for row in tableau.a]
        reference = ElementaryWeights(rows, tableau.row_sums(), tableau.b)
        weights = tableau.elementary_weights()
        for tree in enumerate_by_leaf(6):
            weight, vector = weights.weight(tree), weights.vector(tree)
            assert type(weight) is Fraction and weight == reference.weight(tree)
            assert all(type(x) is Fraction for x in vector)
            assert vector == reference.vector(tree)


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

    def test_float_mode_residual_equal_to_tol_passes(self):
        # rk4's residuals through order 4 are exactly 0 in floats, so a
        # residual passes when it equals tol, not only when it is below it.
        report = verify_order(rk4(), 4, mode="float", tol=0)
        assert report.achieved_order == 4
        assert all(entry.passed for entry in report.residuals)

    def test_float_mode_residual_beyond_float_range_is_infinite(self):
        huge = ButcherTableau.from_rows("huge b", [["0"]], ["1" + "0" * 400])
        report = verify_order(huge, 1, mode="float")
        assert report.achieved_order == 0
        assert not report.residuals[0].passed
        assert report.residuals[0].residual == 10**400 - 1

    @pytest.mark.parametrize("tol", [math.inf, float("1e400"), -math.inf, math.nan])
    def test_non_finite_tolerance_is_refused(self, tol):
        with pytest.raises(TableauError, match="^tol must be finite"):
            verify_order(implicit_midpoint(), 3, mode="float", tol=tol)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("tol", [-1, -1e-300])
    def test_negative_tolerance_is_refused(self, mode, tol):
        # No residual could pass it: rk4 would seem to fail order 1.
        with pytest.raises(TableauError, match=f"^tol must be >= 0, got {tol}$"):
            verify_order(rk4(), 4, mode=mode, tol=tol)

    # b = 1/3 leaves -2/3 at order 1: a tol equal to its float passes it,
    # the next float below does not.
    _THIRD = ButcherTableau.from_rows("b = 1/3", [[0]], [Fraction(1, 3)])
    _AT_TOL = abs(float(Fraction(-2, 3)))

    @settings(max_examples=60, deadline=None)
    @given(tableau=random_tableaus(), max_order=st.integers(1, 5), tol=st.floats(0, 1))
    @example(tableau=rk4(), max_order=5, tol=1e-12)
    @example(tableau=implicit_midpoint(), max_order=3, tol=0.0)
    @example(tableau=_THIRD, max_order=2, tol=_AT_TOL)
    @example(tableau=_THIRD, max_order=2, tol=math.nextafter(_AT_TOL, 0))
    @example(
        # The residual 10^400 - 1 is beyond float range: it fails any tol.
        tableau=ButcherTableau.from_rows("huge b", [["0"]], ["1" + "0" * 400]),
        max_order=1,
        tol=1.0,
    )
    @example(
        # The residual 10^-400 underflows to 0.0: float mode passes it at tol 0.
        tableau=ButcherTableau.from_rows("tiny gap", [["0"]], [f"{10**400 + 1}/{10**400}"]),
        max_order=1,
        tol=0.0,
    )
    def test_entries_match_the_fraction_reference(self, tableau, max_order, tol):
        # verify_order compares and builds each entry in integers; the
        # reference takes weight - 1/t! and its float Fraction by Fraction.
        for mode in ("exact", "float"):
            report = verify_order(tableau, max_order, mode=mode, tol=tol)
            assert list(report.residuals) == residuals_reference(tableau, max_order, mode, tol)
            for entry in report.residuals:
                assert {type(entry.weight), type(entry.rhs), type(entry.residual)} == {Fraction}
                assert type(entry.passed) is bool

    def test_failing_order_stops_the_forest(self, monkeypatch, fresh_forest):
        # rk4 fails at order 5, so no tree above order 5 may be built,
        # however high max_order is.
        built = record_interns(monkeypatch)
        report = verify_order(rk4(), 12)
        assert report.achieved_order == 4
        assert len(report.residuals) == 17
        assert built and max(built) == 5

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

    def test_tree_text_joined_once_per_shape(self):
        # In a fresh process, formatting the order-8 forest joins each
        # shape's text from its children's once.  Formatting it again, and
        # two rk4 reports with their text and mapping, join none.
        probe = """
import json, sys
from pathlib import Path
from butcher_kit import trees
from butcher_kit.trees import enumerate_by_leaf, format_tree, parse_tree, tree_id
from butcher_kit.verify import load_tableau, verify_order

joined = []
text_of = trees.text_of

def recording(i):
    if trees._TEXTS[i] is None:
        joined.append(i)
    return text_of(i)

trees.text_of = recording
forest = list(enumerate_by_leaf(8))
texts = [format_tree(tree) for tree in forest]
first, joined[:] = list(joined), []
again = [format_tree(tree) for tree in forest]
tableau = load_tableau(Path(sys.argv[1]).read_text())
reports = [verify_order(tableau, 6) for _ in range(2)]
shown = [(report.render_text(), report.to_mapping()) for report in reports]
print(json.dumps({
    "first": first,
    "ids": [tree_id(tree) for tree in forest],
    "second": joined,
    "same": again == texts and shown[0] == shown[1],
    "round_trip": all(parse_tree(text) is tree for text, tree in zip(texts, forest)),
    "report_trees": [
        parse_tree(row["tree"]) is entry.tree and row["tree"] in shown[0][0]
        for row, entry in zip(shown[0][1]["residuals"], reports[0].residuals)
    ],
}))
"""
        result = in_fresh_process(probe, FIXTURES / "rk4.json")
        assert sorted(result["first"]) == sorted(result["ids"])
        assert len(result["first"]) == sum(A000081[:8])
        assert result["second"] == []
        assert result["same"] and result["round_trip"]
        assert len(result["report_trees"]) == sum(A000081[:5])
        assert all(result["report_trees"])
