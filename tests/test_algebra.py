"""Scalar and polynomial layer checks.

Core claims:
  * the rational text grammar is exact (including finite decimals) and
    format/parse round-trips;
  * CoeffPolynomial satisfies ring identities on seeded random inputs;
  * substitution handles partial bindings and polynomial values;
  * rendering is deterministic, matches the pinned surface forms and a
    reference built from the public terms (exponents 1-12), and is
    injective (a test-only parser recovers the polynomial).
"""

import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import (
    evaluate_constant,
    free_variables,
    monomial_key,
    power,
    render_reference,
    substitute,
    var_sort_key,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from butcher_kit.algebra import (
    CoeffPolynomial,
    CoeffVar,
    a_var,
    b_var,
    c_var,
    format_rational,
    parse_rational,
    poly_dot,
    poly_sum,
)
from butcher_kit.conditions import all_order_conditions


class TestRationals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1/6", Fraction(1, 6)),
            ("0", Fraction(0)),
            ("-3/7", Fraction(-3, 7)),
            ("0.5", Fraction(1, 2)),
            ("2", Fraction(2)),
            ("-2", Fraction(-2)),
            ("10/4", Fraction(5, 2)),
            ("0.125", Fraction(1, 8)),
            ("-0.1", Fraction(-1, 10)),
            (" 3/4 ", Fraction(3, 4)),
        ],
    )
    def test_parse_accepts_grammar(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize(
        "text",
        [
            "", "1/0", "1e3", "one", "1 / 2", "+5", ".5", "1.", "1/2/3", "0x2", "1,5", "--1",
            "\u0661/\u0662", "1.\u0665", pytest.param(Fraction(1, 2), id="not-a-string"),
        ],
    )
    def test_parse_rejects_everything_else(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_format_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            value = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
            assert parse_rational(format_rational(value)) == value

    def test_format_drops_unit_denominator(self):
        assert format_rational(Fraction(4, 2)) == "2"
        assert format_rational(Fraction(1, 6)) == "1/6"
        assert format_rational(Fraction(0)) == "0"

    def test_format_names_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ValueError, match=f"^a value has more than {limit} digits"):
            format_rational(Fraction(1, 10**limit))

    def test_parse_names_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        message = f"^a number has more than {limit} digits, too many to read$"
        for text in ("1" * (limit + 1), "1/" + "3" * (limit + 1), "-0." + "1" * (limit + 1)):
            with pytest.raises(ValueError, match=message):
                parse_rational(text)

    def test_parse_rejects_zero_denominator(self):
        for text in ("1/0", "-3/00", "0/0"):
            with pytest.raises(ValueError, match="^zero denominator$"):
                parse_rational(text)

    def test_parse_reduces(self):
        for text, reduced in (("2/4", (1, 2)), ("-2/4", (-1, 2)), ("6/3", (2, 1))):
            value = parse_rational(text)
            assert (value.numerator, value.denominator) == reduced


class TestCoeffVar:
    def test_render_styles(self):
        assert b_var(1).render() == "b[1]"
        assert c_var(2).render("plain") == "c[2]"
        assert a_var(2, 1).render() == "a[2,1]"
        assert b_var(1).render("latex") == "b_{1}"
        assert a_var(4, 3).render("latex") == "a_{4,3}"

    def test_variable_order_is_b_then_c_then_a_row_major(self):
        ordered = [b_var(1), b_var(2), c_var(1), c_var(2), a_var(1, 2), a_var(2, 1)]
        assert sorted(ordered, key=var_sort_key) == ordered
        # The package's own term order puts degree-one terms in this order.
        total = poly_sum(CoeffPolynomial.variable(var) for var in reversed(ordered))
        assert [monomial[0][0] for monomial, _ in total.sorted_terms()] == ordered

    @pytest.mark.parametrize(
        "kind,i,j",
        [
            ("x", 1, None),
            ("b", 0, None),
            ("b", 1, 2),
            ("a", 1, None),
            ("a", 1, 0),
            ("c", 2**14, None),
            ("a", 1, 2**14),
        ],
    )
    def test_validation(self, kind, i, j):
        with pytest.raises(ValueError):
            CoeffVar(kind, i, j)


    def test_pickled_variable_renders_in_a_fresh_interpreter(self):
        # A variable's name is kept per process, by its id, as it is first
        # built; a pickle rebuilds the variable, so the loading process
        # names it too, though it built no variable of its own.
        loader = (
            "import pickle, sys\n"
            "variable = pickle.loads(sys.stdin.buffer.read())\n"
            "print(variable.render(), variable.render('latex'))\n"
        )
        paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        loaded = subprocess.run(
            [sys.executable, "-c", loader],
            input=pickle.dumps(a_var(13, 12)), env=env, capture_output=True, check=True, timeout=60,
        )
        assert loaded.stdout.decode() == "a[13,12] a_{13,12}\n"


class TestPickling:
    def test_pickled_conditions_render_in_a_fresh_interpreter(self):
        # A polynomial keeps its monomials as variable ids, whose names a
        # process learns as it builds each variable; the loading process
        # builds none of its own, so a pickle must carry the variables.
        conditions = all_order_conditions(3, 2)
        loader = (
            "import pickle, sys\n"
            "conditions = pickle.loads(sys.stdin.buffer.read())\n"
            "for condition in conditions:\n"
            "    lhs = condition.lhs\n"
            "    print(lhs.render(), lhs.render('latex'), lhs.sorted_terms())\n"
        )
        paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        loaded = subprocess.run(
            [sys.executable, "-c", loader],
            input=pickle.dumps(conditions), env=env, capture_output=True, timeout=60,
        )
        assert loaded.stderr.decode() == ""
        expected = "".join(
            f"{c.lhs.render()} {c.lhs.render('latex')} {c.lhs.sorted_terms()}\n" for c in conditions
        )
        assert loaded.stdout.decode() == expected

    def test_round_trip_keeps_terms_and_coefficient_types(self):
        b1_squared = power(CoeffPolynomial.variable(b_var(1)), 2)
        polys = [
            CoeffPolynomial.zero(),
            CoeffPolynomial.constant(Fraction(-2, 3)),
            CoeffPolynomial.variable(a_var(3, 2)) * b1_squared * Fraction(1, 2) - 5,
        ]
        for poly in polys:
            loaded = pickle.loads(pickle.dumps(poly))
            assert loaded == poly and hash(loaded) == hash(poly)
            assert loaded.sorted_terms() == poly.sorted_terms()
            assert [type(c) for _, c in loaded.sorted_terms()] == [
                type(c) for _, c in poly.sorted_terms()
            ]


def _random_poly(rng):
    pool = [b_var(1), b_var(2), c_var(1), c_var(2), a_var(2, 1), a_var(3, 2)]
    poly = CoeffPolynomial.zero()
    for _ in range(rng.randint(0, 4)):
        term = CoeffPolynomial.constant(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 3)):
            term = term * CoeffPolynomial.variable(rng.choice(pool))
        poly = poly + term
    return poly


class TestPolynomialRing:
    def test_ring_identities_on_random_inputs(self):
        rng = random.Random(20260822)
        zero = CoeffPolynomial.zero()
        one = CoeffPolynomial.constant(1)
        for _ in range(60):
            p, q, r = (_random_poly(rng) for _ in range(3))
            assert p + q == q + p
            assert p * q == q * p
            assert (p + q) + r == p + (q + r)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p + zero == p
            assert p * one == p
            assert p - p == zero
            assert p.scale(Fraction(-5, 3)) == p * Fraction(-5, 3)

    def test_scalar_operands_coerce(self):
        p = CoeffPolynomial.variable(b_var(1))
        assert 2 * p == p + p
        assert p * Fraction(1, 2) + p * Fraction(1, 2) == p
        assert (p + 1) - 1 == p
        assert 1 - p == -(p - 1)
        assert CoeffPolynomial.constant(3) == 3 != p
        assert CoeffPolynomial.constant(Fraction(1, 2)) == Fraction(1, 2)
        assert p != "b[1]"

    def test_power(self):
        p = CoeffPolynomial.variable(c_var(2)) + 1
        assert power(p, 2) == p * p
        assert power(p, 0) == CoeffPolynomial.constant(1)
        with pytest.raises(ValueError):
            power(p, -1)

    def test_zero_coefficients_are_never_stored(self):
        p = CoeffPolynomial.variable(b_var(1)) - CoeffPolynomial.variable(b_var(1))
        assert p.is_zero
        assert p == CoeffPolynomial.zero()
        assert p.render() == "0"

    def test_equal_polynomials_share_hash(self):
        p = CoeffPolynomial.variable(b_var(1)) * CoeffPolynomial.variable(c_var(2))
        q = CoeffPolynomial.variable(c_var(2)) * CoeffPolynomial.variable(b_var(1))
        assert p == q
        assert hash(p) == hash(q)
        assert len({p, q}) == 1


class TestSubstitution:
    def test_partial_binding_keeps_free_variables(self):
        p = CoeffPolynomial.variable(b_var(1)) * CoeffPolynomial.variable(c_var(2)) + 2
        bound = substitute(p, {b_var(1): Fraction(1, 2)})
        assert bound == CoeffPolynomial.variable(c_var(2)).scale(Fraction(1, 2)) + 2
        assert free_variables(bound) == {c_var(2)}

    def test_full_binding_evaluates(self):
        # b1*c2^2 at b1=1/3, c2=3/2 is 3/4.
        p = CoeffPolynomial.variable(b_var(1)) * power(CoeffPolynomial.variable(c_var(2)), 2)
        bound = substitute(p, {b_var(1): Fraction(1, 3), c_var(2): Fraction(3, 2)})
        assert evaluate_constant(bound) == Fraction(3, 4)

    def test_polynomial_values_are_multiplied_out(self):
        # c2 -> a21 + a22 inside b2*c2^2.
        p = CoeffPolynomial.variable(b_var(2)) * power(CoeffPolynomial.variable(c_var(2)), 2)
        row_sum = CoeffPolynomial.variable(a_var(2, 1)) + CoeffPolynomial.variable(a_var(2, 2))
        expanded = substitute(p, {c_var(2): row_sum})
        direct = CoeffPolynomial.variable(b_var(2)) * row_sum * row_sum
        assert expanded == direct

    def test_substitute_then_evaluate_matches_direct_numbers(self):
        rng = random.Random(99)
        for _ in range(40):
            p = _random_poly(rng)
            binding = {
                var: Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                for var in free_variables(p)
            }
            value = evaluate_constant(substitute(p, binding))
            # Recompute term by term as plain Fractions.
            manual = Fraction(0)
            for monomial, coeff in p.sorted_terms():
                piece = coeff
                for var, exp in monomial:
                    piece *= binding[var] ** exp
                manual += piece
            assert value == manual

    def test_evaluate_constant_names_free_variables(self):
        p = CoeffPolynomial.variable(b_var(1)) + CoeffPolynomial.variable(a_var(2, 1))
        with pytest.raises(ValueError, match=r"b\[1\]"):
            evaluate_constant(p)

    def test_empty_polynomial_evaluates_to_zero(self):
        assert evaluate_constant(CoeffPolynomial.zero()) == 0


_VAR_TOKEN = re.compile(r"([bca])\[(\d+)(?:,(\d+))?\](?:\^(\d+))?$")


def _parse_plain(text):
    # Test-only inverse of render("plain"), used to show injectivity.
    if text == "0":
        return CoeffPolynomial.zero()
    total = CoeffPolynomial.zero()
    normalized = text.replace(" - ", " + -")
    for chunk in normalized.split(" + "):
        sign = 1
        if chunk.startswith("-"):
            sign, chunk = -1, chunk[1:]
        term = CoeffPolynomial.constant(sign)
        for factor in chunk.split("*"):
            match = _VAR_TOKEN.match(factor)
            if match:
                kind, i, j, exp = match.groups()
                var = CoeffVar(kind, int(i), int(j) if j else None)
                term = term * power(CoeffPolynomial.variable(var), int(exp) if exp else 1)
            else:
                term = term * parse_rational(factor)
        total = total + term
    return total


# Up to four variables with exponents 1-12, so two-digit powers occur, a
# power may end a monomial and the empty monomial is the constant term.
_RUN_MONOMIALS = st.dictionaries(
    st.sampled_from((b_var(1), b_var(2), c_var(1), c_var(3), a_var(2, 1), a_var(3, 2))),
    st.integers(1, 12),
    max_size=4,
).map(lambda powers: tuple(sorted(powers.items(), key=lambda item: var_sort_key(item[0]))))
_COEFFICIENTS = st.one_of(
    st.integers(-30, 30).filter(bool),
    st.fractions(min_value=-5, max_value=5, max_denominator=12).filter(bool),
)


class TestRendering:
    def test_pinned_plain_forms(self):
        b1, b2 = CoeffPolynomial.variable(b_var(1)), CoeffPolynomial.variable(b_var(2))
        c1, c2 = CoeffPolynomial.variable(c_var(1)), CoeffPolynomial.variable(c_var(2))
        assert (b1 + b2).render() == "b[1] + b[2]"
        assert (b1 * power(c1, 2)).scale(Fraction(1, 2)).render() == "1/2*b[1]*c[1]^2"
        assert CoeffPolynomial.variable(a_var(2, 1)).scale(Fraction(-3, 7)).render() == "-3/7*a[2,1]"
        assert (b2 * power(c2, 2)).render() == "b[2]*c[2]^2"
        assert (b1 - b2).render() == str(b1 - b2) == "b[1] - b[2]"
        assert repr(b1 - b2) == "CoeffPolynomial(b[1] - b[2])"
        assert CoeffPolynomial.constant(Fraction(1, 6)).render() == "1/6"

    def test_pinned_latex_forms(self):
        b2, c2 = CoeffPolynomial.variable(b_var(2)), CoeffPolynomial.variable(c_var(2))
        assert (b2 * power(c2, 2)).render("latex") == "b_{2} c_{2}^{2}"
        assert (b2 * power(c2, 2)).scale(Fraction(1, 2)).render("latex") == "\\frac{1}{2} b_{2} c_{2}^{2}"
        assert (b2 + 1).render("latex") == "1 + b_{2}"

    def test_two_digit_powers(self):
        c1 = CoeffPolynomial.variable(c_var(1))
        assert power(c1, 10).render() == "c[1]^10"
        assert power(c1, 10).render("latex") == "c_{1}^{10}"
        b1 = CoeffPolynomial.variable(b_var(1))
        assert (b1 * power(c1, 12)).scale(-2).render() == "-2*b[1]*c[1]^12"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(terms=st.dictionaries(_RUN_MONOMIALS, _COEFFICIENTS, max_size=6))
    @example(terms={})
    @example(terms={(): Fraction(-1, 6)})
    @example(terms={((c_var(1), 10),): 1})
    @example(terms={((b_var(1), 1), (c_var(2), 12)): -1, ((a_var(2, 1), 1),): Fraction(3, 7)})
    def test_render_matches_the_reference(self, terms):
        poly = CoeffPolynomial(terms)
        assert dict(poly.sorted_terms()) == terms
        for style in ("plain", "latex"):
            assert poly.render(style) == render_reference(poly, style)

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError):
            CoeffPolynomial.constant(1).render("mathml")

    def test_term_order_ignores_insertion_order(self):
        b1, b2 = CoeffPolynomial.variable(b_var(1)), CoeffPolynomial.variable(b_var(2))
        assert (b1 + b2).render() == (b2 + b1).render()

    def test_degree_groups_come_before_lex(self):
        b1, c2 = CoeffPolynomial.variable(b_var(1)), CoeffPolynomial.variable(c_var(2))
        assert (b1 * c2 + b1 + 1).render() == "1 + b[1] + b[1]*c[2]"

    def test_render_is_injective_on_random_polynomials(self):
        rng = random.Random(31)
        for _ in range(120):
            p = _random_poly(rng)
            assert _parse_plain(p.render()) == p

    def test_poly_sum_empty_is_zero(self):
        assert poly_sum([]) == CoeffPolynomial.zero()


_POOL = (b_var(1), b_var(2), c_var(1), c_var(2), c_var(3), a_var(2, 1), a_var(3, 1), a_var(3, 2))
# Up to three variables with exponents 1-3: many monomials tie on degree,
# and many on their leading variable and its power.
_MONOMIALS = st.dictionaries(st.sampled_from(_POOL), st.integers(1, 3), max_size=3).map(
    lambda powers: tuple(sorted(powers.items(), key=lambda item: var_sort_key(item[0])))
)


class TestTermOrder:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(monomials=st.lists(_MONOMIALS, unique=True, max_size=12))
    def test_terms_sort_in_the_graded_order(self, monomials):
        poly = CoeffPolynomial(dict.fromkeys(monomials, 1))
        assert [m for m, _ in poly.sorted_terms()] == sorted(monomials, key=monomial_key)

    def test_ties_on_degree_and_powers(self):
        b1, c1, c2 = b_var(1), c_var(1), c_var(2)
        monomials = [((c1, 3),), ((b1, 1), (c2, 2)), ((b1, 1), (c1, 2)), ((b1, 2), (c2, 1)), ((b1, 3),)]
        expected = [((b1, 3),), ((b1, 2), (c2, 1)), ((b1, 1), (c1, 2)), ((b1, 1), (c2, 2)), ((c1, 3),)]
        assert sorted(monomials, key=monomial_key) == expected
        poly = CoeffPolynomial(dict.fromkeys(monomials, 1))
        assert [m for m, _ in poly.sorted_terms()] == expected
        assert poly.render() == "b[1]^3 + b[1]^2*c[2] + b[1]*c[1]^2 + b[1]*c[2]^2 + c[1]^3"

    def test_constructor_round_trips_sorted_terms(self):
        rng = random.Random(5)
        for _ in range(60):
            p = _random_poly(rng)
            assert CoeffPolynomial(dict(p.sorted_terms())) == p


# Polynomials over _MONOMIALS with int or Fraction coefficients.
_COEFFS = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=4))
_POLYS = st.dictionaries(_MONOMIALS, _COEFFS, max_size=4).map(CoeffPolynomial)


def _operator_dot(row, vector):
    total = CoeffPolynomial.zero()
    for j, a in row:
        total = total + a * vector[j]
    return total


class TestPolyDot:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(vector=st.lists(_POLYS, min_size=1, max_size=4), data=st.data())
    def test_equals_the_operator_sum(self, vector, data):
        row = data.draw(st.lists(st.tuples(st.integers(0, len(vector) - 1), _POLYS), max_size=5))
        dot = poly_dot(row, vector)
        assert dot == _operator_dot(row, vector)
        assert all(coeff != 0 for _, coeff in dot.sorted_terms())

    def test_empty_row_is_zero(self):
        dot = poly_dot([], [CoeffPolynomial.variable(b_var(1))])
        assert dot.is_zero and dot == CoeffPolynomial.zero()
        assert dot.render() == "0"

    def test_cancelled_terms_are_not_stored(self):
        b1, c1 = CoeffPolynomial.variable(b_var(1)), CoeffPolynomial.variable(c_var(1))
        assert poly_dot([(0, b1), (1, -b1)], [c1 + 1, c1 + 1]).is_zero
        # b1*(c1 + 1) + b1*(-c1): the b1*c1 terms cancel, b1 is left.
        dot = poly_dot([(0, b1), (1, b1)], [c1 + 1, -c1])
        assert dot.sorted_terms() == [(((b_var(1), 1),), 1)]

    def test_fraction_scaled_coefficients(self):
        b1, c1 = CoeffPolynomial.variable(b_var(1)), CoeffPolynomial.variable(c_var(1))
        row = [(0, b1.scale(Fraction(1, 3))), (1, b1.scale(Fraction(2, 3))), (0, c1 * Fraction(-1, 2))]
        vector = [c1, c1.scale(Fraction(3, 4))]
        dot = poly_dot(row, vector)
        assert dot == _operator_dot(row, vector)
        assert dot.render() == "5/6*b[1]*c[1] - 1/2*c[1]^2"
