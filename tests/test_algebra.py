"""Scalar and polynomial layer checks.

Core claims:
  * the rational text grammar is exact (including finite decimals) and
    format/parse round-trips;
  * CoeffPolynomial satisfies ring identities on seeded random inputs;
  * substitution handles partial bindings and polynomial values;
  * rendering is deterministic, matches the pinned surface forms, and is
    injective (a test-only parser recovers the polynomial).
"""

import random
import re
import sys
from fractions import Fraction

import pytest
from helpers import evaluate_constant, free_variables, monomial_key, power, substitute
from hypothesis import given, settings
from hypothesis import strategies as st

from butcher_kit.algebra import (
    CoeffPolynomial,
    CoeffVar,
    a_var,
    b_var,
    c_var,
    format_rational,
    parse_rational,
    poly_sum,
)


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
        assert sorted(ordered, key=CoeffVar.sort_key) == ordered

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
    lambda powers: tuple(sorted(powers.items(), key=lambda item: item[0].sort_key()))
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
