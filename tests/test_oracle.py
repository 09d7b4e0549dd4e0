"""Series-expansion checks.

The two routes to each series are independent by construction: trees
versus Picard iteration for the exact flow, trees versus stage fixed-point
iteration for the discrete step.  Exact agreement on random polynomial
fields is the main claim; hand-computed expansions (rotation, linear
stability polynomials) pin the normalization.  The contraction behind
elementary_differential is also checked against the plain formula,
repeated directional derivatives of the field.  Both kinds of route run
in integers, and each is checked against the same series built Fraction by
Fraction.  On the tree field of Butcher's theorem the iteration routes
recompute every 1/t! and every elementary weight, stage by stage, on
their own.  A field keeps the integer form of its Fractions, which the
routes read, so that a series converts only its point.
"""

import gc
import pickle
import random
import sys
import threading
import time
import weakref
from fractions import Fraction
from functools import partial
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    BUTCHER6_SAMPLES,
    alpha_by_arrangements,
    butcher6,
    differential_reference,
    directional_derivative,
    explicit_euler,
    field_integers_reference,
    field_value,
    implicit_midpoint,
    iteration_series_reference,
    random_tableaus,
    record_interns,
    rk4,
    tree_field,
    tree_series_reference,
)

from butcher_kit import oracle, verify
from butcher_kit.algebra import integer_rows
from butcher_kit.oracle import (
    MAX_FIELD_DEGREE,
    MAX_FIELD_DIM,
    MAX_POINT_DIGITS,
    FieldError,
    FieldSyntaxError,
    PolyVectorField,
    TauSeries,
    elementary_differential,
    flow_series_picard,
    flow_series_trees,
    load_field,
    parse_point,
    rk_series_direct,
    rk_series_trees,
)
from butcher_kit.trees import (
    RootedTree,
    child_ids,
    enumerate_by_leaf,
    parse_tree,
    tree_factorial,
    tree_id,
)
from butcher_kit.verify import ButcherTableau, TableauWeights, verify_order

F = Fraction

ROTATION = PolyVectorField.from_strings(2, ["x2", "-x1"])
LINEAR_1D = PolyVectorField.from_strings(1, ["x1"])
MIXED = PolyVectorField.from_strings(2, ["x2", "x1^2 - 1/2*x2"])
WIDE_6D = load_field((Path(__file__).parent / "fixtures" / "wide6d.json").read_text())


# Exponent grid for dim 2, total degree <= 2.
_EXPONENTS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _random_polynomial(rng):
    terms = {}
    for exponents in _EXPONENTS:
        if rng.random() < 0.6:
            terms[exponents] = F(rng.randint(-3, 3), rng.randint(1, 4))
    if not any(terms.values()):
        terms[(1, 0)] = F(1)
    return terms


def _random_field(rng):
    return PolyVectorField(2, (_random_polynomial(rng), _random_polynomial(rng)))


def _random_point(rng):
    return tuple(F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(2))


# Fields of dim 1-3 and total degree <= 4, so trees with three and four
# children meet nonzero third and fourth derivatives.
_DEGREE_4_FIELDS = (
    PolyVectorField.from_strings(1, ["x1^4 - 2*x1^3 + 1/2*x1 - 1"]),
    PolyVectorField.from_strings(
        3,
        [
            "x1*x2*x3 + x3^4 - 1",
            "x1^2*x2^2 - 3/2*x2 + x3",
            "2/3*x1^3*x3 + x2^3 - 1/3",
        ],
    ),
)


@st.composite
def _random_fields(draw, max_degree=4):
    """Fields of dim 1-3 with total degree <= max_degree and a rational point."""
    dim = draw(st.integers(1, 3))
    monomials = [
        exponents
        for exponents in product(range(max_degree + 1), repeat=dim)
        if sum(exponents) <= max_degree
    ]
    coefficients = st.fractions(-3, 3, max_denominator=4).filter(bool)
    components = tuple(
        draw(st.dictionaries(st.sampled_from(monomials), coefficients, max_size=5))
        for _ in range(dim)
    )
    point = tuple(draw(st.fractions(-2, 2, max_denominator=3)) for _ in range(dim))
    return PolyVectorField(dim, components), point


_SPACES = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def _written_rationals(draw):
    """(value, text) of a signed rational whose magnitude is written as "p",
    "p/q" or a decimal."""
    p = draw(st.integers(0, 10**6))
    form = draw(st.sampled_from(["p", "p/q", "decimal"]))
    if form == "p/q":
        text = f"{p}/{draw(st.integers(1, 1000))}"
    elif form == "decimal":
        text = f"{p}.{draw(st.from_regex(r'[0-9]{1,6}', fullmatch=True))}"
    else:
        text = str(p)
    value = Fraction(text)
    return (-value, text) if draw(st.booleans()) else (value, text)


@st.composite
def _spelled_tables(draw):
    """(dim, term table, component text) with the text spelling the table.

    The text lists the terms in random order, splits some into two like
    terms, spaces its operators at random, and writes x<k> also as x<k>^1
    and extra factors x<k>^0; the table maps exponents to coefficients.
    """
    dim = draw(st.integers(1, 3))
    table = {}
    for _ in range(draw(st.integers(1, 5))):
        room = MAX_FIELD_DEGREE
        exponents = []
        for _ in range(dim):
            exponents.append(draw(st.integers(0, min(3, room)) | st.integers(0, room)))
            room -= exponents[-1]
        table[tuple(draw(st.permutations(exponents)))] = draw(_written_rationals())
    pieces = []  # (value, magnitude text, exponents), one per piece of text
    for exponents, (value, text) in table.items():
        if draw(st.booleans()):
            part, part_text = draw(_written_rationals())
            rest = value - part
            pieces.append((part, part_text, exponents))
            pieces.append((rest, f"{abs(rest.numerator)}/{rest.denominator}", exponents))
        else:
            pieces.append((value, text, exponents))
    pieces = draw(st.permutations(pieces))
    text = ""
    for n, (value, magnitude, exponents) in enumerate(pieces):
        factors = []
        for k, e in enumerate(exponents, 1):
            if e > 1 or (e == 1 and draw(st.booleans())):
                factors.append(f"x{k}^{e}")
            elif e == 1:
                factors.append(f"x{k}")
            if draw(st.integers(0, 4)) == 0:
                factors.append(f"x{k}^0")
        if abs(value) != 1 or not factors or draw(st.booleans()):
            factors.append(magnitude)
        star = draw(_SPACES) + "*" + draw(_SPACES)
        sign = "-" if value < 0 else draw(st.sampled_from(["+", ""])) if n == 0 else "+"
        text += draw(_SPACES) + sign + draw(_SPACES) + star.join(draw(st.permutations(factors)))
    return dim, {exponents: value for exponents, (value, _) in table.items()}, text


class TestComponentParsing:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(spelled=_spelled_tables())
    def test_text_round_trips_to_its_term_table(self, spelled):
        dim, table, text = spelled
        field = PolyVectorField.from_strings(dim, [text] * dim)
        assert field.components == PolyVectorField(dim, (table,) * dim).components

    @pytest.mark.parametrize(
        "text,expected_terms",
        [
            ("x2", {(0, 1): F(1)}),
            ("-x1", {(1, 0): F(-1)}),
            ("x1^2 - 1/2*x2", {(2, 0): F(1), (0, 1): F(-1, 2)}),
            ("3/4*x1*x2^2", {(1, 2): F(3, 4)}),
            ("0.5*x1 + 0.5*x1", {(1, 0): F(1)}),
            ("2 - x1 + x1", {(0, 0): F(2)}),
            ("- 1/3", {(0, 0): F(-1, 3)}),
            ("x1^0", {(0, 0): F(1)}),
            ("x1 * x1", {(2, 0): F(1)}),
            pytest.param("x1^" + "0" * 17 + "2", {(2, 0): F(1)}, id="exponent-of-18-digits"),
        ],
    )
    def test_accepted(self, text, expected_terms):
        field = PolyVectorField.from_strings(2, [text, "x1"])
        assert dict(field.components[0]) == {
            exp: coeff for exp, coeff in expected_terms.items() if coeff
        }

    @pytest.mark.parametrize(
        "text,position",
        [
            ("", 0),
            ("x3", 0),
            ("x0", 0),
            ("(x1)", 0),
            ("x1^", 2),
            ("1//2", 1),
            ("x1 +", 4),
            ("x1 x2", 3),
            ("2 x1", 2),
            ("*x1", 0),
            ("x1 + 1/0", 5),
            ("x\u0661", 0),
            ("x1^\u0662", 2),
            ("x1 + \u0661/\u0662", 5),
            (f"x1 - x1^{MAX_FIELD_DEGREE + 1}", 5),
            (f"x1^{MAX_FIELD_DEGREE // 2}*x2^{MAX_FIELD_DEGREE // 2 + 1}", 0),
            pytest.param("x1 - x1^" + "9" * 5000, 8, id="exponent-of-5000-digits"),
            pytest.param("x" + "1" * 5000, 1, id="index-of-5000-digits"),
            pytest.param("x1^" + "0" * 19 + "2", 3, id="exponent-of-20-digits"),
        ],
    )
    def test_rejected_with_position(self, text, position):
        with pytest.raises(FieldSyntaxError) as err:
            PolyVectorField.from_strings(2, [text, "x1"])
        assert err.value.position == position

    def test_degree_up_to_the_cap_is_accepted(self):
        half = MAX_FIELD_DEGREE // 2
        field = PolyVectorField.from_strings(2, [f"x1^{half}*x2^{MAX_FIELD_DEGREE - half}", "x1"])
        assert field.components[0] == (((half, MAX_FIELD_DEGREE - half), F(1)),)

    def test_long_component_parses_in_linear_time(self):
        # 20,000 terms over 600 distinct monomials, with coefficients 1, 2
        # and -1/2 summed into each.  A parser that copies the polynomial
        # per term takes minutes here.
        weights = (F(1), F(2), F(-1, 2))
        pieces = []
        expected: dict = {}
        for k in range(20_000):
            exponents = (k % 200, k % 600 // 200)
            weight = weights[k // 600 % 3]
            expected[exponents] = expected.get(exponents, F(0)) + weight
            sign = "-" if weight < 0 else "+"
            pieces.append(f"{sign} {abs(weight)}*x1^{exponents[0]}*x2^{exponents[1]}")
        text = " ".join(pieces)
        start = time.perf_counter()
        field = PolyVectorField.from_strings(2, [text, "x1"])
        assert time.perf_counter() - start < 5
        assert dict(field.components[0]) == {e: c for e, c in expected.items() if c}

    def test_dim_1_uses_x1_only(self):
        field = PolyVectorField.from_strings(1, ["x1^2"])
        assert field_value(field, (F(3),)) == (F(9),)
        with pytest.raises(FieldSyntaxError):
            PolyVectorField.from_strings(1, ["x2"])


class TestFieldDocuments:
    def test_load_minimal(self):
        field = load_field('{"dim": 2, "components": ["x2", "-x1"]}')
        assert field == ROTATION

    def test_load_mapping(self):
        field = load_field({"dim": 1, "components": ["x1"]})
        assert field == LINEAR_1D

    @pytest.mark.parametrize(
        "document,fragment",
        [
            ({"dim": 2, "components": ["x2", "-x1"], "extra": 1}, "unknown fields"),
            ({"components": ["x1"]}, "missing field"),
            ({"dim": True, "components": ["x1"]}, "integer"),
            ({"dim": 0, "components": []}, ">= 1"),
            ({"dim": 2, "components": "x1"}, "list of strings"),
            ({"dim": 2, "components": ["x1"]}, "1 entries, expected 2"),
            ({"dim": 1, "components": [7]}, "components[1] must be a string"),
            ({"dim": 1, "components": ["x9"]}, "components[1]: unknown variable"),
        ],
    )
    def test_distinct_diagnostics(self, document, fragment):
        with pytest.raises(FieldError) as err:
            load_field(document)
        assert fragment in str(err.value)

    def test_duplicate_field_in_json_text(self):
        with pytest.raises(FieldError, match="duplicate field"):
            load_field('{"dim": 1, "dim": 1, "components": ["x1"]}')

    def test_zero_denominator_names_component_and_position(self):
        with pytest.raises(FieldError) as err:
            load_field({"dim": 2, "components": ["x2", "x1 + 1/0"]})
        assert str(err.value) == "components[2]: zero denominator (at position 5)"

    def test_degree_above_the_cap_is_refused_at_once(self):
        start = time.monotonic()
        with pytest.raises(FieldError) as err:
            load_field({"dim": 1, "components": ["x1^100000"]})
        assert time.monotonic() - start < 0.5
        assert str(err.value) == (
            f"components[1]: degree 100000 exceeds the cap of {MAX_FIELD_DEGREE} (at position 0)"
        )

    def test_dim_above_the_cap_is_refused_before_any_component(self):
        # components is malformed too, but the cap on dim is checked first.
        with pytest.raises(FieldError) as err:
            load_field({"dim": MAX_FIELD_DIM + 1, "components": 7})
        assert str(err.value) == f"'dim' must be <= {MAX_FIELD_DIM}"

    def test_integer_literal_too_long_to_read(self):
        digits = sys.get_int_max_str_digits() + 1
        with pytest.raises(FieldError) as err:
            load_field('{"dim": ' + "1" * digits + ', "components": ["x1"]}')
        assert str(err.value) == (
            f"a number has more than {digits - 1} digits, too many to read"
        )

    def test_invalid_json(self):
        with pytest.raises(FieldError, match="invalid JSON"):
            load_field("{oops")

    def test_non_object(self):
        with pytest.raises(FieldError, match="JSON object"):
            load_field("3")

    def test_nesting_too_deep_to_decode(self):
        deep = '{"dim": 1, "components": ' + "[" * 100_000 + "]" * 100_000 + "}"
        with pytest.raises(FieldError, match="^invalid JSON: nested too deeply$"):
            load_field(deep)

    def test_parse_point(self):
        assert parse_point("1, 0", 2) == (F(1), F(0))
        assert parse_point("-1/3,0.5", 2) == (F(-1, 3), F(1, 2))
        with pytest.raises(ValueError, match="expected 3"):
            parse_point("1,2", 3)
        with pytest.raises(ValueError, match="point entry 2"):
            parse_point("1,zz", 2)
        # Numerators and denominators are bounded in digits.
        largest = 10**MAX_POINT_DIGITS - 1
        assert parse_point(f"-{largest}/{largest - 1}", 1) == (F(-largest, largest - 1),)
        with pytest.raises(ValueError, match="^point entry 2: numerator has more than"):
            parse_point(f"0,-{largest + 1}", 2)
        with pytest.raises(ValueError, match="^point entry 1: denominator has more than"):
            parse_point(f"1/{largest + 1},0", 2)
        # A decimal's denominator is 10^k for k digits after the point: here
        # 10^(MAX_POINT_DIGITS + 1).
        with pytest.raises(ValueError, match="denominator has more than"):
            parse_point("0." + "0" * MAX_POINT_DIGITS + "1", 1)


class TestPolyVectorField:
    def test_components_are_canonical_immutable_term_tables(self):
        with pytest.raises(ValueError, match="^dim must be >= 1$"):
            PolyVectorField(0, ())
        with pytest.raises(ValueError, match="^1 components do not match dim 2$"):
            PolyVectorField(2, ({(1, 0): 1},))
        with pytest.raises(ValueError, match=r"^exponent tuple \(1,\) does not match dim 2$"):
            PolyVectorField(2, ({(1, 0): 1}, {(1,): 1}))
        # Coefficients become Fractions, zeros are dropped, terms are sorted.
        field = PolyVectorField(2, ({(1, 0): 2, (0, 1): 0, (0, 0): F(1, 2)}, {(0, 1): -1}))
        assert field.components == (
            (((0, 0), F(1, 2)), ((1, 0), F(2))),
            (((0, 1), F(-1)),),
        )
        assert all(type(c) is Fraction for table in field.components for _, c in table)
        # Pairs are terms: like terms are summed, and a sum of zero is dropped.
        pairs = [((1,), 1), ((0,), 1), ((1,), F(1, 2)), ((0,), -1)]
        assert PolyVectorField(1, (pairs,)).components == ((((1,), F(3, 2)),),)
        with pytest.raises(TypeError):
            field.components[0][0] = ((0, 0), F(1))
        with pytest.raises(AttributeError):
            field.components = ()
        # The same polynomials with their terms in another order, as items
        # or as text, give an equal field with an equal hash, and the two
        # share one derivative table through one memo.
        items = PolyVectorField(2, (list(reversed(field.components[0])), field.components[1]))
        text = PolyVectorField.from_strings(2, ["2*x1 + 0*x2 + 1/2", "-x2"])
        assert items == text == field
        assert hash(items) == hash(text) == hash(field)
        assert field != PolyVectorField.from_strings(2, ["2*x1 + 1/3", "-x2"])
        memo = {}
        point = (F(1, 3), F(-2))
        trees = list(enumerate_by_leaf(4))
        values = [elementary_differential(field, tree, point, memo) for tree in trees]
        table = memo[oracle._TABLE_KEY]
        for other in (items, text):
            assert [elementary_differential(other, tree, point, memo) for tree in trees] == values
        assert memo[oracle._TABLE_KEY] is table

    @pytest.mark.parametrize("exponent", [-1, 1.5, True, F(1), "1", None])
    def test_exponent_that_is_not_a_non_negative_int_is_refused(self, exponent):
        # x1^-1 is no polynomial: the tree routes would give its Laurent
        # coefficients while the iteration routes fail, so it never gets in.
        cases = (({(exponent, 0): 1}, (exponent, 0)), ([([1, exponent], 1)], (1, exponent)))
        for component, key in cases:
            with pytest.raises(ValueError) as refused:
                PolyVectorField(2, (component, {(0, 0): 1}))
            assert str(refused.value) == f"exponent tuple {key} must hold non-negative ints"

    def test_partials_and_values_through_the_public_routes(self):
        # MIXED is (x2, x1^2 - 1/2*x2).  Where f(x0) = s * e_k, F([[]]) =
        # f'(x0) f(x0) is s times the partials of f along x_k at x0.
        assert field_value(MIXED, (F(1), F(2))) == (F(2), F(0))
        assert elementary_differential(MIXED, parse_tree("[[]]"), (F(1), F(2))) == (F(0), F(4))
        assert field_value(MIXED, (1, 0)) == (F(0), F(1))
        assert elementary_differential(MIXED, parse_tree("[[]]"), (F(1), F(0))) == (F(1), F(-1, 2))

    def test_evaluate_checks_the_point_length(self):
        with pytest.raises(ValueError, match="^point has 1 entries, expected 2$"):
            field_value(MIXED, (F(1),))


class TestIntegerForm:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(spelled=_spelled_tables())
    def test_loaded_field_keeps_the_integer_form_of_its_fractions(self, spelled):
        dim, table, text = spelled
        loaded = load_field({"dim": dim, "components": [text] * dim})
        assert (loaded._coefficients, loaded._top) == field_integers_reference(loaded)
        # Built from the term table or pickled, the field is the same record
        # with the same integer form.
        built = PolyVectorField(dim, (table,) * dim)
        copied = pickle.loads(pickle.dumps(loaded))
        for twin in (built, copied):
            assert twin == loaded and hash(twin) == hash(loaded)
            assert (twin._coefficients, twin._top, twin._recipes) == (
                loaded._coefficients, loaded._top, loaded._recipes,
            )
        # Every monomial of degree 2 or more that a term needs has a recipe:
        # two halves whose product it is, the first of half its degree, and
        # each half of degree 2 or more listed before it.
        order = [monomial for monomial, _ in loaded._recipes]
        for position, (monomial, (left, right)) in enumerate(loaded._recipes):
            assert tuple(map(sum, zip(left, right))) == monomial
            assert sum(left) == sum(monomial) // 2
            assert all(sum(half) < 2 or order.index(half) < position for half in (left, right))
        needed = {monomial for terms in loaded.components for monomial, _ in terms}
        assert {monomial for monomial in needed if sum(monomial) > 1} <= set(order)

    def test_series_routes_convert_only_the_point(self, monkeypatch):
        # With the documents built, the two tree routes share one derivative
        # table, which converts the point; each iteration route converts it
        # once more, and nothing converts the field or the tableau again.
        field = load_field({"dim": 2, "components": ["x2 - 1/3", "2/5*x1^2 - 1/2*x2"]})
        tableau = butcher6(*BUTCHER6_SAMPLES[0])
        point = parse_point("1/2,-2/3", 2)
        calls = []

        def counting(rows):
            rows = [tuple(row) for row in rows]
            calls.append(rows)
            return integer_rows(rows)

        monkeypatch.setattr(oracle, "integer_rows", counting)
        monkeypatch.setattr(verify, "integer_rows", counting)
        flow = flow_series_trees(field, point, 5), flow_series_picard(field, point, 5)
        step = rk_series_trees(tableau, field, point, 5), rk_series_direct(tableau, field, point, 5)
        assert calls == [[point]] * 3
        assert flow[0] == flow[1] and step[0] == step[1]


class TestDifferentialReference:
    def test_directional_derivative_is_linear_in_the_vector(self):
        rng = random.Random(20260822)
        poly = _random_polynomial(rng)
        u = _random_point(rng)
        v = _random_point(rng)
        combined = directional_derivative(poly, tuple(a + b for a, b in zip(u, v)))
        split = directional_derivative(poly, u)
        for exponents, value in directional_derivative(poly, v).items():
            split[exponents] = split.get(exponents, 0) + value
        assert combined == {exponents: value for exponents, value in split.items() if value}


class TestElementaryDifferentials:
    # f = (x2, x1^2 - 1/2*x2) at (1, 2): f = (2, 0), Jacobian rows
    # (0, 1) and (2, -1/2); the only nonzero second derivative is
    # d2f2/dx1^2 = 2.
    POINT = (F(1), F(2))

    def test_single_node_is_the_field(self):
        assert elementary_differential(MIXED, parse_tree("[]"), self.POINT) == (F(2), F(0))

    def test_chain_2_is_jacobian_times_field(self):
        value = elementary_differential(MIXED, parse_tree("[[]]"), self.POINT)
        assert value == (F(0), F(4))

    def test_bushy_3_is_second_derivative(self):
        value = elementary_differential(MIXED, parse_tree("[[],[]]"), self.POINT)
        assert value == (F(0), F(8))

    def test_chain_3_composes(self):
        value = elementary_differential(MIXED, parse_tree("[[[]]]"), self.POINT)
        assert value == (F(4), F(-2))

    def test_memo_is_shared_across_trees(self, monkeypatch):
        # The memo holds one derivative table, and the table keeps each
        # subtree's differential under its children: [[[]]] computes [[]]
        # and [] on its way, so [[],[]] computes itself alone.
        computed = []
        differential = oracle._DerivativeTable.differential

        def counting(table, i):
            if i not in table._memo:
                computed.append(i)
            return differential(table, i)

        monkeypatch.setattr(oracle._DerivativeTable, "differential", counting)
        memo = {}
        first = elementary_differential(MIXED, parse_tree("[[[]]]"), self.POINT, memo)
        assert list(memo) == [oracle._TABLE_KEY]
        table = memo[oracle._TABLE_KEY]
        assert len(computed) == 3
        second = elementary_differential(MIXED, parse_tree("[[],[]]"), self.POINT, memo)
        assert memo == {oracle._TABLE_KEY: table}
        assert computed[3:] == [tree_id(parse_tree("[[],[]]"))]
        assert first == elementary_differential(MIXED, parse_tree("[[[]]]"), self.POINT)
        assert second == elementary_differential(MIXED, parse_tree("[[],[]]"), self.POINT)

    def test_memo_of_another_point_is_refused(self):
        square = PolyVectorField.from_strings(1, ["x1^2"])
        memo = {}
        assert elementary_differential(square, parse_tree("[]"), (F(1),), memo) == (F(1),)
        # An equal point, and an equal field built anew, share the memo.
        same = PolyVectorField.from_strings(1, ["x1^2"])
        assert elementary_differential(same, parse_tree("[[]]"), [1], memo) == (F(2),)
        with pytest.raises(ValueError, match="another field or point"):
            elementary_differential(square, parse_tree("[]"), (F(2),), memo)
        assert elementary_differential(square, parse_tree("[]"), (F(2),)) == (F(4),)

    def test_memo_of_another_field_is_refused(self):
        square = PolyVectorField.from_strings(1, ["x1^2"])
        cube = PolyVectorField.from_strings(1, ["x1^3"])
        memo = {}
        assert elementary_differential(square, parse_tree("[]"), (F(2),), memo) == (F(4),)
        with pytest.raises(ValueError, match="another field or point"):
            elementary_differential(cube, parse_tree("[[]]"), (F(2),), memo)
        assert elementary_differential(cube, parse_tree("[[]]"), (F(2),)) == (F(96),)

    def test_memo_checks_the_callers_own_point_by_identity(self, monkeypatch):
        # The table keeps the caller's Fractions, so a call with the same
        # point compares no two of them by value.
        field, point = self.SEED_STYLE, self.SEED_STYLE_POINT
        trees = list(enumerate_by_leaf(5))
        memo = {}
        expected = [elementary_differential(field, tree, point) for tree in trees]
        compared = []
        eq = Fraction.__eq__

        def counting(a, b):
            compared.append((a, b))
            return eq(a, b)

        monkeypatch.setattr(Fraction, "__eq__", counting)
        values = [elementary_differential(field, tree, point, memo) for tree in trees]
        monkeypatch.undo()
        assert (len(trees), compared) == (17, [])
        assert values == expected

    def test_point_of_another_length_is_refused(self):
        # (x1*x2, x2) at a point of one entry has no x2 to read.
        field = PolyVectorField.from_strings(2, ["x1*x2", "x2"])
        for point in ((F(2),), (F(2), F(1), F(0))):
            with pytest.raises(ValueError, match=f"^point has {len(point)} entries, expected 2$"):
                elementary_differential(field, parse_tree("[]"), point)
            with pytest.raises(ValueError, match="expected 2"):
                elementary_differential(field, parse_tree("[[]]"), point, {})
        assert elementary_differential(field, parse_tree("[]"), (F(2), F(1))) == (F(2), F(1))

    @pytest.mark.parametrize(
        "field,point",
        [
            (MIXED, (F(1), F(2))),
            (ROTATION, (F(1, 3), F(-1, 2))),
            (_DEGREE_4_FIELDS[0], (F(3, 2),)),
            (_DEGREE_4_FIELDS[1], (F(1, 2), F(-2, 3), F(1))),
            (_DEGREE_4_FIELDS[1], (F(0), F(0), F(0))),
            # Degree 5 with powers up to 5 at a point with no zero entry:
            # every level through 5 has rows from many terms at once.
            (WIDE_6D, (F(1, 2), F(-2, 3), F(3, 2), F(-1), F(1, 3), F(2))),
        ],
    )
    def test_contraction_matches_directional_derivatives(self, field, point):
        memo = {}
        for tree in enumerate_by_leaf(6):
            expected = differential_reference(field, tree, point)
            assert elementary_differential(field, tree, point, memo) == expected, tree
            assert elementary_differential(field, tree, point) == expected, tree

    # Degree-5 monomials of five distinct variables, and x1^2*x2*x3 in two
    # components: the rows of levels 3 to 5 mix repeated and distinct
    # indices, and a child's F(t) is contracted into each.
    DISTINCT = PolyVectorField.from_strings(
        6,
        [
            "x1*x2*x3*x4*x5 - 2*x2*x3*x4*x5*x6 + x1^2*x2*x3",
            "1/2*x1*x3*x4*x5*x6 + x1*x2*x3*x4*x6",
            "x1*x2*x4*x5*x6 - 3*x1^2*x2*x3",
            "-x1*x2*x3*x5*x6 + 2/3*x2*x3*x4*x5*x6",
            "x1*x2*x3*x4*x5 + x1*x2*x3*x4*x6 + x1*x2*x3*x5*x6",
            "x1*x3*x4*x5*x6 - x1*x2*x4*x5*x6",
        ],
    )
    DISTINCT_POINT = (F(1, 2), F(-2, 3), F(3, 2), F(-1), F(1, 3), F(2))

    def test_contraction_mixes_repeated_and_distinct_indices(self):
        # Through order 6, then a tree over five distinct children of
        # orders 1 to 4: level 5 with no repeated child.
        distinct_kids = parse_tree("[[],[[]],[[[]]],[[],[]],[[[[]]]]]")
        assert len(set(distinct_kids.children)) == 5
        memo, reference = {}, {}
        for tree in [*enumerate_by_leaf(6), distinct_kids]:
            expected = differential_reference(self.DISTINCT, tree, self.DISTINCT_POINT, reference)
            assert any(expected), tree
            value = elementary_differential(self.DISTINCT, tree, self.DISTINCT_POINT, memo)
            assert value == expected, tree

    def test_each_entry_is_built_once_across_a_shared_prefix(self):
        # [[], [[]], [[[]]]] and [[], [[]], [[],[]]] share their first two
        # children, so the second contracts only its last child into the
        # entry the first left at (3, its first two children).  Each F(t)
        # is kept under the tree's id.
        stored = []

        class Recording(dict):
            def __setitem__(self, key, value):
                stored.append(key)
                super().__setitem__(key, value)

        table = oracle._DerivativeTable(self.DISTINCT, self.DISTINCT_POINT)
        table._memo = Recording()
        first, second = parse_tree("[[],[[]],[[[]]]]"), parse_tree("[[],[[]],[[],[]]]")
        kids, other = child_ids(tree_id(first)), child_ids(tree_id(second))
        assert kids[:2] == other[:2] and kids != other
        for tree in (first, second):
            numerators, denominator = table.differential(tree_id(tree))
            expected = differential_reference(self.DISTINCT, tree, self.DISTINCT_POINT)
            assert tuple(F(x, denominator) for x in numerators) == expected
        assert len(stored) == len(set(stored))
        later = stored.index(tree_id(first)) + 1
        assert (3, kids[:2]) in stored[:later]
        assert stored[-1] == tree_id(second)
        assert [key for key in stored[later:] if isinstance(key, tuple) and key[0] == 3] == []

    # One term of each degree 0 to 3 per component, as the benchmark's
    # oracle fields have.
    SEED_STYLE = PolyVectorField.from_strings(
        3,
        [
            "x1*x3^2 - 2/3*x1^2 + 3/2*x1 - 1",
            "x1^2*x3 + 1/2*x1*x3 - x3 + 2",
            "-x1*x2*x3 + 3*x1^2 + 2/5*x2 - 1/3",
        ],
    )
    SEED_STYLE_POINT = (F(-1, 2), F(2, 3), F(3, 2))
    # x1^2 - 2*x1 at 1: f' = 2*x1 - 2 is zero, so level 1's one row cancels.
    DERIVATIVE_CANCELS = PolyVectorField.from_strings(1, ["x1^2 - 2*x1"])
    # At (1, 1, 1), f = (2, -2, 1), and level 2 of the first component has
    # rows (x1, x3) and (x2, x3), both 1: putting f into one argument gives
    # row (x3) 1*2 + 1*(-2) = 0, a contraction whose numerators cancel.
    CONTRACTION_CANCELS = PolyVectorField.from_strings(3, ["x1*x3 + x2*x3", "-2", "x1"])

    @pytest.mark.parametrize("case", ["seed-style", "distinct", "level cancels", "contraction cancels"])
    def test_every_stored_row_holds_only_nonzero_numerators(self, case):
        field, point = {
            "seed-style": (self.SEED_STYLE, self.SEED_STYLE_POINT),
            "distinct": (self.DISTINCT, self.DISTINCT_POINT),
            "level cancels": (self.DERIVATIVE_CANCELS, (F(1),)),
            "contraction cancels": (self.CONTRACTION_CANCELS, (F(1),) * 3),
        }[case]
        table = oracle._DerivativeTable(field, point)
        for tree in enumerate_by_leaf(7):
            table.differential(tree_id(tree))
        # The levels and the kept partial contractions: every key but the
        # trees' ids.
        entries = {key: rows for key, (rows, _) in table._memo.items() if isinstance(key, tuple)}
        assert any(key[1] for key in entries)
        for key, rows in entries.items():
            for rest, row in rows.items():
                assert row and all(row.values()), (key, rest, row)
        leaf = tree_id(parse_tree("[]"))
        if case == "level cancels":
            assert entries[(1, ())] == {}
        elif case == "contraction cancels":
            assert set(entries[(2, ())]) == {(0, 2), (1, 2)}
            assert set(entries[(2, (leaf,))]) == {(0,), (1,)}

    def test_the_last_child_is_summed_straight_into_the_differential(self, monkeypatch):
        # _contract makes only the partial contractions the table keeps; the
        # last child of each tree goes into F(t) without one.
        made = []
        contract = oracle._contract

        def recording(entry, kid):
            made.append(contract(entry, kid))
            return made[-1]

        monkeypatch.setattr(oracle, "_contract", recording)
        table = oracle._DerivativeTable(self.DISTINCT, self.DISTINCT_POINT)
        reference = {}
        for tree in enumerate_by_leaf(6):
            numerators, denominator = table.differential(tree_id(tree))
            expected = differential_reference(self.DISTINCT, tree, self.DISTINCT_POINT, reference)
            assert tuple(F(x, denominator) for x in numerators) == expected, tree
        assert made
        kept = [entry for key, entry in table._memo.items() if isinstance(key, tuple) and key[1]]
        for entry in made:
            assert () not in entry[0]
            assert any(entry is other for other in kept)

    @pytest.mark.parametrize(
        "field,point,zero",
        [
            # Derivatives that cancel at x0: F([[]]) = f'(1) f(1) = 0.
            (DERIVATIVE_CANCELS, (F(1),), "[[]]"),
            # An x0 with zero entries, where most terms vanish with it.
            (DISTINCT, (F(0), F(-2, 3), F(0), F(-1), F(1, 3), F(0)), None),
            # A node with three children under a field of degree 2.
            (MIXED, (F(1), F(2)), "[[[],[],[]]]"),
        ],
        ids=["derivatives cancel", "zero entries", "more children than the degree"],
    )
    def test_differentials_match_the_reference(self, field, point, zero):
        memo, reference = {}, {}
        for tree in enumerate_by_leaf(6):
            expected = differential_reference(field, tree, point, reference)
            assert elementary_differential(field, tree, point, memo) == expected, tree
            assert elementary_differential(field, tree, point) == expected, tree
        if zero is not None:
            tree = parse_tree(zero)
            assert not any(differential_reference(field, tree, point))
            assert not any(elementary_differential(field, tree, point, memo))

    def test_nesting_costs_one_stack_frame_per_level(self):
        # The chain of order n under the field 2*x1 + 1 at 1 is f'^(n-1) f.
        order = sys.getrecursionlimit() * 7 // 10
        chain = parse_tree("[]")
        for _ in range(order - 1):
            chain = RootedTree([chain])
        field = PolyVectorField.from_strings(1, ["2*x1 + 1"])
        assert elementary_differential(field, chain, (F(1),)) == (F(3 * 2 ** (order - 1)),)


class TestTauSeries:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TauSeries(())
        with pytest.raises(ValueError):
            TauSeries(((F(1), F(2)), (F(3),)))

    def test_first_difference(self):
        a = TauSeries(((F(1),), (F(2),), (F(3),)))
        b = TauSeries(((F(1),), (F(2),), (F(4),)))
        assert a.first_difference(b) == 2
        assert a.first_difference(a) is None
        # Only shared degrees are compared.
        shorter = TauSeries(((F(1),), (F(2),)))
        assert a.first_difference(shorter) is None
        with pytest.raises(ValueError, match="dimension mismatch"):
            a.first_difference(TauSeries(((F(1), F(2)),)))

    def test_render_and_mapping(self):
        series = flow_series_trees(ROTATION, (F(1), F(0)), 2)
        assert series.render_text() == "tau^0: (1, 0)\ntau^1: (0, -1)\ntau^2: (-1/2, 0)"
        assert series.to_mapping() == {
            "dim": 2,
            "degree": 2,
            "coefficients": [["1", "0"], ["0", "-1"], ["-1/2", "0"]],
        }


class TestHandExpansions:
    def test_rotation_flow_is_cos_and_minus_sin(self):
        series = flow_series_trees(ROTATION, (F(1), F(0)), 6)
        assert series.coeffs == (
            (F(1), F(0)),
            (F(0), F(-1)),
            (F(-1, 2), F(0)),
            (F(0), F(1, 6)),
            (F(1, 24), F(0)),
            (F(0), F(-1, 120)),
            (F(-1, 720), F(0)),
        )

    def test_rk4_linear_stability_polynomial(self):
        series = rk_series_trees(rk4(), LINEAR_1D, (F(1),), 5)
        assert [row[0] for row in series.coeffs] == [
            F(1), F(1), F(1, 2), F(1, 6), F(1, 24), F(0),
        ]
        flow = flow_series_trees(LINEAR_1D, (F(1),), 5)
        assert series.first_difference(flow) == 5
        assert flow.coeffs[5][0] == F(1, 120)

    def test_implicit_midpoint_linear_stability(self):
        # (1 + tau/2) / (1 - tau/2) = 1 + sum_{q>=1} tau^q / 2^(q-1), through
        # degree 12, twice the CLI's cap.
        point = (F(1),)
        expected = [F(1)] + [F(1, 2 ** (q - 1)) for q in range(1, 13)]
        for route in (rk_series_direct, rk_series_trees):
            series = route(implicit_midpoint(), LINEAR_1D, point, 12)
            assert [row[0] for row in series.coeffs] == expected, route.__name__

    def test_quadratic_flow_is_a_geometric_series(self):
        # x' = x^2 has x(tau) = x0 / (1 - x0 tau), through degree 12.
        field = PolyVectorField.from_strings(1, ["x1^2"])
        x0 = F(-2, 3)
        expected = tuple((x0 ** (q + 1),) for q in range(13))
        assert flow_series_picard(field, (x0,), 12).coeffs == expected
        assert flow_series_trees(field, (x0,), 12).coeffs == expected

    def test_explicit_euler_truncates_after_tau(self):
        series = rk_series_trees(explicit_euler(), MIXED, (F(1), F(2)), 4)
        assert series.coeffs[0] == (F(1), F(2))
        assert series.coeffs[1] == field_value(MIXED, (F(1), F(2)))
        assert all(row == (F(0), F(0)) for row in series.coeffs[2:])

    def test_degree_zero_series_is_the_point(self, monkeypatch):
        # The tree routes walk an empty forest: they build no tree.
        built = record_interns(monkeypatch)
        point = (F(1, 3), F(-1, 2))
        assert flow_series_trees(MIXED, point, 0).coeffs == (point,)
        assert flow_series_picard(MIXED, point, 0).coeffs == (point,)
        assert rk_series_direct(rk4(), MIXED, point, 0).coeffs == (point,)
        assert built == []
        assert rk_series_trees(rk4(), MIXED, point, 0).coeffs == (point,)
        # Not even a leaf: the weight evaluator seeds its memo by the leaf's id.
        assert built == []


class TestFlowRoutesAgree:
    def test_trees_match_picard_on_seeded_random_fields(self):
        rng = random.Random(20260822)
        for _ in range(20):
            field = _random_field(rng)
            point = _random_point(rng)
            trees = flow_series_trees(field, point, 5)
            picard = flow_series_picard(field, point, 5)
            assert trees == picard

    def test_trees_match_picard_in_one_dimension(self):
        field = PolyVectorField.from_strings(1, ["x1^2 - 1/3"])
        point = (F(1, 2),)
        assert flow_series_trees(field, point, 6) == flow_series_picard(field, point, 6)


class TestDiscreteRoutesAgree:
    TABLEAUS = (
        explicit_euler(),
        implicit_midpoint(),
        rk4(),
        butcher6(*BUTCHER6_SAMPLES[0]),
    )

    def test_trees_match_direct_on_seeded_random_fields(self):
        rng = random.Random(20260823)
        for _ in range(10):
            field = _random_field(rng)
            point = _random_point(rng)
            for tableau in self.TABLEAUS:
                trees = rk_series_trees(tableau, field, point, 5)
                direct = rk_series_direct(tableau, field, point, 5)
                assert trees == direct, tableau.name

    def test_discrete_matches_flow_through_the_method_order(self):
        point = (F(1, 3), F(-1, 2))
        flow = flow_series_trees(MIXED, point, 6)
        for tableau, order in (
            (explicit_euler(), 1),
            (implicit_midpoint(), 2),
            (rk4(), 4),
            (butcher6(F(2, 5), F(1, 3)), 5),
        ):
            discrete = rk_series_trees(tableau, MIXED, point, 6)
            assert discrete.first_difference(flow) == order + 1, tableau.name


class TestRoutesAgreeOnHigherDerivatives:
    # Fields up to degree 4 in up to three variables, so the tree routes
    # contract third and fourth derivatives, which the degree-2 fields above
    # never do.
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(field_and_point=_random_fields(), tableau=random_tableaus(), degree=st.integers(1, 7))
    @example(
        field_and_point=(_DEGREE_4_FIELDS[1], (F(1, 2), F(-2, 3), F(1))),
        tableau=implicit_midpoint(),
        degree=5,
    )
    def test_tree_routes_match_iteration_routes(self, field_and_point, tableau, degree):
        field, point = field_and_point
        assert flow_series_trees(field, point, degree) == flow_series_picard(field, point, degree)
        assert rk_series_trees(tableau, field, point, degree) == rk_series_direct(
            tableau, field, point, degree
        )


class TestTreeRoutesMatchTheFractionReference:
    # The tree routes sum integer numerators over one denominator per
    # coefficient; the reference builds every weight, F(t), product and sum
    # as a reduced Fraction, with alpha from its arrangement recursion.
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(field_and_point=_random_fields(), tableau=random_tableaus(), degree=st.integers(0, 7))
    @example(
        field_and_point=(_DEGREE_4_FIELDS[1], (F(0), F(-2, 3), F(0))),
        tableau=implicit_midpoint(),
        degree=7,
    )
    @example(
        field_and_point=(_DEGREE_4_FIELDS[0], (F(-3, 2),)),
        tableau=butcher6(*BUTCHER6_SAMPLES[1]),
        degree=6,
    )
    def test_tree_routes_match_fraction_sums(self, field_and_point, tableau, degree):
        field, point = field_and_point
        weights = tableau.elementary_weights()

        def reference(factor):
            (series,) = tree_series_reference(field, point, degree, 1, lambda t: (factor(t),))
            return series

        flow = reference(lambda t: alpha_by_arrangements(t) / tree_factorial(t))
        assert flow_series_trees(field, point, degree).coeffs == flow
        step = reference(lambda t: alpha_by_arrangements(t) * weights.weight(t))
        assert rk_series_trees(tableau, field, point, degree).coeffs == step


class TestIterationRoutesMatchTheFractionReference:
    # The iteration routes run in integers over one scale per coefficient;
    # the reference sweeps the fixed-point equations with every product and
    # sum a reduced Fraction.  Constant fields (degree 0) and zero
    # components test the scales' edge cases.
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        field_and_point=_random_fields() | _random_fields(max_degree=0),
        tableau=random_tableaus(),
        degree=st.integers(0, 7),
    )
    @example(
        field_and_point=(PolyVectorField.from_strings(2, ["3/2", "-1/3"]), (F(1, 2), F(-2, 3))),
        tableau=rk4(),
        degree=5,
    )
    @example(
        field_and_point=(PolyVectorField(2, ({}, {(2, 0): F(-1, 2)})), (F(0), F(-3, 2))),
        tableau=implicit_midpoint(),
        degree=6,
    )
    @example(
        field_and_point=(_DEGREE_4_FIELDS[1], (F(-1, 2), F(0), F(2, 3))),
        tableau=butcher6(*BUTCHER6_SAMPLES[2]),
        degree=7,
    )
    def test_iteration_routes_match_fraction_iteration(self, field_and_point, tableau, degree):
        field, point = field_and_point
        flow, _ = iteration_series_reference(field, point, degree)
        assert flow_series_picard(field, point, degree).coeffs == flow
        step, _ = iteration_series_reference(field, point, degree, tableau)
        assert rk_series_direct(tableau, field, point, degree).coeffs == step


class TestTreeField:
    # Butcher's theorem as a check.  On the field with one variable per tree
    # of order <= 6 (helpers.tree_field), the exact flow from 0 is
    # y_t = tau^|t| / t! and one step is y_t = b . Phi(t) tau^|t|.  The
    # iteration routes know no trees, so they recompute every 1/t! and every
    # elementary weight on their own; with b a unit vector e_i, the step
    # gives stage i's Phi_i(t).  The tree routes must agree with them here
    # too, sigma and all.
    FOREST, FIELD = tree_field(6)
    ZERO = (F(0),) * len(FOREST)

    def _tree_monomials(self, value):
        """Coefficients through tau^6 with value(t) on component t at tau^|t|
        and zero elsewhere."""
        return tuple(
            tuple(value(tree) if tree.order == q else F(0) for tree in self.FOREST)
            for q in range(7)
        )

    def test_fixture_is_the_tree_field(self):
        text = (Path(__file__).parent / "fixtures" / "tree_field6.json").read_text()
        assert load_field(text) == self.FIELD

    def test_flow_gives_every_tree_factorial(self):
        picard = flow_series_picard(self.FIELD, self.ZERO, 6)
        assert picard.coeffs == self._tree_monomials(lambda t: F(1, tree_factorial(t)))
        assert flow_series_trees(self.FIELD, self.ZERO, 6) == picard

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(tableau=random_tableaus())
    @example(tableau=rk4())
    @example(tableau=implicit_midpoint())
    @example(tableau=explicit_euler())
    @example(tableau=butcher6(*BUTCHER6_SAMPLES[0]))
    def test_step_gives_every_elementary_weight(self, tableau):
        weights = tableau.elementary_weights()
        units = [tuple(F(int(i == j)) for j in range(tableau.stages)) for i in range(tableau.stages)]
        checks = [(tableau.b, weights.weight)] + [
            (unit, lambda t, i=i: weights.vector(t)[i]) for i, unit in enumerate(units)
        ]
        for b, value in checks:
            method = ButcherTableau(tableau.name, tableau.a, b, tableau.c)
            direct = rk_series_direct(method, self.FIELD, self.ZERO, 6)
            assert direct.coeffs == self._tree_monomials(value), b
            assert rk_series_trees(method, self.FIELD, self.ZERO, 6) == direct, b


class TestSharedForest:
    def test_results_do_not_depend_on_what_the_forest_holds(self, fresh_forest):
        # The tree routes and verify_order walk the process's one forest and
        # key their memos by tree id; what earlier calls grew must not change
        # what they return.
        tableau = butcher6(*BUTCHER6_SAMPLES[0])
        point = (F(1, 2), F(-2, 3), F(3, 2), F(-1), F(1, 3), F(2))

        def results():
            return (
                flow_series_trees(WIDE_6D, point, 6),
                rk_series_trees(tableau, WIDE_6D, point, 6),
                verify_order(tableau, 8),
            )

        fresh = results()
        assert fresh[2].achieved_order == 5
        assert len(fresh_forest.ends) - 1 == 6
        enumerate_by_leaf(12)
        assert len(fresh_forest.ends) - 1 == 12
        assert results() == fresh


def _with_fresh_tables(route, *args):
    """route(*args) read off derivative tables built for this call alone."""
    kept = oracle._TABLES
    oracle._TABLES = weakref.WeakKeyDictionary()
    try:
        return route(*args)
    finally:
        oracle._TABLES = kept


class TestFieldTable:
    # The tree routes read F(t) off one derivative table per field, kept for
    # the last point a route asked for and held weakly: the flow and the
    # step at one field and point share it, a new point replaces it, and it
    # goes when its field does.  Each test builds its own field, so no other
    # test's table is kept for it.
    POINTS = ((F(1, 2), F(-1, 3)), (F(2), F(1)))

    @staticmethod
    def _field():
        return PolyVectorField.from_strings(2, ["x2^3 - 1/2*x1*x2", "x1^2*x2 + 3/4"])

    def test_flow_and_step_at_one_point_build_one_table(self, monkeypatch):
        built, computed = [], []
        init, differential = oracle._DerivativeTable.__init__, oracle._DerivativeTable.differential

        def counting_init(table, field, point):
            built.append(tuple(point))
            init(table, field, point)

        def counting_differential(table, i):
            if i not in table._memo:
                computed.append(i)
            return differential(table, i)

        monkeypatch.setattr(oracle._DerivativeTable, "__init__", counting_init)
        monkeypatch.setattr(oracle._DerivativeTable, "differential", counting_differential)
        field, (here, there) = self._field(), self.POINTS
        flow = flow_series_trees(field, here, 6)
        step = rk_series_trees(rk4(), field, here, 6)
        assert built == [here]
        # Every F(t) the step needs, the flow computed: none is computed twice.
        assert len(computed) == len(set(computed)) == len(list(enumerate_by_leaf(6)))
        tree = parse_tree("[[],[[]]]")
        assert elementary_differential(field, tree, here) == elementary_differential(
            field, tree, here, {}
        )
        assert built == [here, here]  # the explicit memo built its own
        # A new point builds a second table, which the step shares too, and
        # the first point after it a third.
        assert flow_series_trees(field, there, 6) == _with_fresh_tables(
            flow_series_trees, field, there, 6
        )
        rk_series_trees(rk4(), field, there, 6)
        assert built[2:] == [there, there]  # the second is the fresh one
        assert rk_series_trees(rk4(), field, here, 6) == step
        assert flow_series_trees(field, here, 6) == flow
        assert built[4:] == [here]

    def test_step_after_flow_asks_no_weight_of_a_zero_differential(self, monkeypatch):
        # The walk reads F(t) before w(t).  After the flow, every F(t) is
        # kept, so the step asks the weight of exactly the trees whose F(t)
        # is not zero; under this field of degree 2, F(t) of a tree with a
        # node of three or more children is.
        asked = []
        integer_weight = TableauWeights.integer_weight

        def recording(weights, tree):
            asked.append(tree)
            return integer_weight(weights, tree)

        monkeypatch.setattr(TableauWeights, "integer_weight", recording)
        field = PolyVectorField.from_strings(2, ["x2^2 - 1/2*x1", "x1^2 + 3/4"])
        point = self.POINTS[0]
        flow_series_trees(field, point, 6)
        step = rk_series_trees(rk4(), field, point, 6)
        forest = list(enumerate_by_leaf(6))
        nonzero = [tree for tree in forest if any(elementary_differential(field, tree, point))]
        assert parse_tree("[[],[],[]]") in forest and parse_tree("[[],[],[]]") not in nonzero
        assert asked == nonzero
        monkeypatch.undo()
        assert step == _with_fresh_tables(rk_series_trees, rk4(), field, point, 6)

    def test_step_alone_with_explicit_euler_matches_the_reference(self):
        # On a fresh table, the step computes every F(t), though explicit
        # Euler weighs only the single node.
        field, point = self._field(), self.POINTS[1]
        tableau = explicit_euler()
        weights = tableau.elementary_weights()
        (expected,) = tree_series_reference(
            field, point, 6, 1, lambda t: (alpha_by_arrangements(t) * weights.weight(t),)
        )
        step = _with_fresh_tables(rk_series_trees, tableau, field, point, 6)
        assert step.coeffs == expected
        assert all(not any(row) for row in expected[2:])

    def test_table_goes_with_its_field(self):
        field = self._field()
        flow_series_trees(field, self.POINTS[0], 5)
        table = weakref.ref(oracle._TABLES[field])
        assert table() is not None
        del field
        gc.collect()
        assert table() is None

    def test_field_is_left_as_it_was(self):
        # The table lives beside the field, not in it: the field's
        # attributes, and so its pickle, hash and equality, stay the same.
        field = self._field()
        before = pickle.dumps(field), hash(field), dict(vars(field))
        flow_series_trees(field, self.POINTS[0], 5)
        rk_series_trees(rk4(), field, self.POINTS[0], 5)
        elementary_differential(field, parse_tree("[[]]"), self.POINTS[1])
        assert (pickle.dumps(field), hash(field), dict(vars(field))) == before
        assert field == self._field()

    def test_field_is_hashed_once(self, monkeypatch):
        # The table is looked up by the field's hash on every series; a field
        # is immutable, so it hashes its coefficients once, when built.
        field, point = self._field(), self.POINTS[0]
        value = hash(field)
        table = oracle._field_table(field, point)
        hashed = []
        fraction_hash = Fraction.__hash__

        def counting_hash(number):
            hashed.append(number)
            return fraction_hash(number)

        monkeypatch.setattr(Fraction, "__hash__", counting_hash)
        assert hash(field) == value
        assert oracle._TABLES.get(field) is table
        assert oracle._field_table(field, point) is table
        assert hashed == []
        monkeypatch.undo()
        # Equal fields hash alike, built from items or from text, and a
        # pickled field comes back equal, with the same hash.
        items = PolyVectorField(
            2, ({(0, 3): 1, (1, 1): F(-1, 2)}, {(2, 1): 1, (0, 0): F(3, 4)})
        )
        assert items == field and hash(items) == value
        copied = pickle.loads(pickle.dumps(field))
        assert copied == field and hash(copied) == value

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        calls=st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 1), st.booleans(), st.integers(0, 6)),
            min_size=1,
            max_size=8,
        )
    )
    def test_interleaved_fields_and_points_match_fresh_tables(self, calls):
        fields = (self._field(), WIDE_6D)
        points = (self.POINTS, tuple(tuple(F(k - i, 3) for k in range(6)) for i in (1, 2)))
        tableau = butcher6(*BUTCHER6_SAMPLES[1])
        for f, p, step, degree in calls:
            route = partial(rk_series_trees, tableau) if step else flow_series_trees
            args = fields[f], points[f][p], degree
            assert route(*args) == _with_fresh_tables(route, *args), (f, p, step, degree)

    def test_four_threads_at_two_points_give_the_single_thread_series(self):
        # A short switch interval makes the threads interleave inside the
        # routes, so one replaces the table another is still reading.
        field, tableau = self._field(), butcher6(*BUTCHER6_SAMPLES[0])

        def series(point):
            return flow_series_trees(field, point, 6), rk_series_trees(tableau, field, point, 6)

        expected = [_with_fresh_tables(series, point) for point in self.POINTS]
        start = threading.Barrier(4)
        results = [None] * 4

        def run(slot):
            start.wait(timeout=10)
            results[slot] = [series(self.POINTS[(slot + r) % 2]) for r in range(4)]

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for slot, got in enumerate(results):
            assert got == [expected[(slot + r) % 2] for r in range(4)], slot


class TestHeavyField:
    def test_degree_400_field_matches_the_trees_in_time(self):
        # The worst accepted field: five terms of degree MAX_FIELD_DEGREE.
        # The bound is loose, about 0.02 s on a 2-core Xeon; products over
        # reduced Fractions take 0.3 s, powers built one factor at a time 6 s.
        field = PolyVectorField.from_strings(
            2, ["x1^400 + x1^200*x2^200 + x2^400", "x1^399*x2 - x1*x2^399"]
        )
        tableau = butcher6(*BUTCHER6_SAMPLES[0])
        point = (F(1, 2), F(1, 3))
        start = time.perf_counter()
        direct = rk_series_direct(tableau, field, point, 6)
        assert time.perf_counter() - start < 2
        assert direct == rk_series_trees(tableau, field, point, 6)


class TestValidation:
    def test_degree_must_be_nonnegative(self):
        with pytest.raises(ValueError, match=">= 0"):
            flow_series_trees(ROTATION, (F(1), F(0)), -1)

    def test_point_length_checked(self):
        with pytest.raises(ValueError, match="expected 2"):
            flow_series_picard(ROTATION, (F(1),), 3)
        with pytest.raises(ValueError, match="expected 2"):
            rk_series_direct(rk4(), ROTATION, (F(1), F(0), F(0)), 3)
