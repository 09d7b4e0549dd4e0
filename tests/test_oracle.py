"""Series-expansion checks.

The two routes to each series are independent by construction: trees
versus Picard iteration for the exact flow, trees versus stage fixed-point
iteration for the discrete step.  Exact agreement on random polynomial
fields is the main claim; hand-computed expansions (rotation, linear
stability polynomials) pin the normalization.  The contraction behind
elementary_differential is also checked against the plain formula,
repeated directional derivatives of the field.  Both kinds of route run
in integers, and each is checked against the same series built Fraction by
Fraction.
"""

import random
import time
from fractions import Fraction
from itertools import product

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
    implicit_midpoint,
    iteration_series_reference,
    random_tableaus,
    rk4,
    tree_series_reference,
)

from butcher_kit import oracle
from butcher_kit.oracle import (
    MAX_FIELD_DEGREE,
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
    stage_series_direct,
    stage_series_trees,
)
from butcher_kit.trees import RootedTree, enumerate_by_leaf, parse_tree, tree_factorial

F = Fraction

ROTATION = PolyVectorField.from_strings(2, ["x2", "-x1"])
LINEAR_1D = PolyVectorField.from_strings(1, ["x1"])
MIXED = PolyVectorField.from_strings(2, ["x2", "x1^2 - 1/2*x2"])

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
        assert field.evaluate((F(3),)) == (F(9),)
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

    def test_partials_and_values_through_the_public_routes(self):
        # MIXED is (x2, x1^2 - 1/2*x2).  Where f(x0) = s * e_k, F([[]]) =
        # f'(x0) f(x0) is s times the partials of f along x_k at x0.
        assert MIXED.evaluate((F(1), F(2))) == (F(2), F(0))
        assert elementary_differential(MIXED, parse_tree("[[]]"), (F(1), F(2))) == (F(0), F(4))
        assert MIXED.evaluate((1, 0)) == (F(0), F(1))
        assert elementary_differential(MIXED, parse_tree("[[]]"), (F(1), F(0))) == (F(1), F(-1, 2))

    def test_evaluate_checks_the_point_length(self):
        with pytest.raises(ValueError, match="^point has 1 entries, expected 2$"):
            MIXED.evaluate((F(1),))


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
        # subtree's differential: [[[]]] computes [[]] and [] on its way,
        # so [[],[]] computes itself alone.
        computed = []
        differential = oracle._DerivativeTable.differential

        def counting(table, tree):
            if tree not in table._memo:
                computed.append(tree)
            return differential(table, tree)

        monkeypatch.setattr(oracle._DerivativeTable, "differential", counting)
        memo = {}
        first = elementary_differential(MIXED, parse_tree("[[[]]]"), self.POINT, memo)
        assert list(memo) == [oracle._TABLE_KEY]
        table = memo[oracle._TABLE_KEY]
        assert len(computed) == 3
        second = elementary_differential(MIXED, parse_tree("[[],[]]"), self.POINT, memo)
        assert memo == {oracle._TABLE_KEY: table}
        assert computed[3:] == [parse_tree("[[],[]]")]
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

    @pytest.mark.parametrize(
        "field,point",
        [
            (MIXED, (F(1), F(2))),
            (ROTATION, (F(1, 3), F(-1, 2))),
            (_DEGREE_4_FIELDS[0], (F(3, 2),)),
            (_DEGREE_4_FIELDS[1], (F(1, 2), F(-2, 3), F(1))),
            (_DEGREE_4_FIELDS[1], (F(0), F(0), F(0))),
        ],
    )
    def test_contraction_matches_directional_derivatives(self, field, point):
        memo = {}
        for tree in enumerate_by_leaf(6):
            expected = differential_reference(field, tree, point)
            assert elementary_differential(field, tree, point, memo) == expected, tree
            assert elementary_differential(field, tree, point) == expected, tree


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
        # degree 12, twice the CLI's cap; the stage slope 1 / (1 - tau/2)
        # has coefficients 1 / 2^q.
        point = (F(1),)
        expected = [F(1)] + [F(1, 2 ** (q - 1)) for q in range(1, 13)]
        for route in (rk_series_direct, rk_series_trees):
            series = route(implicit_midpoint(), LINEAR_1D, point, 12)
            assert [row[0] for row in series.coeffs] == expected, route.__name__
        (stage,) = stage_series_direct(implicit_midpoint(), LINEAR_1D, point, 12)
        assert [row[0] for row in stage.coeffs] == [F(1, 2**q) for q in range(12)]

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
        assert series.coeffs[1] == MIXED.evaluate((F(1), F(2)))
        assert all(row == (F(0), F(0)) for row in series.coeffs[2:])

    def test_rk4_second_stage_on_linear_field(self):
        stages = stage_series_trees(rk4(), LINEAR_1D, (F(1),), 5)
        assert len(stages) == 4
        assert [row[0] for row in stages[1].coeffs] == [
            F(1), F(1, 2), F(0), F(0), F(0),
        ]

    def test_degree_zero_series_is_the_point(self, monkeypatch):
        # The tree routes walk an empty forest: they build no tree.
        built, leaf = [], RootedTree()
        post_init = RootedTree.__post_init__

        def counting(tree):
            post_init(tree)
            built.append(tree)

        monkeypatch.setattr(RootedTree, "__post_init__", counting)
        point = (F(1, 3), F(-1, 2))
        assert flow_series_trees(MIXED, point, 0).coeffs == (point,)
        assert flow_series_picard(MIXED, point, 0).coeffs == (point,)
        assert rk_series_direct(rk4(), MIXED, point, 0).coeffs == (point,)
        assert built == []
        assert rk_series_trees(rk4(), MIXED, point, 0).coeffs == (point,)
        # Only the leaf that seeds the tableau's weight evaluator.
        assert built == [leaf]


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

    def test_stage_series_routes_agree(self):
        # Degree 0 still gives each stage its tau^0 slope, f(x0).
        rng = random.Random(20260824)
        for _ in range(5):
            field = _random_field(rng)
            point = _random_point(rng)
            for tableau, degree in product(self.TABLEAUS, range(6)):
                via_trees = stage_series_trees(tableau, field, point, degree)
                via_direct = stage_series_direct(tableau, field, point, degree)
                assert via_trees == via_direct, (tableau.name, degree)
                assert len(via_trees) == tableau.stages
                assert all(series.degree == max(degree - 1, 0) for series in via_trees)

    def test_stage_series_trees_walks_the_forest_once(self, monkeypatch):
        # One walk means one differential memo, so one derivative table for
        # all four stages of rk4.
        built = []
        table = oracle._DerivativeTable

        def counting(*args):
            built.append(args)
            return table(*args)

        monkeypatch.setattr(oracle, "_DerivativeTable", counting)
        stages = stage_series_trees(rk4(), MIXED, (F(1, 3), F(-1, 2)), 5)
        assert len(stages) == 4
        assert len(built) == 1

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

        def reference(count, factor, top=degree):
            return tree_series_reference(field, point, top, count, factor)

        (flow,) = reference(1, lambda t: (alpha_by_arrangements(t) / tree_factorial(t),))
        assert flow_series_trees(field, point, degree).coeffs == flow
        (step,) = reference(1, lambda t: (alpha_by_arrangements(t) * weights.weight(t),))
        assert rk_series_trees(tableau, field, point, degree).coeffs == step
        stages = reference(
            tableau.stages,
            lambda t: tuple(alpha_by_arrangements(t) * phi for phi in weights.vector(t)),
            max(degree, 1),
        )
        assert [series.coeffs for series in stage_series_trees(tableau, field, point, degree)] == [
            coeffs[1:] for coeffs in stages
        ]


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
        step, stages = iteration_series_reference(field, point, degree, tableau)
        assert rk_series_direct(tableau, field, point, degree).coeffs == step
        assert [s.coeffs for s in stage_series_direct(tableau, field, point, degree)] == stages


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
