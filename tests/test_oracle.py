"""Series-expansion checks.

The two routes to each series are independent by construction: trees
versus Picard iteration for the exact flow, trees versus stage fixed-point
iteration for the discrete step.  Exact agreement on random polynomial
fields is the main claim; hand-computed expansions (rotation, linear
stability polynomials) pin the normalization.  The contraction behind
elementary_differential is also checked against the plain formula,
repeated directional derivatives of the field.
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
    butcher6,
    directional_derivative,
    explicit_euler,
    implicit_midpoint,
    random_tableaus,
    rk4,
)

from butcher_kit.oracle import (
    MAX_FIELD_DEGREE,
    FieldError,
    FieldSyntaxError,
    PolyVectorField,
    StatePolynomial,
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
from butcher_kit.trees import enumerate_by_leaf, parse_tree

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
    return StatePolynomial(2, terms)


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
def _random_fields(draw):
    """Fields of dim 1-3 with total degree <= 4 and a rational point."""
    dim = draw(st.integers(1, 3))
    monomials = [
        exponents
        for exponents in product(range(5), repeat=dim)
        if sum(exponents) <= 4
    ]
    coefficients = st.fractions(-3, 3, max_denominator=4).filter(bool)
    components = tuple(
        StatePolynomial(
            dim,
            draw(st.dictionaries(st.sampled_from(monomials), coefficients, max_size=5)),
        )
        for _ in range(dim)
    )
    point = tuple(draw(st.fractions(-2, 2, max_denominator=3)) for _ in range(dim))
    return PolyVectorField(dim, components), point


def _differential_reference(field, tree, point):
    """F(tree)(point) by repeated directional derivatives, then evaluation."""
    kids = [_differential_reference(field, kid, point) for kid in tree.children]
    values = []
    for component in field.components:
        derived = component
        for vector in kids:
            derived = directional_derivative(derived, vector)
        values.append(derived.evaluate(point))
    return tuple(values)


class TestComponentParsing:
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
        assert field.components[0].terms() == {
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
        assert field.components[0].terms() == {(half, MAX_FIELD_DEGREE - half): F(1)}

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


class TestStatePolynomial:
    def test_partial_and_evaluate(self):
        poly = MIXED.components[1]  # x1^2 - 1/2*x2
        assert poly.evaluate((F(1), F(2))) == F(0)
        assert poly.partial(1).terms() == {(1, 0): F(2)}
        assert poly.partial(2).terms() == {(0, 0): F(-1, 2)}

    def test_directional_derivative_is_linear_in_the_vector(self):
        rng = random.Random(20260822)
        poly = _random_polynomial(rng)
        u = _random_point(rng)
        v = _random_point(rng)
        combined = directional_derivative(poly, tuple(a + b for a, b in zip(u, v)))
        split = directional_derivative(poly, u) + directional_derivative(poly, v)
        assert combined == split

    def test_dimension_checks(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            StatePolynomial.constant(1, 1) + StatePolynomial.constant(2, 1)
        with pytest.raises(ValueError, match="expected 2"):
            MIXED.components[0].evaluate((F(1),))


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

    def test_memo_is_shared_across_trees(self):
        memo = {}
        first = elementary_differential(MIXED, parse_tree("[[[]]]"), self.POINT, memo)
        assert parse_tree("[[]]") in memo
        second = elementary_differential(MIXED, parse_tree("[[],[]]"), self.POINT, memo)
        assert first == elementary_differential(MIXED, parse_tree("[[[]]]"), self.POINT)
        assert second == elementary_differential(MIXED, parse_tree("[[],[]]"), self.POINT)

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
            expected = _differential_reference(field, tree, point)
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
        # (1 + tau/2) / (1 - tau/2) expanded.
        series = rk_series_direct(implicit_midpoint(), LINEAR_1D, (F(1),), 4)
        assert [row[0] for row in series.coeffs] == [
            F(1), F(1), F(1, 2), F(1, 4), F(1, 8),
        ]

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

    def test_degree_zero_series_is_the_point(self):
        point = (F(1, 3), F(-1, 2))
        assert flow_series_trees(MIXED, point, 0).coeffs == (point,)
        assert flow_series_picard(MIXED, point, 0).coeffs == (point,)
        assert rk_series_direct(rk4(), MIXED, point, 0).coeffs == (point,)
        assert rk_series_trees(rk4(), MIXED, point, 0).coeffs == (point,)


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
        rng = random.Random(20260824)
        for _ in range(5):
            field = _random_field(rng)
            point = _random_point(rng)
            for tableau in self.TABLEAUS:
                via_trees = stage_series_trees(tableau, field, point, 5)
                via_direct = stage_series_direct(tableau, field, point, 5)
                assert via_trees == via_direct, tableau.name
                assert len(via_trees) == tableau.stages
                assert all(series.degree == 4 for series in via_trees)

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
    @given(field_and_point=_random_fields(), tableau=random_tableaus(), degree=st.integers(1, 5))
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


class TestValidation:
    def test_degree_must_be_nonnegative(self):
        with pytest.raises(ValueError, match=">= 0"):
            flow_series_trees(ROTATION, (F(1), F(0)), -1)

    def test_point_length_checked(self):
        with pytest.raises(ValueError, match="expected 2"):
            flow_series_picard(ROTATION, (F(1),), 3)
        with pytest.raises(ValueError, match="expected 2"):
            rk_series_direct(rk4(), ROTATION, (F(1), F(0), F(0)), 3)
