"""Order-condition generation checks.

Core claims:
  * order 4, four stages, explicit + c-substituted yields exactly the
    classical block of 8 equations (frozen here term by term);
  * the c-substituted weight equals the raw weight under the row-sum
    binding c[i] -> sum_j a[i,j], for both explicit and general shapes;
  * the explicit flag removes a[i,j] with i <= j and c[1] entirely;
  * duplicate conditions collapse, unsatisfiable ones survive and are
    flagged;
  * render_generic reproduces the pinned nested-sum strings and names
    levels beyond the index alphabet with subscripts.
"""

from fractions import Fraction

import pytest

from helpers import free_variables, power, substitute

from butcher_kit.algebra import CoeffPolynomial, a_var, b_var, c_var, poly_sum
from butcher_kit.conditions import (
    GenerationFlags,
    all_order_conditions,
    render_generic,
    symbolic_weights,
)
from butcher_kit.trees import RootedTree, enumerate_by_leaf, parse_tree, tree_factorial

EXPLICIT_C = GenerationFlags(explicit=True, substitute_c=True)
RAW = GenerationFlags()


def B(i):
    return CoeffPolynomial.variable(b_var(i))


def C(i):
    return CoeffPolynomial.variable(c_var(i))


def A(i, j):
    return CoeffPolynomial.variable(a_var(i, j))


def _chain(q):
    tree = RootedTree()
    for _ in range(q - 1):
        tree = RootedTree((tree,))
    return tree


def _conditions_by_tree(max_order, stages, flags):
    return {c.tree: c for c in all_order_conditions(max_order, stages, flags)}


# The classical 4-stage order-4 block, written out exactly.
CLASSICAL_ORDER4_BLOCK = [
    (B(1) + B(2) + B(3) + B(4), Fraction(1)),
    (B(2) * C(2) + B(3) * C(3) + B(4) * C(4), Fraction(1, 2)),
    (B(3) * C(2) * A(3, 2) + B(4) * (C(2) * A(4, 2) + C(3) * A(4, 3)), Fraction(1, 6)),
    (B(4) * C(2) * A(3, 2) * A(4, 3), Fraction(1, 24)),
    (
        B(3) * power(C(2), 2) * A(3, 2) + B(4) * (power(C(2), 2) * A(4, 2) + power(C(3), 2) * A(4, 3)),
        Fraction(1, 12),
    ),
    (B(2) * power(C(2), 2) + B(3) * power(C(3), 2) + B(4) * power(C(4), 2), Fraction(1, 3)),
    (
        B(3) * C(2) * C(3) * A(3, 2) + B(4) * C(4) * (C(2) * A(4, 2) + C(3) * A(4, 3)),
        Fraction(1, 8),
    ),
    (B(2) * power(C(2), 3) + B(3) * power(C(3), 3) + B(4) * power(C(4), 3), Fraction(1, 4)),
]


class TestClassicalBlock:
    def test_exactly_the_eight_equations(self):
        generated = all_order_conditions(4, 4, EXPLICIT_C)
        assert len(generated) == 8
        assert {(c.lhs, c.rhs) for c in generated} == set(
            (lhs, rhs) for lhs, rhs in CLASSICAL_ORDER4_BLOCK
        )

    def test_right_hand_sides(self):
        generated = all_order_conditions(4, 4, EXPLICIT_C)
        expected = {
            Fraction(1),
            Fraction(1, 2),
            Fraction(1, 6),
            Fraction(1, 24),
            Fraction(1, 12),
            Fraction(1, 3),
            Fraction(1, 8),
            Fraction(1, 4),
        }
        assert {c.rhs for c in generated} == expected

    def test_the_one_sixth_equation_comes_from_the_order3_chain(self):
        condition = _conditions_by_tree(3, 4, EXPLICIT_C)[_chain(3)]
        assert condition.rhs == Fraction(1, 6)
        assert condition.lhs == CLASSICAL_ORDER4_BLOCK[2][0]

    def test_rhs_is_reciprocal_tree_factorial(self):
        conditions = all_order_conditions(6, 3, RAW)
        assert [c.tree for c in conditions] == list(enumerate_by_leaf(6))
        for condition in conditions:
            assert condition.rhs == Fraction(1, tree_factorial(condition.tree))


class TestWeightVectors:
    def test_single_node_weight_is_sum_of_b(self):
        assert symbolic_weights(3, RAW).weight(RootedTree()) == B(1) + B(2) + B(3)
        assert symbolic_weights(2, RAW).vector(RootedTree()) == (
            CoeffPolynomial.constant(1),
            CoeffPolynomial.constant(1),
        )

    def test_one_leaf_child_with_c_substitution(self):
        tree = parse_tree("[[]]")
        flags = GenerationFlags(substitute_c=True)
        assert symbolic_weights(2, flags).vector(tree) == (C(1), C(2))

    def test_one_leaf_child_explicit_kills_first_stage(self):
        tree = parse_tree("[[]]")
        assert symbolic_weights(2, EXPLICIT_C).vector(tree) == (CoeffPolynomial.zero(), C(2))

    def test_one_leaf_child_raw_row_sums(self):
        tree = parse_tree("[[]]")
        assert symbolic_weights(2, RAW).vector(tree) == (A(1, 1) + A(1, 2), A(2, 1) + A(2, 2))
        explicit_raw = GenerationFlags(explicit=True)
        assert symbolic_weights(2, explicit_raw).vector(tree) == (
            CoeffPolynomial.zero(),
            A(2, 1),
        )

    def test_stage_count_must_be_positive(self):
        with pytest.raises(ValueError):
            symbolic_weights(0)


def _row_sum_binding(stages, explicit):
    last = (lambda i: i - 1) if explicit else (lambda i: stages)
    return {
        c_var(i): poly_sum(A(i, j) for j in range(1, last(i) + 1))
        for i in range(1, stages + 1)
    }


class TestCSubstitutionConsistency:
    # The invariant holds for every tree and stage count; the raw general
    # form grows exponentially with order, so the biggest combinations are
    # spot-checked rather than swept.

    @pytest.mark.parametrize("stages", [1, 2, 3, 4])
    def test_all_trees_through_order_5(self, stages):
        binding = _row_sum_binding(stages, explicit=False)
        with_c = symbolic_weights(stages, GenerationFlags(substitute_c=True))
        raw = symbolic_weights(stages, RAW)
        for tree in enumerate_by_leaf(5):
            assert substitute(with_c.weight(tree), binding) == raw.weight(tree)

    @pytest.mark.parametrize("stages", [1, 2, 3, 4, 5, 6])
    def test_explicit_shape_all_trees_through_order_6(self, stages):
        binding = _row_sum_binding(stages, explicit=True)
        with_c = symbolic_weights(stages, EXPLICIT_C)
        raw = symbolic_weights(stages, GenerationFlags(explicit=True))
        for tree in enumerate_by_leaf(6):
            assert substitute(with_c.weight(tree), binding) == raw.weight(tree)

    def test_order_6_spot_checks_at_six_stages(self):
        binding = _row_sum_binding(6, explicit=False)
        with_c = symbolic_weights(6, GenerationFlags(substitute_c=True))
        raw = symbolic_weights(6, RAW)
        for text in ["[[[[[[]]]]]]", "[[],[],[],[],[]]", "[[[],[]],[[]]]"]:
            tree = parse_tree(text)
            assert substitute(with_c.weight(tree), binding) == raw.weight(tree)


class TestExplicitShape:
    def test_no_upper_triangle_and_no_c1(self):
        for flags in (GenerationFlags(explicit=True), EXPLICIT_C):
            weights = symbolic_weights(4, flags)
            for tree in enumerate_by_leaf(5):
                for var in free_variables(weights.weight(tree)):
                    if var.kind == "a":
                        assert var.i > var.j
                    if var.kind == "c":
                        assert var.i > 1

    def test_chain_beyond_stage_count_collapses_to_zero(self):
        # Strictly lower triangular matrices are nilpotent: the chain with
        # s+1 nodes gets weight 0, leaving an unsatisfiable condition.
        for stages in (1, 2, 3):
            explicit = GenerationFlags(explicit=True)
            condition = _conditions_by_tree(stages + 1, stages, explicit)[_chain(stages + 1)]
            assert condition.lhs.is_zero
            assert condition.unsatisfiable

    def test_satisfiable_conditions_are_not_flagged(self):
        for condition in all_order_conditions(4, 4, EXPLICIT_C):
            assert not condition.unsatisfiable


class TestConditionSets:
    def test_raw_general_keeps_one_condition_per_tree(self):
        conditions = all_order_conditions(4, 2, RAW)
        trees = list(enumerate_by_leaf(4))
        assert [c.tree for c in conditions] == trees
        assert len({(c.lhs, c.rhs) for c in conditions}) == 8

    def test_single_stage_explicit_deduplicates(self):
        # With one explicit stage every order >= 2 weight is 0, so trees of
        # equal factorial collapse.  Through order 5 the only collision is
        # the pair with factorial 20, leaving 16 conditions.
        conditions = all_order_conditions(5, 1, GenerationFlags(explicit=True, substitute_c=True))
        assert len(conditions) == 16
        kept_with_rhs_1_20 = [c for c in conditions if c.rhs == Fraction(1, 20)]
        assert len(kept_with_rhs_1_20) == 1
        assert kept_with_rhs_1_20[0].tree == parse_tree("[[[]],[[]]]")

    @pytest.mark.parametrize(
        "flags", [RAW, GenerationFlags(explicit=True), GenerationFlags(substitute_c=True), EXPLICIT_C]
    )
    def test_coefficients_are_ints(self, flags):
        # Each coefficient counts index choices, so no Fraction ever appears.
        for condition in all_order_conditions(6, 3, flags):
            assert all(type(coeff) is int for _, coeff in condition.lhs.sorted_terms())

    def test_orders_ascend_within_output(self):
        conditions = all_order_conditions(5, 3, EXPLICIT_C)
        orders = [c.order for c in conditions]
        assert orders == sorted(orders)


class TestRendering:
    def test_condition_render_styles(self):
        flags = GenerationFlags(substitute_c=True)
        condition = _conditions_by_tree(2, 2, flags)[parse_tree("[[]]")]
        assert condition.render() == str(condition) == "b[1]*c[1] + b[2]*c[2] == 1/2"
        assert condition.render("latex") == "b_{1} c_{1} + b_{2} c_{2} = \\frac{1}{2}"
        with pytest.raises(ValueError):
            condition.render("html")

    def test_generic_single_node(self):
        assert render_generic(RootedTree()) == "sum_{i=1}^{s} b_i"

    def test_generic_one_child(self):
        assert render_generic(parse_tree("[[]]")) == "sum_{i=1}^{s} b_i (sum_{j=1}^{s} a_{i,j})"

    def test_generic_worked_tree_uses_four_indices_and_a_square(self):
        rendered = render_generic(parse_tree("[[[⊙],[⊙],⊙],⊙]"))
        assert rendered == (
            "sum_{i=1}^{s} b_i (sum_{j=1}^{s} a_{i,j}) "
            "(sum_{j=1}^{s} a_{i,j} (sum_{k=1}^{s} a_{j,k}) "
            "(sum_{k=1}^{s} a_{j,k} (sum_{l=1}^{s} a_{k,l}))^2)"
        )

    def test_generic_index_names_beyond_the_alphabet(self):
        eleven = render_generic(_chain(11))
        assert eleven.endswith("(sum_{w=1}^{s} a_{v,w}))))))))))")
        assert "i_{" not in eleven
        twelve = render_generic(_chain(12))
        deepest = "(sum_{w=1}^{s} a_{v,w} (sum_{i_{12}=1}^{s} a_{w,i_{12}}))"
        assert twelve.endswith(deepest + ")" * 9)
        assert "(sum_{i_{13}=1}^{s} a_{i_{12},i_{13}})" in render_generic(_chain(13))
