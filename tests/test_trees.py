"""Tree layer checks.

Core claims:
  * the two independent enumerations (leaf grafting, integer partitions)
    agree and reproduce the known counts 1,1,2,4,9,20,48,115,286,719;
  * coefficient functions hit the worked values (order 8, factorial 192,
    alpha 1/2 for [[[],[[]],[[]]],[]]-shaped input) and closed forms for
    chains and bushy trees;
  * tree_factorial agrees with a brute-force monotone-labeling count
    (hook length route) on every tree of order <= 5;
  * symmetry_delta agrees with a brute-force distinct-permutation count;
  * construction is child-order invariant and parse/format round-trips.
"""

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from butcher_kit.trees import (
    MAX_PARSE_DEPTH,
    RootedTree,
    TreeSyntaxError,
    alpha,
    compare_trees,
    enumerate_by_leaf,
    enumerate_by_partitions,
    format_tree,
    from_children,
    parse_tree,
    single_node,
    symmetry_delta,
    tree_factorial,
)

KNOWN_COUNTS = (1, 1, 2, 4, 9, 20, 48, 115, 286, 719)


def _chain(q):
    tree = single_node()
    for _ in range(q - 1):
        tree = from_children([tree])
    return tree


def _bushy(q):
    return from_children([single_node()] * (q - 1))


def _ordered_monotone_labelings(tree):
    # Brute force: labelings 1..q of the ordered shape with parent < child.
    # Equals q!/tree_factorial by the hook length formula, which makes it an
    # oracle for tree_factorial that never multiplies subtree sizes.
    parents = []

    def walk(node, parent_index):
        index = len(parents)
        parents.append(parent_index)
        for kid in node.children:
            walk(kid, index)

    walk(tree, -1)
    q = len(parents)
    count = 0
    for perm in permutations(range(q)):
        if all(p < 0 or perm[p] < perm[i] for i, p in enumerate(parents)):
            count += 1
    return count


class TestEnumeration:
    def test_counts_match_known_table(self):
        assert enumerate_by_leaf(10).counts() == KNOWN_COUNTS
        assert enumerate_by_leaf(10).total() == 1205

    def test_partition_route_same_counts(self):
        assert enumerate_by_partitions(10).counts() == KNOWN_COUNTS

    def test_routes_agree_as_sets_through_order_8(self):
        by_leaf = enumerate_by_leaf(8)
        by_parts = enumerate_by_partitions(8)
        for q in range(1, 9):
            assert set(by_leaf.trees_of_order(q)) == set(by_parts.trees_of_order(q))

    def test_groups_are_sorted_and_duplicate_free(self):
        for group in enumerate_by_leaf(7).per_order:
            for left, right in zip(group, group[1:]):
                assert compare_trees(left, right) == -1

    def test_enumeration_is_deterministic(self):
        assert enumerate_by_leaf(6) == enumerate_by_leaf(6)
        assert enumerate_by_partitions(6) == enumerate_by_partitions(6)

    def test_order_accessor_bounds(self):
        forest = enumerate_by_leaf(3)
        assert forest.max_order == 3
        with pytest.raises(ValueError):
            forest.trees_of_order(0)
        with pytest.raises(ValueError):
            forest.trees_of_order(4)
        with pytest.raises(ValueError):
            enumerate_by_leaf(0)

    def test_every_enumerated_tree_has_its_group_order(self):
        forest = enumerate_by_partitions(7)
        for q in range(1, 8):
            assert all(t.order == q for t in forest.trees_of_order(q))


class TestCoefficients:
    def test_worked_example_triple(self):
        tree = parse_tree("[[[⊙],[⊙],⊙],⊙]")
        assert tree.order == 8
        assert tree_factorial(tree) == 192
        assert alpha(tree) == Fraction(1, 2)

    def test_single_node(self):
        leaf = single_node()
        assert leaf.order == 1
        assert tree_factorial(leaf) == 1
        assert symmetry_delta(leaf) == 1
        assert alpha(leaf) == 1

    def test_chain_closed_forms(self):
        # A chain of q nodes has factorial q! and weight 1.
        for q in range(1, 9):
            chain = _chain(q)
            assert tree_factorial(chain) == math.factorial(q)
            assert symmetry_delta(chain) == 1
            assert alpha(chain) == 1

    def test_bushy_closed_forms(self):
        # A root over q-1 leaves has factorial q and weight 1/(q-1)!.
        for q in range(2, 9):
            bushy = _bushy(q)
            assert tree_factorial(bushy) == q
            assert symmetry_delta(bushy) == 1
            assert alpha(bushy) == Fraction(1, math.factorial(q - 1))

    def test_factorial_against_labeling_count(self):
        for tree in enumerate_by_leaf(5):
            q = tree.order
            expected = math.factorial(q) // tree_factorial(tree)
            assert _ordered_monotone_labelings(tree) == expected

    def test_symmetry_delta_against_permutation_count(self):
        for tree in enumerate_by_leaf(5):
            assert symmetry_delta(tree) == len(set(permutations(tree.children)))

    def test_alpha_in_unit_interval_with_factorial_denominator(self):
        for tree in enumerate_by_leaf(6):
            value = alpha(tree)
            assert 0 < value <= 1
            assert math.factorial(tree.order) % value.denominator == 0

    def test_labeling_identity_per_order(self):
        # sum over trees of order q of alpha * q!/factorial equals (q-1)!.
        forest = enumerate_by_leaf(10)
        for q in range(1, 11):
            total = sum(
                alpha(t) * Fraction(math.factorial(q), tree_factorial(t))
                for t in forest.trees_of_order(q)
            )
            assert total == math.factorial(q - 1)


class TestCanonicalForm:
    def test_child_order_is_irrelevant(self):
        a = parse_tree("[[],[[]]]")
        b = parse_tree("[[[]],[]]")
        assert a == b
        assert hash(a) == hash(b)
        assert format_tree(a) == format_tree(b)

    def test_shuffled_construction_is_stable(self):
        rng = random.Random(20260822)
        for tree in enumerate_by_leaf(6):
            if len(tree.children) < 2:
                continue
            for _ in range(5):
                kids = list(tree.children)
                rng.shuffle(kids)
                assert from_children(kids) == tree

    def test_compare_is_antisymmetric_and_total(self):
        sample = list(enumerate_by_leaf(5))
        for left in sample:
            for right in sample:
                assert compare_trees(left, right) == -compare_trees(right, left)
                assert (compare_trees(left, right) == 0) == (left == right)

    def test_order_dominates_comparison(self):
        forest = enumerate_by_leaf(6)
        for q in range(1, 6):
            for small in forest.trees_of_order(q):
                for large in forest.trees_of_order(q + 1):
                    assert compare_trees(small, large) == -1

    def test_children_require_tree_type(self):
        with pytest.raises(TypeError):
            RootedTree(("[]",))


class TestParseFormat:
    def test_round_trip_all_small_trees(self):
        for tree in enumerate_by_leaf(7):
            assert parse_tree(format_tree(tree)) == tree

    def test_format_has_no_whitespace(self):
        for tree in enumerate_by_leaf(5):
            assert " " not in format_tree(tree)

    def test_whitespace_and_glyph_input(self):
        assert parse_tree(" [ [] , ⊙ ] ") == parse_tree("[[],[]]")
        assert parse_tree("⊙") == single_node()
        assert parse_tree("[⊙]") == parse_tree("[[]]")

    def test_non_canonical_input_is_canonicalized(self):
        assert format_tree(parse_tree("[[[]],[]]")) == "[[],[[]]]"

    def test_nesting_up_to_the_depth_limit_round_trips(self):
        text = "[" * MAX_PARSE_DEPTH + "]" * MAX_PARSE_DEPTH
        assert format_tree(parse_tree(text)) == text

    def test_deep_nesting_is_a_syntax_error(self):
        with pytest.raises(TreeSyntaxError) as err:
            parse_tree("[" * 3000 + "]" * 3000)
        assert err.value.position == MAX_PARSE_DEPTH

    @pytest.mark.parametrize(
        "text,position",
        [
            ("", 0),
            ("[[]", 3),
            ("[]]", 2),
            ("x", 0),
            ("[,[]]", 1),
            ("[[],]", 4),
            ("[] []", 3),
        ],
    )
    def test_errors_carry_positions(self, text, position):
        with pytest.raises(TreeSyntaxError) as err:
            parse_tree(text)
        assert err.value.position == position
        assert "position" in str(err.value)
