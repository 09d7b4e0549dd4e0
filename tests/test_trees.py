"""Tree layer checks.

Core claims:
  * the forest builds each group when first asked for and each tree
    once, matches the leaf-grafting reference of tests/helpers.py tree
    for tree, in order, through order 12, and reproduces the known counts
    1,1,2,4,9,20,48,115,286,719;
  * coefficient functions hit the worked values (order 8, factorial 192,
    alpha 1/2 for [[[],[[]],[[]]],[]]-shaped input) and closed forms for
    chains and bushy trees;
  * tree_factorial agrees with a brute-force monotone-labeling count
    (hook length route) on every tree of order <= 5;
  * the helpers' symmetry_delta, behind the alpha reference, agrees with
    a brute-force distinct-permutation count;
  * alpha is 1/sigma and matches the arrangement-weight recursion, and
    sigma satisfies Cayley's formula, through order 10;
  * construction is child-order invariant and parse/format round-trips,
    on every small tree and on hypothesis-drawn shapes;
  * the counts through the CLI's order cap (14) follow the A000081
    recurrence.
"""

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import alpha_by_arrangements, symmetry_delta, trees_by_grafting

from butcher_kit.cli import _ORDER_CAP, _TREES_OF_ORDER
from butcher_kit.trees import (
    MAX_PARSE_DEPTH,
    RootedTree,
    TreesByOrder,
    TreeSyntaxError,
    alpha,
    enumerate_by_leaf,
    format_tree,
    parse_tree,
    sigma,
    tree_factorial,
)

KNOWN_COUNTS = (1, 1, 2, 4, 9, 20, 48, 115, 286, 719)

# A tree shape with its children in a given order: a tuple of shapes.
ORDERED_SHAPES = st.recursive(
    st.just(()), lambda kids: st.lists(kids, max_size=3).map(tuple), max_leaves=12
)


def _build(shape, rng=None):
    kids = [_build(kid, rng) for kid in shape]
    if rng is not None:
        rng.shuffle(kids)
    return RootedTree(tuple(kids))


def _text_in_given_order(shape):
    return "[" + ",".join(_text_in_given_order(kid) for kid in shape) + "]"


def _a000081(n):
    """Rooted trees with 1..n nodes, by a(m+1) = (1/m) sum_k s(k) a(m-k+1),
    where s(k) is the sum of d * a(d) over the divisors d of k."""
    a = [0, 1]
    for m in range(1, n):
        total = sum(
            sum(d * a[d] for d in range(1, k + 1) if k % d == 0) * a[m - k + 1]
            for k in range(1, m + 1)
        )
        assert total % m == 0
        a.append(total // m)
    return tuple(a[1:])


def _chain(q):
    tree = RootedTree()
    for _ in range(q - 1):
        tree = RootedTree((tree,))
    return tree


def _bushy(q):
    return RootedTree((RootedTree(),) * (q - 1))


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

    def test_groups_match_the_grafting_reference_through_order_12(self):
        # Same trees in the same order: the production groups come out
        # sorted without a sort, the reference sorts with the operators.
        assert tuple(enumerate_by_leaf(12).groups()) == trees_by_grafting(12)

    def test_each_tree_is_built_once(self, monkeypatch):
        built = []
        original = RootedTree.__post_init__

        def counting(tree):
            built.append(tree)
            original(tree)

        monkeypatch.setattr(RootedTree, "__post_init__", counting)
        forest = enumerate_by_leaf(10)
        assert len(built) == forest.total() == 1205

    def test_groups_are_sorted_and_duplicate_free(self):
        for group in enumerate_by_leaf(7).groups():
            for left, right in zip(group, group[1:]):
                assert left < right

    def test_enumeration_is_deterministic(self):
        assert list(enumerate_by_leaf(6).groups()) == list(enumerate_by_leaf(6).groups())

    def test_groups_are_built_on_demand_and_once(self, monkeypatch):
        # Asked out of order, the groups are the eager forest's, and each
        # tree is built once: order 5 builds orders 1-4 on the way.
        expected = enumerate_by_leaf(5)
        built = []
        original = RootedTree.__post_init__

        def counting(tree):
            built.append(tree)
            original(tree)

        monkeypatch.setattr(RootedTree, "__post_init__", counting)
        forest = TreesByOrder(7)
        assert built == []
        assert forest.trees_of_order(5) == expected.trees_of_order(5)
        assert len(built) == expected.total() == 17
        assert forest.trees_of_order(3) == expected.trees_of_order(3)
        assert len(built) == 17
        assert list(forest.groups())[:5] == list(expected.groups())
        assert len(built) == forest.total() == 17 + 20 + 48
        assert TreesByOrder(0).total() == 0 and list(TreesByOrder(0)) == []

    def test_order_accessor_bounds(self):
        forest = enumerate_by_leaf(3)
        assert forest.max_order == 3
        with pytest.raises(ValueError):
            forest.trees_of_order(0)
        with pytest.raises(ValueError):
            forest.trees_of_order(4)
        with pytest.raises(ValueError):
            enumerate_by_leaf(0)

    def test_counts_follow_the_a000081_recurrence(self):
        assert _a000081(10) == KNOWN_COUNTS
        # Through the CLI's order cap, whose size limits are priced from
        # its own table of counts.
        assert enumerate_by_leaf(_ORDER_CAP).counts() == _a000081(_ORDER_CAP)
        assert _TREES_OF_ORDER == _a000081(_ORDER_CAP)

    def test_every_enumerated_tree_has_its_group_order(self):
        forest = enumerate_by_leaf(7)
        for q in range(1, 8):
            assert all(t.order == q for t in forest.trees_of_order(q))


class TestCoefficients:
    def test_worked_example_triple(self):
        tree = parse_tree("[[[⊙],[⊙],⊙],⊙]")
        assert tree.order == 8
        assert tree_factorial(tree) == 192
        assert alpha(tree) == Fraction(1, 2)

    def test_single_node(self):
        leaf = RootedTree()
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

    def test_alpha_is_one_over_sigma_through_order_10(self):
        for tree in enumerate_by_leaf(10):
            assert alpha(tree) == Fraction(1, sigma(tree)) == alpha_by_arrangements(tree)

    def test_cayley_formula_through_order_10(self):
        # q!/sigma(t) labelings per shape: q^(q-1) labeled rooted trees.
        forest = enumerate_by_leaf(10)
        for q in range(1, 11):
            total = sum(Fraction(math.factorial(q), sigma(t)) for t in forest.trees_of_order(q))
            assert total == q ** (q - 1)


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
                assert RootedTree(tuple(kids)) == tree

    def test_compare_is_antisymmetric_and_total(self):
        sample = list(enumerate_by_leaf(5))
        for left in sample:
            for right in sample:
                assert (left < right) == (right > left)
                assert [left < right, left == right, left > right].count(True) == 1

    def test_order_dominates_comparison(self):
        forest = enumerate_by_leaf(6)
        for q in range(1, 6):
            for small in forest.trees_of_order(q):
                for large in forest.trees_of_order(q + 1):
                    assert small < large

    def test_hash_is_computed_once_per_tree(self, monkeypatch):
        tree = _chain(30)
        assert hash(tree) == hash(_chain(30))
        calls = []
        original = RootedTree.__hash__

        def counting(node):
            calls.append(node)
            return original(node)

        monkeypatch.setattr(RootedTree, "__hash__", counting)
        hash(tree)
        hash(tree)
        # Cached: a lookup hashes the tree itself, not every subtree again.
        assert len(calls) == 2

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(shape=ORDERED_SHAPES, rng=st.randoms(use_true_random=False))
    def test_identity_does_not_depend_on_child_order(self, shape, rng):
        tree = _build(shape)
        shuffled = _build(shape, rng)
        parsed = parse_tree(_text_in_given_order(shape))
        for other in (shuffled, parsed, parse_tree(format_tree(tree))):
            assert other == tree
            assert hash(other) == hash(tree)
            assert format_tree(other) == format_tree(tree)

    def test_children_require_tree_type(self):
        with pytest.raises(TypeError):
            RootedTree(("[]",))

    def test_trees_do_not_order_against_other_types(self):
        with pytest.raises(TypeError):
            RootedTree() < "[]"

    def test_deep_trees_compare_hash_and_sort(self):
        # Two trees nested as deep as parse_tree allows, of one order and
        # differing only at the bottom: comparison recurses through every
        # level without reaching the recursion limit.
        depth = MAX_PARSE_DEPTH - 1 - 3
        low, high = (
            parse_tree("[" * depth + bottom + "]" * depth)
            for bottom in ("[[[]],[]]", "[[[],[]]]")
        )
        assert low.order == high.order
        assert low < high and not high < low and high > low
        assert low != high
        assert low == parse_tree(format_tree(low))
        assert hash(low) == hash(parse_tree(format_tree(low)))
        assert len({low, high, parse_tree(format_tree(high))}) == 2
        assert sorted([high, low, high]) == [low, high, high]


class TestParseFormat:
    def test_round_trip_all_small_trees(self):
        for tree in enumerate_by_leaf(7):
            assert parse_tree(format_tree(tree)) == tree

    def test_format_has_no_whitespace(self):
        for tree in enumerate_by_leaf(5):
            assert " " not in format_tree(tree)

    def test_whitespace_and_glyph_input(self):
        assert parse_tree(" [ [] , ⊙ ] ") == parse_tree("[[],[]]")
        assert parse_tree("⊙") == RootedTree()
        assert parse_tree("[⊙]") == parse_tree("[[]]")

    def test_non_canonical_input_is_canonicalized(self):
        assert format_tree(parse_tree("[[[]],[]]")) == "[[],[[]]]"

    def test_str_and_repr_are_the_bracket_form(self):
        tree = parse_tree("[[[]],[]]")
        assert str(tree) == "[[],[[]]]"
        assert repr(tree) == "RootedTree([[],[[]]])"

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
            ("[[]x]", 3),
        ],
    )
    def test_errors_carry_positions(self, text, position):
        with pytest.raises(TreeSyntaxError) as err:
            parse_tree(text)
        assert err.value.position == position
        assert "position" in str(err.value)
