"""Tree layer checks.

Core claims:
  * the forest builds each group when first asked for and each tree
    once, matches the leaf-grafting reference of tests/helpers.py tree
    for tree, in order, through order 12, and reproduces the known counts
    1,1,2,4,9,20,48,115,286,719;
  * the forest is one per process: a second call builds nothing, views
    read interleaved give what separate forests give, and four threads
    growing it at once leave the grafting reference's groups; four
    threads formatting it at once keep the texts one thread gives;
  * trees far above the grown forest (a chain 200 deep, a broom) meet
    closed forms for every factor, text, weight and differential
    without growing it;
  * the weight and Phi of a parsed tree outside the forest intern no
    shape, and match the memo-free reference;
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
    on every small tree and on hypothesis-drawn shapes, and equal shapes,
    however made, are one slotted object;
  * the counts through the CLI's order cap (14) follow the A000081
    recurrence.
"""

import copy
import math
import os
import pickle
import random
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    A000081,
    alpha_by_arrangements,
    in_fresh_process,
    power,
    record_interns,
    rk4,
    symmetry_delta,
    trees_by_grafting,
    vector_reference,
    weight_reference,
)

from butcher_kit import trees
from butcher_kit.algebra import CoeffPolynomial, a_var, b_var
from butcher_kit.cli import _ORDER_CAP
from butcher_kit.conditions import render_generic, symbolic_weights
from butcher_kit.oracle import elementary_differential, load_field
from butcher_kit.verify import weight_value
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
    tree_counts,
    tree_factorial,
    tree_id,
)

KNOWN_COUNTS = A000081[:10]

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

    def test_each_tree_is_built_once(self, monkeypatch, fresh_forest):
        built = record_interns(monkeypatch)
        forest = enumerate_by_leaf(10)
        assert len(built) == forest.total() == 1205
        # The forest is shared: a second call builds no tree.
        assert enumerate_by_leaf(10).total() == 1205
        assert len(built) == 1205

    def test_groups_are_sorted_and_duplicate_free(self):
        for group in enumerate_by_leaf(7).groups():
            for left, right in zip(group, group[1:]):
                assert left < right

    def test_enumeration_is_deterministic(self):
        assert list(enumerate_by_leaf(6).groups()) == list(enumerate_by_leaf(6).groups())

    def test_groups_are_built_on_demand_and_once(self, monkeypatch, request):
        # Asked out of order, the groups are the eager forest's, and each
        # tree is built once: order 5 builds orders 1-4 on the way.
        expected = tuple(enumerate_by_leaf(5).groups())
        request.getfixturevalue("fresh_forest")
        built = record_interns(monkeypatch)
        forest = TreesByOrder(7)
        assert built == []
        assert forest.trees_of_order(5) == expected[4]
        assert len(built) == sum(map(len, expected)) == 17
        assert forest.trees_of_order(3) == expected[2]
        assert len(built) == 17
        assert list(forest.groups())[:5] == list(expected)
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
        for p in range(13):
            assert tree_counts(p) == TreesByOrder(p).counts()
        # Through the CLI's order cap, whose size limits are priced from
        # the recurrence.
        assert len(A000081) >= _ORDER_CAP
        assert tree_counts(_ORDER_CAP) == A000081[:_ORDER_CAP]
        assert enumerate_by_leaf(_ORDER_CAP).counts() == A000081[:_ORDER_CAP]

    def test_every_enumerated_tree_has_its_group_order(self):
        forest = enumerate_by_leaf(7)
        for q in range(1, 8):
            assert all(t.order == q for t in forest.trees_of_order(q))


class TestSharedForest:
    """One forest per process: every view reads it, and it grows once."""

    def test_interleaved_views_yield_what_separate_forests_yield(self, monkeypatch):
        alone = {}
        for p in (6, 9):
            monkeypatch.setattr(trees, "_FOREST", trees._Forest())
            alone[p] = list(TreesByOrder(p).groups())
        monkeypatch.setattr(trees, "_FOREST", trees._Forest())
        iterators = {p: TreesByOrder(p).groups() for p in (6, 9)}
        seen = {6: [], 9: []}
        # The longer view grows the forest first, then each reads groups
        # the other built, and the longer one grows it again past order 6.
        for p in (9, 9, 6, 6, 6, 9, 6, 9, 6, 9, 6, 9, 9, 9, 9):
            seen[p].append(next(iterators[p]))
        for iterator in iterators.values():
            assert next(iterator, None) is None
        assert seen == alone
        assert alone[9] == list(trees_by_grafting(9))

    def test_four_threads_grow_one_forest(self, fresh_forest):
        # A short switch interval makes the threads interleave inside the
        # growth; a group built twice, or a tree lost, changes the groups.
        start = threading.Barrier(4)
        results = [None] * 4

        def grow(slot):
            start.wait(timeout=10)
            results[slot] = tuple(enumerate_by_leaf(9).groups())

        threads = [threading.Thread(target=grow, args=(slot,)) for slot in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected = trees_by_grafting(9)
        assert results == [expected] * 4
        assert tuple(TreesByOrder(9).groups()) == expected
        assert len(fresh_forest.trees) == sum(KNOWN_COUNTS[:9])
        assert len({trees.tree_id(tree) for tree in fresh_forest.trees}) == sum(KNOWN_COUNTS[:9])

    def test_four_threads_format_one_forest(self):
        # In a fresh process, no text is kept yet when four threads format
        # the order-9 forest at once, two of them largest tree first.  The
        # kept texts are dropped and the race run again, five rounds in
        # all; every text matches what one thread gives.
        probe = """
import json, sys, threading
from butcher_kit import trees
from butcher_kit.trees import enumerate_by_leaf, format_tree, tree_id

forest = list(enumerate_by_leaf(9))
empty = not any(trees._TEXTS)
start = threading.Barrier(4)
results = [[] for _ in range(4)]

def run(slot):
    for _ in range(5):
        if start.wait(timeout=10) == 0:
            trees._TEXTS[:] = [None] * len(trees._TEXTS)
        start.wait(timeout=10)
        order = forest[::-1] if slot % 2 else forest
        texts = {tree_id(tree): format_tree(tree) for tree in order}
        results[slot].append([texts[tree_id(tree)] for tree in forest])

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
finished = not any(thread.is_alive() for thread in threads)
trees._TEXTS[:] = [None] * len(trees._TEXTS)
alone = [format_tree(tree) for tree in forest]
threaded = sum(results, [])
print(json.dumps({"empty": empty, "finished": finished, "alone": alone, "threaded": threaded}))
"""
        result = in_fresh_process(probe)
        assert result["empty"] and result["finished"]
        assert result["alone"] == [format_tree(tree) for tree in enumerate_by_leaf(9)]
        assert len(result["alone"]) == sum(KNOWN_COUNTS[:9])
        assert result["threaded"] == [result["alone"]] * 20


class TestTreesOutsideTheForest:
    """Trees far above the grown forest evaluate in time linear in size.

    The chain nests as deep as parse_tree allows; the broom is a chain of
    150 nodes whose last node carries 20 leaves.  Each is checked against
    closed forms, and none of the calls grows the forest.
    """

    CHAIN = "[" * MAX_PARSE_DEPTH + "]" * MAX_PARSE_DEPTH
    BROOM = "[" * 150 + ",".join(["[]"] * 20) + "]" * 150

    @staticmethod
    def _generic(nodes, leaves):
        # render_generic of a chain of nodes whose last node has leaves
        # leaves, built inside out; index names as conditions documents.
        def name(depth):
            return "ijklmpqruvw"[depth] if depth < 11 else f"i_{{{depth + 1}}}"

        def head(depth):
            return f"sum_{{{name(depth + 1)}=1}}^{{s}} a_{{{name(depth)},{name(depth + 1)}}}"

        text = f"({head(nodes - 1)})^{leaves}" if leaves else ""
        for depth in range(nodes - 2, -1, -1):
            text = f"({head(depth)} {text})" if text else f"({head(depth)})"
        return f"sum_{{i=1}}^{{s}} b_i {text}" if text else "sum_{i=1}^{s} b_i"

    def test_closed_forms_without_growing_the_forest(self, monkeypatch):
        chain, broom = parse_tree(self.CHAIN), parse_tree(self.BROOM)
        built = record_interns(monkeypatch)
        linear = load_field((Path(__file__).parent / "fixtures" / "linear1d.json").read_text())
        x0 = (Fraction(3, 7),)
        weights, numeric = symbolic_weights(1), rk4().elementary_weights()
        a, b = CoeffPolynomial.variable(a_var(1, 1)), CoeffPolynomial.variable(b_var(1))
        cases = (
            (chain, self.CHAIN, 200, math.factorial(200), 1, (MAX_PARSE_DEPTH, 0), x0),
            (broom, self.BROOM, 170, math.factorial(170) // math.factorial(20),
             math.factorial(20), (150, 20), (Fraction(0),)),
        )
        for tree, text, order, factorial, symmetries, shape, differential in cases:
            assert tree.order == order
            assert tree_factorial(tree) == factorial
            assert sigma(tree) == symmetries
            assert alpha(tree) == Fraction(1, symmetries)
            assert format_tree(tree) == text
            assert render_generic(tree) == self._generic(*shape)
            # One stage: each of the order - 1 edges brings one a[1,1].
            assert weights.weight(tree) == b * power(a, order - 1)
            # rk4's A is strictly lower triangular, so A^4 = 0.
            assert numeric.weight(tree) == 0
            assert weight_value(rk4(), tree) == 0
            # F of the linear field: x0 down a chain, 0 past 20 children.
            assert elementary_differential(linear, tree, x0) == differential
        # Nothing grew the forest: no tree was built but single nodes.
        assert all(order == 1 for order in built)

    def test_weights_intern_no_shape(self, monkeypatch):
        # A shape no other test builds: a root over 23 brooms [[],[[]]],
        # and a root over two of those, whose child is outside the forest.
        # Each child's factor is kept by the child's id, so no tree [kid]
        # is asked of the id store.
        tree = parse_tree("[" + ",".join(["[[],[[]]]"] * 23) + "]")
        pair = RootedTree((tree, tree))
        built = record_interns(monkeypatch)
        weights = rk4().elementary_weights()
        values = [(weights.weight(t), weights.vector(t)) for t in (tree, pair)]
        assert built == []
        assert values == [
            (weight_reference(rk4(), t), vector_reference(rk4(), t)) for t in (tree, pair)
        ]


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

    def test_runs_share_equal_pairs(self):
        # Each (child id, multiplicity) pair is one object in every run that
        # holds it, and each run still counts a shape's distinct children in
        # canonical order.
        shared, held = {}, 0
        for tree in enumerate_by_leaf(9):
            runs = trees.child_runs(tree_id(tree))
            assert runs == tuple(Counter(tree_id(kid) for kid in tree.children).items())
            for pair in runs:
                assert shared.setdefault(pair, pair) is pair
            held += len(runs)
        assert len(shared) < held / 2  # most pairs recur


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

    def test_pickles_carry_no_id(self):
        # Ids belong to one process's id space, so a pickled tree is rebuilt
        # from its children and looks its id up again where it is loaded:
        # here it is the one tree of its shape.  A fresh interpreter first
        # gives ids 0..i+1 to chains, so the shape (not a chain) gets an id
        # above this process's i there, and the text still matches.
        tree = enumerate_by_leaf(6).trees_of_order(6)[7]
        assert len(tree.children) > 1
        for copied in (pickle.loads(pickle.dumps(tree)), copy.copy(tree), copy.deepcopy(tree)):
            assert copied is tree
        loader = (
            "import pickle, sys\n"
            "from butcher_kit.trees import RootedTree, enumerate_by_leaf, format_tree, tree_id\n"
            "chain = RootedTree()\n"
            "for _ in range(int(sys.argv[1]) + 1):\n"
            "    chain = RootedTree((chain,))\n"
            "tree = pickle.loads(sys.stdin.buffer.read())\n"
            "assert tree is enumerate_by_leaf(6).trees_of_order(6)[7]\n"
            "print(format_tree(tree), tree_id(tree))\n"
        )
        paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        loaded = subprocess.run(
            [sys.executable, "-c", loader, str(trees.tree_id(tree))],
            input=pickle.dumps(tree), env=env, capture_output=True, check=True, timeout=60,
        )
        text, loaded_id = loaded.stdout.decode().split()
        assert text == format_tree(tree)
        assert int(loaded_id) > trees.tree_id(tree)

    def test_equal_shapes_are_one_object(self):
        # Built by hand in any child order, parsed or grown, a shape is one
        # object, which carries its id and nothing else.
        grown = enumerate_by_leaf(6).trees_of_order(6)
        leaf = RootedTree()
        by_hand = RootedTree((RootedTree((leaf,)), leaf, RootedTree((leaf,))))
        shuffled = RootedTree([leaf, RootedTree([leaf]), RootedTree([leaf])])
        parsed = parse_tree("[[[]],[],[[]]]")
        assert by_hand is shuffled is parsed is grown[grown.index(parsed)]
        assert RootedTree() is leaf is parse_tree("⊙") is enumerate_by_leaf(1).trees_of_order(1)[0]
        for tree in (by_hand, leaf, *grown):
            assert not hasattr(tree, "__dict__")
            with pytest.raises(AttributeError):
                tree.label = "x"
        assert RootedTree.__slots__ == ("_id",)

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
