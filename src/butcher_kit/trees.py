"""Unordered rooted trees and their exact combinatorial coefficients.

A tree is a node carrying an unordered multiset of subtrees.  The canonical
representative stores children sorted under a fixed total order (by order,
ties broken lexicographically on the children sequences, recursively), so
structural equality coincides with equality of unordered shapes.

The forest is generated in that order directly (grow_by_leaf): a tree with q
nodes is a root over a non-decreasing sequence of earlier trees whose orders
sum to q-1, and the sequences are walked depth-first in lexicographic order,
so every tree is built once and each group comes out sorted.  For
canonical-order generation of rooted trees see Beyer and Hedetniemi,
"Constant time generation of rooted trees", SIAM J. Comput. 9 (1980).

Bracket notation: "[]" is the single node, "[[],[]]" is a root with two
leaf children.  parse_tree() also accepts the glyph "⊙" for "[]".

For a tree t with children t_1, ..., t_n:

    order(t)          = 1 + sum(order(t_k))         number of nodes
    tree_factorial(t) = order(t) * prod(tree_factorial(t_k))
    sigma(t)          = prod(m_g!) * prod(sigma(t_k))
    alpha(t)          = 1 / sigma(t)

with m_g the multiplicities of the distinct children.  sigma counts the
tree's symmetries, the permutations of its nodes that fix its shape
(Butcher, Numerical Methods for ODEs, sections 30-31; Hairer, Norsett and
Wanner I, section II.2).  alpha(t)/tree_factorial(t) =
1/(sigma(t) * tree_factorial(t)) weights the elementary differential of t
in the Taylor expansion of an exact flow; alpha(t) alone weights the
discrete (one-step method) expansion.  Like order, tree_factorial and
sigma are integers computed once per tree instance and cached on it, so a
forest pays for each subtree's factors once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, total_ordering
from itertools import chain, groupby, islice
from typing import Iterator

__all__ = [
    "RootedTree",
    "TreesByOrder",
    "TreeSyntaxError",
    "tree_factorial",
    "sigma",
    "alpha",
    "grow_by_leaf",
    "enumerate_by_leaf",
    "parse_tree",
    "format_tree",
]

_LEAF_GLYPH = "⊙"


@total_ordering
@dataclass(frozen=True)
class RootedTree:
    """Canonical unordered rooted tree.

    RootedTree() is the single node "[]"; RootedTree(children) roots a new
    node over the given subtrees, in any order: the constructor sorts them,
    so two trees compare equal exactly when they are the same unordered
    shape.  The comparison operators realize the total order used
    everywhere: by order, ties broken lexicographically on the canonical
    children sequences, recursively.
    """

    children: tuple["RootedTree", ...] = ()

    def __post_init__(self) -> None:
        kids = tuple(self.children)
        for kid in kids:
            if not isinstance(kid, RootedTree):
                raise TypeError(f"child is not a RootedTree: {kid!r}")
        # Sorting here is what makes equality order-insensitive.
        object.__setattr__(self, "children", tuple(sorted(kids)))

    @cached_property
    def order(self) -> int:
        """Number of nodes."""
        return 1 + sum(kid.order for kid in self.children)

    @cached_property
    def _factorial(self) -> int:
        return self.order * math.prod(kid._factorial for kid in self.children)

    @cached_property
    def _sigma(self) -> int:
        # Canonical sorting makes equal children adjacent.
        runs = math.prod(math.factorial(len(tuple(run))) for _, run in groupby(self.children))
        return runs * math.prod(kid._sigma for kid in self.children)

    @cached_property
    def _key(self) -> tuple:
        # (order, keys of canonical children); injective on canonical trees,
        # and tuple comparison realizes the documented total order.
        return (self.order, tuple(kid._key for kid in self.children))

    @cached_property
    def _hash(self) -> int:
        # Equal trees have equal children, so this agrees with __eq__; the
        # children's hashes are cached, so it costs one step per child.
        return hash(self.children)

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "RootedTree") -> bool:
        if not isinstance(other, RootedTree):
            return NotImplemented
        return self._key < other._key

    def __str__(self) -> str:
        return format_tree(self)

    def __repr__(self) -> str:
        return f"RootedTree({format_tree(self)})"


def tree_factorial(tree: RootedTree) -> int:
    """order(t) times the factorials of the children."""
    return tree._factorial


def sigma(tree: RootedTree) -> int:
    """Number of symmetries of the tree.

    prod(m_g!) over the multiplicities m_g of the distinct children, times
    the children's sigma.  It divides (order(t) - 1)! and is 1 for any chain.
    """
    return tree._sigma


def alpha(tree: RootedTree) -> Fraction:
    """Arrangement weight 1/sigma(t), in (0, 1]."""
    return Fraction(1, tree._sigma)


@dataclass(frozen=True)
class TreesByOrder:
    """Trees grouped by order; group q-1 holds the trees with q nodes.

    Each group is duplicate-free and sorted under the trees' total order,
    so iteration order is deterministic.
    """

    per_order: tuple[tuple[RootedTree, ...], ...]

    @property
    def max_order(self) -> int:
        return len(self.per_order)

    def trees_of_order(self, q: int) -> tuple[RootedTree, ...]:
        if not 1 <= q <= len(self.per_order):
            raise ValueError(f"order {q} outside enumerated range 1..{len(self.per_order)}")
        return self.per_order[q - 1]

    def counts(self) -> tuple[int, ...]:
        return tuple(len(group) for group in self.per_order)

    def total(self) -> int:
        return sum(len(group) for group in self.per_order)

    def __iter__(self) -> Iterator[RootedTree]:
        return chain.from_iterable(self.per_order)


def grow_by_leaf() -> Iterator[tuple[RootedTree, ...]]:
    """The groups of trees of order 1, 2, 3, ..., each in canonical order.

    A tree with q nodes is a root over a non-decreasing sequence of earlier
    trees whose orders sum to q-1, and canonical order on such trees is
    lexicographic order on those sequences.  Walking the sequences
    depth-first, each pick taken in canonical order, therefore yields the
    group already sorted and builds each tree exactly once: no set, no
    sort.  A group is built only when it is asked for, so a caller that
    stops early never pays for the larger orders.

    The names grow_by_leaf and enumerate_by_leaf predate this construction.
    They stay until the benchmark's tracer, which resolves enumerate_by_leaf
    by name (perfbench/spans.py), moves to a new forest entry point.
    """
    forest: list[RootedTree] = []
    # ends[s]: number of trees with at most s nodes; forest[ends[s-1]:ends[s]]
    # is the group of order s.
    ends = [0]
    picked: list[RootedTree] = []

    def child_sequences(first: int, left: int) -> Iterator[tuple[RootedTree, ...]]:
        if not left:
            yield tuple(picked)
            return
        # Later picks come no earlier than forest[first], so they have at
        # least as many nodes: a pick of s nodes can be completed only when
        # the left - s nodes after it are none or at least s.
        for size in (*range(1, left // 2 + 1), left):
            for index in range(max(first, ends[size - 1]), ends[size]):
                picked.append(forest[index])
                yield from child_sequences(index, left - size)
                picked.pop()

    while True:
        group = tuple(RootedTree(kids) for kids in child_sequences(0, len(ends) - 1))
        forest.extend(group)
        ends.append(len(forest))
        yield group


def enumerate_by_leaf(max_order: int) -> TreesByOrder:
    """All trees of order 1..max_order: the first groups of grow_by_leaf.

    perfbench/spans.py resolves this name, so it stays (see grow_by_leaf).
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    return TreesByOrder(tuple(islice(grow_by_leaf(), max_order)))


class TreeSyntaxError(ValueError):
    """Malformed tree text; .position is the 0-based offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Deepest nesting parse_tree accepts.  The tree functions recurse once per
# level, so a deeper tree would exhaust the interpreter's recursion limit.
MAX_PARSE_DEPTH = 200


def parse_tree(text: str) -> RootedTree:
    """Parse bracket notation into a canonical tree.

    Grammar: tree := "[" [ tree ("," tree)* ] "]", with "⊙" accepted as a
    synonym for "[]".  Whitespace between tokens is ignored.  Unbalanced
    brackets, stray characters and nesting deeper than MAX_PARSE_DEPTH
    raise TreeSyntaxError with a position.
    """
    pos = 0
    end = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < end and text[pos].isspace():
            pos += 1

    def parse_node(depth: int) -> RootedTree:
        nonlocal pos
        skip_ws()
        if pos >= end:
            raise TreeSyntaxError("expected a tree, found end of input", pos)
        if depth > MAX_PARSE_DEPTH:
            raise TreeSyntaxError(f"tree nested deeper than {MAX_PARSE_DEPTH} levels", pos)
        if text[pos] == _LEAF_GLYPH:
            pos += 1
            return RootedTree()
        if text[pos] != "[":
            raise TreeSyntaxError(f"expected '[' or '{_LEAF_GLYPH}', found {text[pos]!r}", pos)
        pos += 1
        skip_ws()
        if pos < end and text[pos] == "]":
            pos += 1
            return RootedTree()
        children = [parse_node(depth + 1)]
        while True:
            skip_ws()
            if pos >= end:
                raise TreeSyntaxError("unbalanced brackets: missing ']'", pos)
            if text[pos] == ",":
                pos += 1
                children.append(parse_node(depth + 1))
            elif text[pos] == "]":
                pos += 1
                return RootedTree(tuple(children))
            else:
                raise TreeSyntaxError(f"expected ',' or ']', found {text[pos]!r}", pos)

    tree = parse_node(1)
    skip_ws()
    if pos != end:
        raise TreeSyntaxError(f"stray characters after tree: {text[pos:]!r}", pos)
    return tree


def format_tree(tree: RootedTree) -> str:
    """Canonical bracket string, no whitespace; inverse of parse_tree."""
    return "[" + ",".join(format_tree(kid) for kid in tree.children) + "]"
