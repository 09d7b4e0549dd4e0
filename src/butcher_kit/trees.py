"""Unordered rooted trees and their exact combinatorial coefficients.

A tree is a node carrying an unordered multiset of subtrees.  The canonical
representative stores children sorted under a fixed total order (by order,
ties broken lexicographically on the children sequences, recursively), so
structural equality coincides with equality of unordered shapes.

The forest, TreesByOrder, is generated in that order directly: a tree with
q nodes is a root over a non-decreasing sequence of earlier trees whose
orders sum to q-1, and the sequences are walked depth-first in lexicographic
order, so every tree is built once, each group comes out sorted, and no
group is built before it is asked for.  For canonical-order generation of
rooted trees see Beyer and Hedetniemi, "Constant time generation of rooted
trees", SIAM J. Comput. 9 (1980).

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
from itertools import chain, groupby
from typing import Iterator

__all__ = [
    "RootedTree",
    "TreesByOrder",
    "TreeSyntaxError",
    "tree_factorial",
    "sigma",
    "alpha",
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
    def _hash(self) -> int:
        # Equal trees have equal children, so this agrees with __eq__; the
        # children's hashes are cached, so it costs one step per child.
        return hash(self.children)

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "RootedTree") -> bool:
        if not isinstance(other, RootedTree):
            return NotImplemented
        return (self.order, self.children) < (other.order, other.children)

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


class TreesByOrder:
    """The trees of order 1..max_order; group q holds the trees with q nodes.

    Each group is duplicate-free and sorted under the trees' total order,
    so iteration order is deterministic.  Group q and those below it are
    built when trees_of_order or a groups() iterator first reaches it.
    """

    def __init__(self, max_order: int) -> None:
        self.max_order = max_order
        # _trees[_ends[s-1]:_ends[s]] is the group of order s, once built.
        self._trees: list[RootedTree] = []
        self._ends = [0]

    def _grow(self, q: int) -> None:
        """Build the groups through order q, each sorted as it is walked."""
        trees, ends = self._trees, self._ends
        picked: list[RootedTree] = []

        def child_sequences(first: int, left: int) -> Iterator[tuple[RootedTree, ...]]:
            if not left:
                yield tuple(picked)
                return
            # Later picks come no earlier than trees[first], so they have at
            # least as many nodes: a pick of s nodes can be completed only
            # when the left - s nodes after it are none or at least s.
            for size in (*range(1, left // 2 + 1), left):
                for index in range(max(first, ends[size - 1]), ends[size]):
                    picked.append(trees[index])
                    yield from child_sequences(index, left - size)
                    picked.pop()

        while len(ends) <= q:
            # The walk reads only the groups already built, below the new one.
            trees.extend(RootedTree(kids) for kids in child_sequences(0, len(ends) - 1))
            ends.append(len(trees))

    def trees_of_order(self, q: int) -> tuple[RootedTree, ...]:
        if not 1 <= q <= self.max_order:
            raise ValueError(f"order {q} outside enumerated range 1..{self.max_order}")
        self._grow(q)
        return tuple(self._trees[self._ends[q - 1] : self._ends[q]])

    def groups(self) -> Iterator[tuple[RootedTree, ...]]:
        """The groups of order 1, 2, ..., max_order, each built when reached."""
        for q in range(1, self.max_order + 1):
            yield self.trees_of_order(q)

    def counts(self) -> tuple[int, ...]:
        return tuple(len(group) for group in self.groups())

    def total(self) -> int:
        return sum(self.counts())

    def __iter__(self) -> Iterator[RootedTree]:
        return chain.from_iterable(self.groups())


def tree_counts(max_order: int) -> tuple[int, ...]:
    """The number of trees of each order 1..max_order (OEIS A000081),
    counted without building any: a(1) = 1 and

        a(n+1) = (1/n) sum_{k=1..n} s(k) a(n-k+1),  s(k) = sum_{d | k} d a(d).
    """
    a, s = [0, 1], [0]
    for n in range(1, max_order):
        s.append(sum(d * a[d] for d in range(1, n + 1) if n % d == 0))
        a.append(sum(s[k] * a[n - k + 1] for k in range(1, n + 1)) // n)
    return tuple(a[1 : max_order + 1])


def enumerate_by_leaf(max_order: int) -> TreesByOrder:
    """All trees of order 1..max_order, every group already built.

    perfbench/spans.py resolves this name and times this call as the
    forest's construction, so it builds eagerly.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    forest = TreesByOrder(max_order)
    forest._grow(max_order)
    return forest


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
