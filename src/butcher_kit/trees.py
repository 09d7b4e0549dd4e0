"""Unordered rooted trees and their exact combinatorial coefficients.

A tree is a node carrying an unordered multiset of subtrees.  The canonical
representative stores children sorted under a fixed total order (by order,
ties broken lexicographically on the children sequences, recursively), so
structural equality coincides with equality of unordered shapes.

Bracket notation: "[]" is the single node, "[[],[]]" is a root with two
leaf children.  parse_tree() also accepts the glyph "⊙" for "[]".

For a tree t with children t_1, ..., t_n:

    order(t)          = 1 + sum(order(t_k))         number of nodes
    tree_factorial(t) = order(t) * prod(tree_factorial(t_k))
    symmetry_delta(t) = n! / prod(m_g!)             m_g = multiplicities of
                                                    the distinct children
    alpha(t)          = symmetry_delta(t)/n! * prod(alpha(t_k))

symmetry_delta counts the distinct ordered arrangements of the child list.
alpha(t)/tree_factorial(t) weights the elementary differential of t in the
Taylor expansion of an exact flow; alpha(t) alone weights the discrete
(one-step method) expansion.  Both are exact rationals.  Like order,
tree_factorial and alpha are computed once per tree instance and cached on
it, so a forest pays for each subtree's factors once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, total_ordering
from itertools import chain, combinations_with_replacement, groupby, islice, product
from typing import Iterator

__all__ = [
    "RootedTree",
    "TreesByOrder",
    "TreeSyntaxError",
    "tree_factorial",
    "symmetry_delta",
    "alpha",
    "grow_by_leaf",
    "enumerate_by_leaf",
    "enumerate_by_partitions",
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
    def _alpha(self) -> Fraction:
        weight = Fraction(symmetry_delta(self), math.factorial(len(self.children)))
        for kid in self.children:
            weight *= kid._alpha
        return weight

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


def symmetry_delta(tree: RootedTree) -> int:
    """Number of distinct ordered arrangements of the child list.

    n!/prod(m_g!) where the m_g are the multiplicities of the distinct
    children.  Always a positive integer; 1 for the single node.
    """
    result = math.factorial(len(tree.children))
    # Canonical sorting makes equal children adjacent.
    for _, run in groupby(tree.children):
        result //= math.factorial(len(tuple(run)))
    return result


def alpha(tree: RootedTree) -> Fraction:
    """Arrangement weight in (0, 1].

    symmetry_delta(t)/n! times the product of the children's weights.  The
    denominator divides order(t)! and alpha of any chain is 1.
    """
    return tree._alpha


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
    """The sorted groups of trees of order 1, 2, 3, ..., by leaf attachment.

    Every tree with q nodes arises from some tree with q-1 nodes by
    grafting one leaf; grafting at every node of every tree of the previous
    order and deduplicating yields the full next group.  A group is built
    only when it is asked for, so a caller that stops early never pays for
    the larger orders.
    """
    group: tuple[RootedTree, ...] = (RootedTree(),)
    graft_memo: dict[RootedTree, tuple[RootedTree, ...]] = {}
    while True:
        yield group
        grown: set[RootedTree] = set()
        for tree in group:
            grown.update(_graft_leaf_everywhere(tree, graft_memo))
        group = tuple(sorted(grown))


def enumerate_by_leaf(max_order: int) -> TreesByOrder:
    """All trees of order 1..max_order: the first groups of grow_by_leaf."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    return TreesByOrder(tuple(islice(grow_by_leaf(), max_order)))


def _graft_leaf_everywhere(
    tree: RootedTree, memo: dict[RootedTree, tuple[RootedTree, ...]]
) -> tuple[RootedTree, ...]:
    # memo lives only as long as one grow_by_leaf generator.
    cached = memo.get(tree)
    if cached is not None:
        return cached
    results = {RootedTree(tree.children + (RootedTree(),))}
    for index, kid in enumerate(tree.children):
        for grown_kid in _graft_leaf_everywhere(kid, memo):
            replaced = tree.children[:index] + (grown_kid,) + tree.children[index + 1 :]
            results.add(RootedTree(replaced))
    out = tuple(sorted(results))
    memo[tree] = out
    return out


def enumerate_by_partitions(max_order: int) -> TreesByOrder:
    """All trees of order 1..max_order, by integer partitions.

    A tree with q nodes is a root over a multiset of subtrees whose orders
    partition q-1.  Independent of the leaf-grafting route, which makes the
    two enumerations cross-checks for each other.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    groups: list[tuple[RootedTree, ...]] = [(RootedTree(),)]
    for q in range(2, max_order + 1):
        batch: set[RootedTree] = set()
        for parts in _partitions(q - 1):
            # One multiset of subtrees per way of filling each part size.
            pools = []
            for size, run in groupby(parts):
                multiplicity = len(tuple(run))
                pools.append(
                    tuple(combinations_with_replacement(groups[size - 1], multiplicity))
                )
            for picks in product(*pools):
                batch.add(RootedTree(tuple(chain.from_iterable(picks))))
        groups.append(tuple(sorted(batch)))
    return TreesByOrder(tuple(groups))


def _partitions(n: int, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n as non-increasing tuples of positive parts."""
    if cap is None:
        cap = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


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
