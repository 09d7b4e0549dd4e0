"""Unordered rooted trees and their exact combinatorial coefficients.

A tree is a node carrying an unordered multiset of subtrees.  The canonical
representative stores children sorted under a fixed total order (by order,
ties broken lexicographically on the children sequences, recursively), so
structural equality coincides with equality of unordered shapes.

Each shape is stored once, under an int id, one id space per process: a
shape is keyed by the ids of its children in canonical order, and per id
the module keeps the children's ids, the order and the shape's one
RootedTree, a handle that holds the id and nothing else.  So two equal
trees, whether grown in the forest, built by hand or parsed, are the same
object, and a tree outside the forest costs one lookup per node.  The runs
of equal children, as (child id, multiplicity) pairs, each pair one object
shared by every shape it occurs in, the factors below and the bracket
text of format_tree are computed from the children's entries when first
asked for, and kept in flat lists indexed by id.  The evaluators
(conditions.ElementaryWeights, the oracle's derivative table) key their
memos by id and walk the runs, so what a subtree shared by many trees
contributes is computed once per memo, and a deep parsed tree evaluates
in time linear in its size.

One forest serves the whole process, and TreesByOrder and
enumerate_by_leaf are views of it.  It is append-only and grows by one
order at a time, under one lock, only when a caller first asks for an
order: a tree with q nodes is a root over a non-decreasing sequence of
earlier trees whose orders sum to q-1, and the sequences are walked
depth-first in lexicographic order, so every tree is built once, each
group comes out sorted, and no group is built before it is asked for.
For canonical-order generation of rooted trees see Beyer and Hedetniemi,
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
discrete (one-step method) expansion.  tree_factorial and sigma are
integers kept per id, so the process pays for each shape's factors once.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import total_ordering
from itertools import chain
from typing import Iterable, Iterator

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

# The id store, the one place a shape is kept.  _IDS maps the child ids of a
# shape, in canonical order, to the shape's id; _KIDS[id] is that tuple,
# _ORDERS[id] the shape's order and _TREES[id] its one RootedTree.  Ids are
# handed out by _intern under _LOCK, in the order shapes are first met, and
# never change.  The single node is LEAF_ID.
LEAF_ID = 0
_LOCK = threading.Lock()
_IDS: dict[tuple[int, ...], int] = {}
_KIDS: list[tuple[int, ...]] = []
_ORDERS: list[int] = []
_TREES: list[RootedTree] = []
# None until first asked for, then filled from the children's entries; two
# threads that race on an entry write the same value.
_RUNS: list[tuple[tuple[int, int], ...] | None] = []
# Every (child id, multiplicity) pair of a run, kept once: a pair recurs in
# the runs of many shapes.
_PAIRS: dict[tuple[int, int], tuple[int, int]] = {}
_FACTORIALS: list[int | None] = []
_SIGMAS: list[int | None] = []
_TEXTS: list[str | None] = []


def _intern(kids: tuple[int, ...], order: int) -> RootedTree:
    """The tree over child ids kids, stored first if the shape is new.

    Every tree, grown, built or parsed, comes from here; the caller holds
    _LOCK.
    """
    i = _IDS.get(kids)
    if i is None:
        i = len(_KIDS)
        tree = object.__new__(RootedTree)
        tree._id = i
        _KIDS.append(kids)
        _ORDERS.append(order)
        _TREES.append(tree)
        _RUNS.append(None)
        _FACTORIALS.append(None)
        _SIGMAS.append(None)
        _TEXTS.append(None)
        _IDS[kids] = i
    return _TREES[i]


@total_ordering
class RootedTree:
    """Canonical unordered rooted tree, one object per shape.

    RootedTree() is the single node "[]"; RootedTree(children) roots a new
    node over the given subtrees, in any order: the constructor sorts them
    and returns the one tree of that shape, so two trees are equal exactly
    when they are the same object.  The comparison operators realize the
    total order used everywhere: by order, ties broken lexicographically on
    the canonical children sequences, recursively.
    """

    __slots__ = ("_id",)

    def __new__(cls, children: Iterable[RootedTree] = ()) -> RootedTree:
        kids = tuple(children)
        for kid in kids:
            if not isinstance(kid, RootedTree):
                raise TypeError(f"child is not a RootedTree: {kid!r}")
        # Sorting here is what makes the shape order-insensitive.
        ids = tuple([kid._id for kid in sorted(kids)])
        with _LOCK:
            return _intern(ids, 1 + sum([_ORDERS[i] for i in ids]))

    @property
    def order(self) -> int:
        """Number of nodes."""
        return _ORDERS[self._id]

    @property
    def children(self) -> tuple[RootedTree, ...]:
        """The subtrees, in canonical order."""
        return tuple([_TREES[kid] for kid in _KIDS[self._id]])

    def __lt__(self, other: RootedTree) -> bool:
        if not isinstance(other, RootedTree):
            return NotImplemented
        return (self.order, self.children) < (other.order, other.children)

    def __reduce__(self):
        # Pickled as its children alone: an id is valid only in the process
        # that handed it out.
        return RootedTree, (self.children,)

    def __str__(self) -> str:
        return format_tree(self)

    def __repr__(self) -> str:
        return f"RootedTree({format_tree(self)})"


_intern((), 1)  # the single node, LEAF_ID


def tree_id(tree: RootedTree) -> int:
    """The id of the tree's shape."""
    return tree._id


def child_ids(i: int) -> tuple[int, ...]:
    """The ids of the children of shape i, in canonical order."""
    return _KIDS[i]


def child_runs(i: int) -> tuple[tuple[int, int], ...]:
    """(child id, multiplicity) for each distinct child of shape i."""
    runs = _RUNS[i]
    if runs is None:
        kids = _KIDS[i]
        pairs = []
        for kid in dict.fromkeys(kids):  # the distinct children, in canonical order
            pair = kid, kids.count(kid)
            pairs.append(_PAIRS.setdefault(pair, pair))
        runs = _RUNS[i] = tuple(pairs)
    return runs


def factorial_of(i: int) -> int:
    """tree_factorial of shape i."""
    value = _FACTORIALS[i]
    if value is None:
        value = _ORDERS[i]
        for kid, count in child_runs(i):
            value *= factorial_of(kid) ** count
        _FACTORIALS[i] = value
    return value


def sigma_of(i: int) -> int:
    """sigma of shape i."""
    value = _SIGMAS[i]
    if value is None:
        value = 1
        for kid, count in child_runs(i):
            value *= math.factorial(count) * sigma_of(kid) ** count
        _SIGMAS[i] = value
    return value


def tree_factorial(tree: RootedTree) -> int:
    """order(t) times the factorials of the children."""
    return factorial_of(tree._id)


def sigma(tree: RootedTree) -> int:
    """Number of symmetries of the tree.

    prod(m_g!) over the multiplicities m_g of the distinct children, times
    the children's sigma.  It divides (order(t) - 1)! and is 1 for any chain.
    """
    return sigma_of(tree._id)


def alpha(tree: RootedTree) -> Fraction:
    """Arrangement weight 1/sigma(t), in (0, 1]."""
    return Fraction(1, sigma_of(tree._id))


class _Forest:
    """The trees of order 1, 2, ..., in canonical order, grown by order.

    trees[ends[q-1]:ends[q]] is the group of order q once it is built.  The
    list only grows, and grows before ends records the new group, so a group
    a reader can see is complete.
    """

    def __init__(self) -> None:
        self.trees: list[RootedTree] = []
        self.ends = [0]

    def group(self, q: int) -> tuple[RootedTree, ...]:
        """The trees of order q, building every group through q first."""
        if len(self.ends) <= q:
            with _LOCK:
                self._grow(q)
        return tuple(self.trees[self.ends[q - 1] : self.ends[q]])

    def _grow(self, q: int) -> None:
        """Build the groups through order q, each sorted as it is walked.

        The caller holds _LOCK.
        """
        trees, ends = self.trees, self.ends
        picked: list[int] = []

        def child_sequences(first: int, left: int) -> Iterator[tuple[int, ...]]:
            if not left:
                yield tuple(picked)
                return
            # Later picks come no earlier than trees[first], so they have at
            # least as many nodes: a pick of s nodes can be completed only
            # when the left - s nodes after it are none or at least s.
            for size in (*range(1, left // 2 + 1), left):
                for index in range(max(first, ends[size - 1]), ends[size]):
                    picked.append(trees[index]._id)
                    yield from child_sequences(index, left - size)
                    picked.pop()

        while len(ends) <= q:
            # The walk reads only the groups already built, below the new one.
            order = len(ends)
            for kids in child_sequences(0, order - 1):
                trees.append(_intern(kids, order))
            ends.append(len(trees))


# The process's one forest.
_FOREST = _Forest()


class TreesByOrder:
    """The trees of order 1..max_order; group q holds the trees with q nodes.

    A view of the process's one forest, which is append-only: group q and
    those below it are built when trees_of_order or a groups() iterator
    first reaches it, in this view or any other, and are then shared by
    every view.  Each group is duplicate-free and sorted under the trees'
    total order, so iteration order is deterministic.
    """

    def __init__(self, max_order: int) -> None:
        self.max_order = max_order

    def trees_of_order(self, q: int) -> tuple[RootedTree, ...]:
        if not 1 <= q <= self.max_order:
            raise ValueError(f"order {q} outside enumerated range 1..{self.max_order}")
        return _FOREST.group(q)

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

    A view of the process's one forest, like TreesByOrder, grown through
    max_order if it is not yet: a second call builds no tree.
    perfbench/spans.py resolves this name and times this call as the
    forest's construction, so it builds eagerly.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    forest = TreesByOrder(max_order)
    forest.trees_of_order(max_order)
    return forest


class TextSyntaxError(ValueError):
    """Malformed text; .position is the 0-based offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class TreeSyntaxError(TextSyntaxError):
    """Malformed tree text; .position is the 0-based offending index."""


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
    """Canonical bracket string, no whitespace; inverse of parse_tree.

    Each shape's text is kept by id, joined from its children's the first
    time it is asked for, so a subtree shared by many trees is formatted
    once per process.
    """
    return text_of(tree._id)


def text_of(i: int) -> str:
    """Bracket text of shape i."""
    value = _TEXTS[i]
    if value is None:
        parts: list[str] = []
        for kid, count in child_runs(i):
            parts += [text_of(kid)] * count
        value = _TEXTS[i] = "[" + ",".join(parts) + "]"
    return value
