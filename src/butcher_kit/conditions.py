"""Order conditions for s-stage one-step methods, generated from trees.

For a tree t with children t_1, ..., t_n the elementary weight vector is

    Phi_i(t) = prod_k ( sum_j a[i,j] * Phi_j(t_k) ),   i = 1..s,

with Phi(single node) = all ones, and the scalar elementary weight is
sum_i b[i] * Phi_i(t).  A method has order p exactly when every tree of
order <= p satisfies  weight(t) == 1/tree_factorial(t).

ElementaryWeights is the package's one implementation of this recursion,
for any scalar ring.  Its inputs are, per stage, the (j, a[i,j]) pairs
whose entry is not zero and the factor a single-node child contributes
(sum_j a[i,j], or c[i]), and b; one memo serves every tree it is asked
about.  The conditions here run it over CoeffPolynomial variables, verify
and the oracle over a tableau's Fraction entries.

GenerationFlags tune the emitted shape:
  * substitute_c: a child that is the single node contributes the factor
    c[i] instead of sum_j a[i,j] (the row-sum convention, presentation
    form used in printed condition tables);
  * explicit: the rows hold only a[i,j] with j < i, and c[1] becomes 0
    (strictly lower triangular tableau).

Both forms describe the same conditions: binding c[i] to its row sum turns
the substitute_c polynomial into the raw one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import groupby
from operator import mul

from .algebra import CoeffPolynomial, a_var, b_var, c_var, format_rational, poly_sum
from .trees import RootedTree, enumerate_by_leaf, single_node, tree_factorial

__all__ = [
    "ElementaryWeights",
    "GenerationFlags",
    "OrderCondition",
    "elementary_weight_vector",
    "elementary_weight",
    "order_condition",
    "all_order_conditions",
    "render_generic",
    "INDEX_NAMES",
]


@dataclass(frozen=True)
class GenerationFlags:
    explicit: bool = False
    substitute_c: bool = False


_DEFAULT_FLAGS = GenerationFlags()


@dataclass(frozen=True)
class OrderCondition:
    """One equation weight(tree) == 1/tree_factorial(tree)."""

    tree: RootedTree
    lhs: CoeffPolynomial
    rhs: Fraction

    @property
    def order(self) -> int:
        return self.tree.order

    @property
    def unsatisfiable(self) -> bool:
        # A zero left side with a nonzero right side can never hold; such
        # conditions are kept to mark the order barrier.
        return self.lhs.is_zero and self.rhs != 0

    def render(self, style: str = "plain") -> str:
        if style == "plain":
            return f"{self.lhs.render('plain')} == {format_rational(self.rhs)}"
        if style == "latex":
            rhs = CoeffPolynomial.constant(self.rhs).render("latex")
            return f"{self.lhs.render('latex')} = {rhs}"
        raise ValueError(f"unknown render style: {style!r}")

    def __str__(self) -> str:
        return self.render()


class ElementaryWeights:
    """Phi(t) and b . Phi(t) from rows, leaf and b; rows hold 0-based j."""

    def __init__(self, rows, leaf, b) -> None:
        self._rows, self._leaf, self._b = rows, leaf, b
        # The ring's zero and one, in the entries' own type.
        self._zero = leaf[0] * 0
        self._memo = {single_node(): (self._zero + 1,) * len(b)}

    def vector(self, tree: RootedTree) -> tuple:
        """(Phi_1(t), ..., Phi_s(t))."""
        cached = self._memo.get(tree)
        if cached is None:
            columns = []
            for kid, run in groupby(tree.children):
                columns += [self._times_a(kid)] * len(tuple(run))
            cached = tuple(reduce(mul, stage) for stage in zip(*columns))
            self._memo[tree] = cached
        return cached

    def _times_a(self, kid: RootedTree) -> tuple:
        # Stage i's factor for one child: sum_j a[i,j] * Phi_j(kid).
        if not kid.children:
            return self._leaf
        phi = self.vector(kid)
        return tuple(sum((a * phi[j] for j, a in row), self._zero) for row in self._rows)

    def weight(self, tree: RootedTree):
        """sum_i b[i] * Phi_i(t)."""
        return sum((b * phi for b, phi in zip(self._b, self.vector(tree))), self._zero)


def _symbolic_weights(stages: int, flags: GenerationFlags) -> ElementaryWeights:
    if stages < 1:
        raise ValueError("stages must be >= 1")
    var = CoeffPolynomial.variable
    indices = range(1, stages + 1)
    rows = [
        [(j - 1, var(a_var(i, j))) for j in (range(1, i) if flags.explicit else indices)]
        for i in indices
    ]
    if flags.substitute_c:
        leaf = [var(c_var(i)) for i in indices]
        if flags.explicit:
            leaf[0] = CoeffPolynomial.zero()
    else:
        leaf = [poly_sum(a for _, a in row) for row in rows]
    return ElementaryWeights(rows, leaf, [var(b_var(i)) for i in indices])


def elementary_weight_vector(
    tree: RootedTree, stages: int, flags: GenerationFlags = _DEFAULT_FLAGS
) -> tuple[CoeffPolynomial, ...]:
    """Per-stage weight polynomials (Phi_1(t), ..., Phi_s(t))."""
    return _symbolic_weights(stages, flags).vector(tree)


def elementary_weight(
    tree: RootedTree, stages: int, flags: GenerationFlags = _DEFAULT_FLAGS
) -> CoeffPolynomial:
    """sum_i b[i] * Phi_i(t), fully expanded."""
    return _symbolic_weights(stages, flags).weight(tree)


def order_condition(
    tree: RootedTree, stages: int, flags: GenerationFlags = _DEFAULT_FLAGS
) -> OrderCondition:
    return OrderCondition(
        tree=tree,
        lhs=elementary_weight(tree, stages, flags),
        rhs=Fraction(1, tree_factorial(tree)),
    )


def all_order_conditions(
    max_order: int, stages: int, flags: GenerationFlags = _DEFAULT_FLAGS
) -> tuple[OrderCondition, ...]:
    """Conditions for every tree of order <= max_order, canonical order.

    Duplicates (identical lhs and rhs after flag substitutions) are dropped,
    keeping the first tree that produced the equation.  Unsatisfiable
    conditions (lhs 0, rhs nonzero) are kept.
    """
    weights = _symbolic_weights(stages, flags)
    first: dict[tuple[CoeffPolynomial, Fraction], OrderCondition] = {}
    for tree in enumerate_by_leaf(max_order):
        lhs, rhs = weights.weight(tree), Fraction(1, tree_factorial(tree))
        first.setdefault((lhs, rhs), OrderCondition(tree, lhs, rhs))
    return tuple(first.values())


# Index names by depth for the symbolic-s rendering; depth is capped by the
# alphabet length, deeper trees raise.
INDEX_NAMES = ("i", "j", "k", "l", "m", "p", "q", "r", "u", "v", "w")


def render_generic(tree: RootedTree) -> str:
    """Nested-sum text of the weight for symbolic stage count s.

    The single node renders as "sum_{i=1}^{s} b_i"; every child contributes
    a parenthesized factor one index deeper, and repeated children group
    into a power.
    """
    return " ".join(["sum_{i=1}^{s} b_i"] + _generic_factors(tree, 0))


def _generic_factors(tree: RootedTree, depth: int) -> list[str]:
    if not tree.children:
        return []
    if depth + 1 >= len(INDEX_NAMES):
        raise ValueError(
            f"tree deeper than the {len(INDEX_NAMES)}-name index alphabet"
        )
    parent, child = INDEX_NAMES[depth], INDEX_NAMES[depth + 1]
    factors = []
    for kid, run in groupby(tree.children):
        multiplicity = len(tuple(run))
        head = f"sum_{{{child}=1}}^{{s}} a_{{{parent},{child}}}"
        inner = " ".join([head] + _generic_factors(kid, depth + 1))
        factors.append(f"({inner})" + (f"^{multiplicity}" if multiplicity > 1 else ""))
    return factors
