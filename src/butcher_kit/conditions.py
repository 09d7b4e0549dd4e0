"""Order conditions for s-stage one-step methods, generated from trees.

For a tree t with children t_1, ..., t_n the elementary weight vector is

    Phi_i(t) = prod_k ( sum_j a[i,j] * Phi_j(t_k) ),   i = 1..s,

with Phi(single node) = all ones, and the scalar elementary weight is
sum_i b[i] * Phi_i(t).  A method has order p exactly when every tree of
order <= p satisfies  weight(t) == 1/tree_factorial(t).

ElementaryWeights is the package's one implementation of this recursion,
for any scalar ring.  Its inputs are, per stage, the (j, a[i,j]) pairs
whose entry is not zero and the factor a single-node child contributes
(sum_j a[i,j], or c[i]), and b.  Its one memo, which serves every tree it
is asked about, keeps by the child's id the factor each child t_k brings,
sum_j a[i,j] * Phi_j(t_k): each distinct child costs one row sum over A
per evaluator however many trees share it.  Phi(t), the product of its
children's factors, is not kept: it is read again only through t's own
factor, so it is computed once more when t is first a child.
symbolic_weights builds one over the CoeffPolynomial variables a[i,j],
c[i] and b[i]; there each sum over j, and b . Phi, is one
algebra.poly_dot, which adds the products into a single term map.
ButcherTableau.elementary_weights, which verify and the oracle use, builds
one over the integer numerators of a tableau's A and b, each put over one
common denominator; there each sum over j is sum() over map(), and a
tree's children multiply their columns in one map() each, so the stage
loops run in C.

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

from fractions import Fraction
from operator import mul

from ._record import Record, set_field
from .algebra import (
    CoeffPolynomial,
    _latex_rational,
    a_var,
    b_var,
    c_var,
    format_rational,
    poly_dot,
    poly_sum,
)
from .trees import (
    LEAF_ID,
    RootedTree,
    child_runs,
    enumerate_by_leaf,
    tree_factorial,
    tree_id,
)

__all__ = [
    "ElementaryWeights",
    "GenerationFlags",
    "OrderCondition",
    "symbolic_weights",
    "all_order_conditions",
    "render_generic",
]


class GenerationFlags(Record):
    _fields = ("explicit", "substitute_c")

    def __init__(self, explicit: bool = False, substitute_c: bool = False) -> None:
        set_field(self, "explicit", explicit)
        set_field(self, "substitute_c", substitute_c)


_DEFAULT_FLAGS = GenerationFlags()


class OrderCondition(Record):
    """One equation weight(tree) == 1/tree_factorial(tree)."""

    _fields = ("tree", "lhs", "rhs")

    def __init__(self, tree: RootedTree, lhs: CoeffPolynomial, rhs: Fraction) -> None:
        set_field(self, "tree", tree)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)

    @property
    def order(self) -> int:
        return self.tree.order

    def render(self, style: str = "plain") -> str:
        return self.equation(self.lhs.render(style), self.rhs_text(style), style)

    def rhs_text(self, style: str = "plain") -> str:
        """rhs rendered in style: "p/q" in plain style, \\frac{p}{q} in LaTeX.
        Any other style raises ValueError, as the lhs's render does."""
        if style == "latex":
            return _latex_rational(self.rhs)
        if style == "plain":
            return format_rational(self.rhs)
        raise ValueError(f"unknown render style: {style!r}")

    @staticmethod
    def equation(lhs: str, rhs: str, style: str = "plain") -> str:
        """The line "lhs == rhs" in plain style, "lhs = rhs" in LaTeX.

        Both sides are text already rendered in style; the CLI passes the
        generic nested sums and their 1/t! here too.
        """
        if style == "plain":
            return f"{lhs} == {rhs}"
        if style == "latex":
            return f"{lhs} = {rhs}"
        raise ValueError(f"unknown render style: {style!r}")

    def __str__(self) -> str:
        return self.render()


class ElementaryWeights:
    """Phi(t) and b . Phi(t) from rows, leaf and b; rows hold 0-based j.

    The one memo holds each child's factor, A . Phi(kid), keyed by the
    child's id and seeded with the leaf's.  A tree is read through its runs
    of equal children, and its Phi, the product of their factors, is
    computed when asked for and not kept: it is read again only through
    its factor, when the tree is another tree's child.
    """

    def __init__(self, rows, leaf, b) -> None:
        self._b = b
        # The ring's zero, in the entries' own type, and the single node's Phi.
        self._zero = leaf[0] * 0
        self._ones = (self._zero + 1,) * len(b)
        self._factors = {LEAF_ID: tuple(leaf)}
        # Over polynomials each sum of products is one poly_dot, with b as
        # the row of (i, b[i]) pairs.  Over numbers each row is kept as
        # (columns, entries), so its sum runs in C builtins: sum and map.
        self._fused = isinstance(self._zero, CoeffPolynomial)
        if self._fused:
            self._rows, self._b_row = rows, tuple(enumerate(b))
        else:
            self._rows = [
                (tuple([j for j, _ in row]), tuple([a for _, a in row])) for row in rows
            ]

    def vector(self, tree: RootedTree) -> tuple:
        """(Phi_1(t), ..., Phi_s(t))."""
        return self._vector(tree_id(tree))

    def _vector(self, i: int) -> tuple:
        # Each child multiplies its factor in, all stages in one map.
        phi, factors = None, self._factors
        for kid, count in child_runs(i):
            column = factors.get(kid)
            if column is None:
                column = factors[kid] = self._times_a(kid)
            for _ in range(count):
                phi = column if phi is None else tuple(map(mul, phi, column))
        return self._ones if phi is None else phi

    def _times_a(self, kid: int) -> tuple:
        # Stage i's factor for one child: sum_j a[i,j] * Phi_j(kid).
        phi = self._vector(kid)
        if self._fused:
            return tuple([poly_dot(row, phi) for row in self._rows])
        zero, column = self._zero, phi.__getitem__
        return tuple([sum(map(mul, row, map(column, cols)), zero) for cols, row in self._rows])

    def weight(self, tree: RootedTree):
        """sum_i b[i] * Phi_i(t)."""
        phi = self.vector(tree)
        if self._fused:
            return poly_dot(self._b_row, phi)
        return sum(map(mul, self._b, phi), self._zero)


def symbolic_weights(
    stages: int, flags: GenerationFlags = _DEFAULT_FLAGS
) -> ElementaryWeights:
    """Phi and b . Phi as CoeffPolynomials in a[i,j], c[i] and b[i], s = stages.

    vector(t) gives the per-stage weight polynomials, weight(t) the fully
    expanded sum_i b[i] * Phi_i(t); one memo of child factors serves every
    tree asked about.
    """
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


def all_order_conditions(
    max_order: int, stages: int, flags: GenerationFlags = _DEFAULT_FLAGS
) -> tuple[OrderCondition, ...]:
    """Conditions for every tree of order <= max_order, canonical order.

    Duplicates (identical lhs and rhs after flag substitutions) are dropped,
    keeping the first tree that produced the equation.  Unsatisfiable
    conditions (lhs 0, rhs nonzero) are kept.
    """
    weights = symbolic_weights(stages, flags)
    first: dict[tuple[CoeffPolynomial, Fraction], OrderCondition] = {}
    for tree in enumerate_by_leaf(max_order):
        lhs, rhs = weights.weight(tree), Fraction(1, tree_factorial(tree))
        first.setdefault((lhs, rhs), OrderCondition(tree, lhs, rhs))
    return tuple(first.values())


# Index names by depth for the symbolic-s rendering.  Deeper levels, from
# the 12th on, are named i_{12}, i_{13}, ...: subscripted, so they cannot
# collide with these single letters.
_INDEX_NAMES = ("i", "j", "k", "l", "m", "p", "q", "r", "u", "v", "w")


def _index_name(depth: int) -> str:
    if depth < len(_INDEX_NAMES):
        return _INDEX_NAMES[depth]
    return f"i_{{{depth + 1}}}"


def render_generic(tree: RootedTree, memo: dict | None = None) -> str:
    """Nested-sum text of the weight for symbolic stage count s.

    The single node renders as "sum_{i=1}^{s} b_i"; every child contributes
    a parenthesized factor one index deeper, and repeated children group
    into a power.  Pass one memo dict across calls when rendering many
    trees: it keeps each child subtree's whole factor by (id, depth), since
    the index names depend on the depth, so each is built once.  A root's
    own factors are not kept: a tree is a child only below depth 0.
    """
    factors = _generic_factors(tree_id(tree), 0, {} if memo is None else memo)
    return f"sum_{{i=1}}^{{s}} b_i {factors}" if factors else "sum_{i=1}^{s} b_i"


def _generic_factors(i: int, depth: int, memo: dict) -> str:
    """The factors of tree i's children, whose root has index depth; memo
    keeps each child's factor "(sum_{j=1}^{s} a_{i,j} ...)" without its power."""
    factors = []
    for kid, count in child_runs(i):
        factor = memo.get((kid, depth + 1))
        if factor is None:
            parent, child = _index_name(depth), _index_name(depth + 1)
            head = f"(sum_{{{child}=1}}^{{s}} a_{{{parent},{child}}}"
            inner = _generic_factors(kid, depth + 1, memo)
            factor = memo[(kid, depth + 1)] = f"{head} {inner})" if inner else f"{head})"
        factors.append(f"{factor}^{count}" if count > 1 else factor)
    return " ".join(factors)
