"""Shared exact fixtures and reference functions for the tests.

Values are frozen from the standard references, not computed by the code
under test, so they can serve as oracles.  random_tableaus is the shared
hypothesis strategy for small random tableaus.  power, free_variables,
substitute, evaluate_constant and monomial_key are plain references on
CoeffPolynomial, written against its public surface only.
directional_derivative is the same for StatePolynomial.  trees_by_grafting
enumerates the forest by leaf grafting, independently of the package's
enumerator, and sorts it with the trees' comparison operators.
"""

from fractions import Fraction

from hypothesis import strategies as st

from butcher_kit.algebra import CoeffPolynomial
from butcher_kit.oracle import StatePolynomial
from butcher_kit.trees import RootedTree
from butcher_kit.verify import ButcherTableau

F = Fraction


def power(poly, exponent):
    """poly ** exponent by repeated multiplication."""
    if exponent < 0:
        raise ValueError("negative powers are not polynomials")
    result = CoeffPolynomial.constant(1)
    for _ in range(exponent):
        result = result * poly
    return result


def free_variables(poly):
    return {var for monomial, _ in poly.sorted_terms() for var, _ in monomial}


def substitute(poly, binding):
    """Replace bound variables by rationals or polynomials; partial bindings allowed.

    A polynomial value is what the row-sum identity c[i] -> sum_j a[i,j] needs.
    """
    total = CoeffPolynomial.zero()
    for monomial, coeff in poly.sorted_terms():
        piece = CoeffPolynomial.constant(coeff)
        for var, exp in monomial:
            value = binding.get(var, CoeffPolynomial.variable(var))
            if not isinstance(value, CoeffPolynomial):
                value = CoeffPolynomial.constant(value)
            piece = piece * power(value, exp)
        total = total + piece
    return total


def evaluate_constant(poly):
    """The value of a variable-free polynomial; error otherwise."""
    free = free_variables(poly)
    if free:
        names = ", ".join(str(v) for v in sorted(free, key=lambda v: v.sort_key()))
        raise ValueError(f"free variables remain: {names}")
    return dict(poly.sorted_terms()).get((), 0)


def monomial_key(monomial):
    """Graded order on (variable, exponent) monomials: by total degree, then
    lexicographically on the variable sequence, higher powers of earlier
    variables first."""
    return (
        sum(exp for _, exp in monomial),
        tuple((var.sort_key(), -exp) for var, exp in monomial),
    )


def directional_derivative(poly, vector):
    """sum_k vector[k] * d/dx_{k+1} of a StatePolynomial, for a constant vector."""
    if len(vector) != poly.dim:
        raise ValueError(f"vector has {len(vector)} entries, expected {poly.dim}")
    total = StatePolynomial.zero(poly.dim)
    for k, weight in enumerate(vector, start=1):
        if weight:
            total = total + poly.partial(k).scale(weight)
    return total


def trees_by_grafting(max_order):
    """The groups of trees of order 1..max_order, each sorted.

    Every tree with q nodes arises from a tree with q-1 nodes by grafting
    one leaf onto one of its nodes, so grafting at every node of every tree
    of the previous order and deduplicating yields the next group.
    """
    grafts = {}  # tree -> every tree one leaf larger

    def graft_leaf_everywhere(tree):
        if tree not in grafts:
            grown = {RootedTree(tree.children + (RootedTree(),))}
            for index, kid in enumerate(tree.children):
                for grown_kid in graft_leaf_everywhere(kid):
                    rest = tree.children[:index] + tree.children[index + 1 :]
                    grown.add(RootedTree(rest + (grown_kid,)))
            grafts[tree] = grown
        return grafts[tree]

    groups = [(RootedTree(),)]
    while len(groups) < max_order:
        grown = set()
        for tree in groups[-1]:
            grown |= graft_leaf_everywhere(tree)
        groups.append(tuple(sorted(grown)))
    return tuple(groups)


def explicit_euler():
    return ButcherTableau.from_rows("explicit euler", [[0]], [1])


def implicit_midpoint():
    return ButcherTableau.from_rows("implicit midpoint", [[F(1, 2)]], [1], [F(1, 2)])


def rk4():
    return ButcherTableau.from_rows(
        "rk4",
        [
            [0, 0, 0, 0],
            [F(1, 2), 0, 0, 0],
            [0, F(1, 2), 0, 0],
            [0, 0, 1, 0],
        ],
        [F(1, 6), F(1, 3), F(1, 3), F(1, 6)],
        [0, F(1, 2), F(1, 2), 1],
    )


def butcher6(u, v):
    """The classical two-parameter family of 6-stage order-5 methods.

    Exact in u and v; u must be nonzero (it divides several entries).
    Every member has order exactly 5.
    """
    u, v = F(u), F(v)
    if u == 0:
        raise ValueError("u must be nonzero")
    z = F(0)
    a = [
        [z, z, z, z, z, z],
        [u, z, z, z, z, z],
        [(-1 + 8 * u) / (32 * u), 1 / (32 * u), z, z, z, z],
        [
            (-1 + 4 * u + 2 * v - 8 * u * v) / (8 * u),
            (1 - 2 * v) / (8 * u),
            v,
            z,
            z,
            z,
        ],
        [
            3 * (1 - 3 * u - v + 4 * u * v) / (16 * u),
            3 * (-1 + v) / (16 * u),
            -F(3, 4) * (-1 + v),
            F(9, 16),
            z,
            z,
        ],
        [
            (-7 + 22 * u + 6 * v - 24 * u * v) / (14 * u),
            (7 - 6 * v) / (14 * u),
            F(12, 7) * v,
            -F(12, 7),
            F(8, 7),
            z,
        ],
    ]
    b = [F(7, 90), z, F(16, 45), F(2, 15), F(16, 45), F(7, 90)]
    c = [z, u, F(1, 4), F(1, 2), F(3, 4), 1]
    return ButcherTableau.from_rows(f"butcher6(u={u}, v={v})", a, b, c)


# Three distinct instantiations used across the suite; u nonzero everywhere.
BUTCHER6_SAMPLES = ((F(2, 5), F(1, 3)), (F(1, 2), F(1, 4)), (F(1, 3), F(2, 7)))


@st.composite
def random_tableaus(draw):
    """Rational tableaus of 1-3 stages, explicit or implicit."""
    stages = draw(st.integers(1, 3))
    explicit = draw(st.booleans())
    entries = st.fractions(-2, 2, max_denominator=5)
    a = [
        [draw(entries) if j < i or not explicit else 0 for j in range(stages)]
        for i in range(stages)
    ]
    b = [draw(entries) for _ in range(stages)]
    return ButcherTableau.from_rows("random", a, b)
