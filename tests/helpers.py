"""Shared exact fixtures and reference functions for the tests.

Values are frozen from the standard references, not computed by the code
under test, so they can serve as oracles: A000081 holds the number of
rooted trees of each order through 14 (OEIS).  random_tableaus is the shared
hypothesis strategy for small random tableaus.  power, free_variables,
substitute, evaluate_constant, monomial_key and render_reference are
plain references on CoeffPolynomial, written against its public surface
only.
directional_derivative and evaluate_terms are the calculus of a field
component, written over plain {exponents: coefficient} dicts so that they
share no code with the oracle's derivative table.  trees_by_grafting
enumerates the forest by leaf grafting, independently of the package's
enumerator, and sorts it with the trees' comparison operators.
symmetry_delta counts the distinct arrangements of a tree's children.
alpha_by_arrangements, differential_reference and tree_series_reference
are the oracle's tree routes computed Fraction by Fraction: alpha as a
product of arrangement weights, F(t) by repeated directional derivatives,
and every weight, product and sum a reduced Fraction.  vector_reference
and weight_reference are Phi(t) and b . Phi(t) the same way, with no
memo, so they share nothing with the package's Phi recursion.
residuals_reference is verify_order's residual entries from it, over the
grafting forest, every residual weight - 1/t! taken Fraction by Fraction.
iteration_series_reference is the oracle's iteration routes the same way:
plain fixed-point sweeps over truncated Fraction series, one more
coefficient fixed per sweep.  tree_field is the field of Butcher's
theorem, built over the grafting forest: its exact and discrete flows at 0
carry every 1/t! and every elementary weight.  record_interns counts the
trees a call asks the id store for.  field_value, unsatisfiable and
var_sort_key are the test-only readings of a field, a condition and a
variable.  main_by_full_parser is the CLI with every argv parsed by
build_parser()'s full parser, the reference for main's two parse routes.
in_fresh_process runs a probe where the id store holds no text yet.
integer_rows_reference is algebra.integer_rows cell by cell, and
tableau_integers_reference and field_integers_reference the integer form a
tableau and a field keep, each built from it.
"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import groupby
from pathlib import Path

from hypothesis import strategies as st

from butcher_kit import cli, trees
from butcher_kit.algebra import CoeffPolynomial
from butcher_kit.oracle import PolyVectorField, elementary_differential
from butcher_kit.trees import RootedTree
from butcher_kit.verify import ButcherTableau, ResidualEntry

F = Fraction

# OEIS A000081 at orders 1..14.
A000081 = (1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486, 32973)


def record_interns(monkeypatch):
    """The order of every tree asked of the id store from now on, in a list.

    Every tree, grown in the forest, built or parsed, comes from
    trees._intern, once per tree built, whether its shape is new or not.
    """
    built = []
    intern = trees._intern

    def counting(kids, order):
        built.append(order)
        return intern(kids, order)

    monkeypatch.setattr(trees, "_intern", counting)
    return built


def in_fresh_process(probe, *args):
    """Run the Python source probe in a new interpreter that imports the
    package from src/, with args as sys.argv[1:]; the JSON value of its
    last line of stdout."""
    paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-c", probe, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def main_by_full_parser(argv):
    """cli.main(argv) with the whole argv parsed by cli.build_parser(): the
    exit code."""
    read = cli._read_argv
    cli._read_argv = lambda argv: None
    try:
        return cli.main(argv)
    finally:
        cli._read_argv = read


def field_value(field, point):
    """f(point): the elementary differential of the single node."""
    return elementary_differential(field, RootedTree(), point)


def unsatisfiable(condition):
    """A zero left side with a nonzero right side, which can never hold."""
    return condition.lhs.is_zero and condition.rhs != 0


def var_sort_key(var):
    """b[1..s] < c[1..s] < a[1,1..s] row-major."""
    return ("bca".index(var.kind), var.i, var.j or 0)


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
        names = ", ".join(str(v) for v in sorted(free, key=var_sort_key))
        raise ValueError(f"free variables remain: {names}")
    return dict(poly.sorted_terms()).get((), 0)


def monomial_key(monomial):
    """Graded order on (variable, exponent) monomials: by total degree, then
    lexicographically on the variable sequence, higher powers of earlier
    variables first."""
    return (
        sum(exp for _, exp in monomial),
        tuple((var_sort_key(var), -exp) for var, exp in monomial),
    )


def render_reference(poly, style="plain"):
    """CoeffPolynomial.render from the public terms, a comprehension per term:
    the sign, the coefficient unless it is 1 (in LaTeX a non-integer is
    \\frac{p}{q}), then each variable's name, or name^e, joined by the
    style's separator."""
    if poly.is_zero:
        return "0"
    separator, power_form = ("*", "{}^{}") if style == "plain" else (" ", "{}^{{{}}}")
    pieces = []
    for monomial, coeff in poly.sorted_terms():
        if pieces:
            pieces.append(" + " if coeff > 0 else " - ")
        elif coeff < 0:
            pieces.append("-")
        coeff = abs(coeff)
        factors = separator.join(
            [var.render(style) if exp == 1 else power_form.format(var.render(style), exp) for var, exp in monomial]
        )
        if factors and coeff == 1:
            pieces.append(factors)
            continue
        if style == "latex" and coeff.denominator != 1:
            pieces.append(f"\\frac{{{coeff.numerator}}}{{{coeff.denominator}}}")
        else:
            pieces.append(str(coeff))
        if factors:
            pieces += (separator, factors)
    return "".join(pieces)


def directional_derivative(terms, vector):
    """sum_k vector[k] * d/dx_{k+1} of a polynomial, for a constant vector.

    terms maps exponent tuples to coefficients (a dict or its items); so
    does the result, with its zero coefficients dropped.
    """
    total = {}
    for exponents, coefficient in dict(terms).items():
        if len(exponents) != len(vector):
            raise ValueError(f"vector has {len(vector)} entries, expected {len(exponents)}")
        for k, weight in enumerate(vector):
            if weight and exponents[k]:
                lowered = exponents[:k] + (exponents[k] - 1,) + exponents[k + 1 :]
                total[lowered] = total.get(lowered, 0) + weight * coefficient * exponents[k]
    return {exponents: value for exponents, value in total.items() if value}


def evaluate_terms(terms, point):
    """The polynomial with these terms (a dict or its items) at point."""
    total = Fraction(0)
    for exponents, coefficient in dict(terms).items():
        total += coefficient * math.prod(Fraction(x) ** e for x, e in zip(point, exponents))
    return total


def symmetry_delta(tree):
    """Number of distinct ordered arrangements of the child list.

    n!/prod(m_g!) where the m_g are the multiplicities of the distinct
    children.  Always a positive integer; 1 for the single node.
    """
    result = math.factorial(len(tree.children))
    # Canonical sorting makes equal children adjacent.
    for _, run in groupby(tree.children):
        result //= math.factorial(len(tuple(run)))
    return result


def alpha_by_arrangements(tree):
    """symmetry_delta(t)/n! times the children's alpha, as a Fraction product."""
    weight = Fraction(symmetry_delta(tree), math.factorial(len(tree.children)))
    for kid in tree.children:
        weight *= alpha_by_arrangements(kid)
    return weight


def differential_reference(field, tree, point, memo=None):
    """F(tree)(point) by repeated directional derivatives, then evaluation.

    Pass one memo dict to share subtrees across calls at one field and point.
    """
    if memo is not None and tree in memo:
        return memo[tree]
    kids = [differential_reference(field, kid, point, memo) for kid in tree.children]
    values = []
    for component in field.components:
        derived = dict(component)
        for vector in kids:
            derived = directional_derivative(derived, vector)
        values.append(evaluate_terms(derived, point))
    if memo is not None:
        memo[tree] = tuple(values)
    return tuple(values)


def tree_series_reference(field, point, degree, count, factor):
    """Coefficient vectors of x0 + sum over trees t of order <= degree of
    factor(t)[k] * F(t)(x0), k < count, one series per k.

    factor(t) returns count Fractions; the sums are Fraction sums, one tree
    at a time, over the grafting forest.
    """
    x0 = tuple(Fraction(x) for x in point)
    memo = {}
    series = [[x0] for _ in range(count)]
    for group in trees_by_grafting(max(degree, 1))[:degree]:
        totals = [[Fraction(0)] * field.dim for _ in range(count)]
        for tree in group:
            weights = factor(tree)
            if any(weights):
                differential = differential_reference(field, tree, x0, memo)
                for total, weight in zip(totals, weights):
                    for c, value in enumerate(differential):
                        total[c] += weight * value
        for coeffs, total in zip(series, totals):
            coeffs.append(tuple(total))
    return [tuple(coeffs) for coeffs in series]


def _series_product(left, right):
    """The product of two coefficient lists of one length, truncated to it."""
    return [
        sum((left[i] * right[q - i] for i in range(q + 1)), Fraction(0))
        for q in range(len(left))
    ]


def _field_at_series(field, arguments):
    """f at a vector of truncated series, one coefficient list per component;
    each term's powers by repeated multiplication."""
    length = len(arguments[0])
    values = []
    for component in field.components:
        total = [Fraction(0)] * length
        for exponents, coefficient in component:
            term = [Fraction(coefficient)] + [Fraction(0)] * (length - 1)
            for series, power in zip(arguments, exponents):
                for _ in range(power):
                    term = _series_product(term, series)
            total = [a + b for a, b in zip(total, term)]
        values.append(total)
    return values


def iteration_series_reference(field, point, degree, tableau=None):
    """The series of the flow through tau^degree, or with a tableau of its
    step, by fixed-point iteration over truncated Fraction series.

    The flow sweeps y <- x0 + integral of f(y) from y = x0; the stages sweep
    k_i <- f(x0 + tau * sum_j a_ij k_j) from zero slopes, every stage from
    the previous sweep, and the step is x0 + tau * sum_i b_i k_i.  Each
    sweep fixes one more coefficient.  Returns (coefficient vectors of the
    flow or step, one tuple of coefficient vectors per stage truncated at
    max(degree - 1, 0)); there are no stages for the flow.
    """
    x0 = [Fraction(x) for x in point]
    if tableau is None:
        flow = [[x] + [Fraction(0)] * degree for x in x0]
        for _ in range(degree):
            slope = _field_at_series(field, flow)
            flow = [[x] + [k[q] / (q + 1) for q in range(degree)] for x, k in zip(x0, slope)]
        return tuple(zip(*flow)), []
    length = max(degree, 1)  # the stages' truncation max(degree - 1, 0), plus one
    zero = [[Fraction(0)] * length for _ in x0]
    stages = [zero] * tableau.stages
    for _ in range(length):
        stages = [
            _field_at_series(
                field,
                [
                    [x] + [sum(a * k[c][q] for a, k in zip(row, stages)) for q in range(length - 1)]
                    for c, x in enumerate(x0)
                ],
            )
            for row in tableau.a
        ]
    step = [
        [x] + [sum(b * k[c][q] for b, k in zip(tableau.b, stages)) for q in range(degree)]
        for c, x in enumerate(x0)
    ]
    return tuple(zip(*step)), [tuple(zip(*k)) for k in stages]


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


def tree_field(max_order):
    """The trees of order 1..max_order and the field with one variable per tree.

    Variable t (1-based, in the grafting forest's order) has
    y_t' = prod over the children c of t of y_c, so a leaf's component is 1.
    At x0 = 0 its flow is y_t = tau^|t| / t!, and one step of a tableau
    gives y_t = b . Phi(t) tau^|t| exactly (Butcher's theorem, read off the
    recursions of t! and Phi).
    """
    forest = [tree for group in trees_by_grafting(max_order) for tree in group]
    index = {tree: k for k, tree in enumerate(forest)}
    components = []
    for tree in forest:
        exponents = [0] * len(forest)
        for kid in tree.children:
            exponents[index[kid]] += 1
        components.append({tuple(exponents): 1})
    return forest, PolyVectorField(len(forest), tuple(components))


def vector_reference(tableau, tree):
    """Phi(t) of a tableau by the recursion as written, without a memo:
    Phi_i(t) = prod over the children t_k of sum_j a[i,j] * Phi_j(t_k),
    every product and sum a Fraction, each child evaluated where it occurs."""
    vector = [Fraction(1)] * tableau.stages
    for kid in tree.children:
        inner = vector_reference(tableau, kid)
        vector = [
            x * sum((a * y for a, y in zip(row, inner)), Fraction(0))
            for x, row in zip(vector, tableau.a)
        ]
    return tuple(vector)


def weight_reference(tableau, tree):
    """b . Phi(t) of a tableau from vector_reference, without a memo."""
    return sum((b * x for b, x in zip(tableau.b, vector_reference(tableau, tree))), Fraction(0))


def residuals_reference(tableau, max_order, mode, tol):
    """The ResidualEntry list verify_order reports, Fraction by Fraction.

    Order by order over trees_by_grafting, up to and including the first
    order with a failure; t! is |t| times the children's t!, and a residual
    passes when it is 0 (exact mode) or when float(residual) is finite and
    at most tol in size (float mode).
    """

    def factorial(tree):
        return tree.order * math.prod(factorial(kid) for kid in tree.children)

    def passes(residual):
        if mode == "exact":
            return residual == 0
        try:
            return abs(float(residual)) <= tol
        except OverflowError:
            return False

    entries = []
    for order, group in enumerate(trees_by_grafting(max_order), start=1):
        for tree in group:
            weight = weight_reference(tableau, tree)
            rhs = Fraction(1, factorial(tree))
            entries.append(
                ResidualEntry(tree, order, weight, rhs, weight - rhs, passes(weight - rhs))
            )
        if not all(entry.passed for entry in entries):
            break
    return entries


def integer_rows_reference(rows):
    """Rows of rationals as integer numerators over one denominator, the lcm
    of every cell's, read cell by cell."""
    rows = [[Fraction(x) for x in row] for row in rows]
    denominator = math.lcm(*(x.denominator for row in rows for x in row))
    scaled = [tuple(x.numerator * denominator // x.denominator for x in row) for row in rows]
    return scaled, denominator


def tableau_integers_reference(tableau):
    """A's rows as their nonzero (j, numerator) pairs over D_A, D_A, A's
    integer row sums, b's numerators over D_b and D_b."""
    rows, d_a = integer_rows_reference(tableau.a)
    (b,), d_b = integer_rows_reference([tableau.b])
    sparse = [[(j, x) for j, x in enumerate(row) if x] for row in rows]
    return sparse, d_a, [sum(row) for row in rows], b, d_b


def field_integers_reference(field):
    """The field's coefficients per component over one scale, and its degree."""
    coefficients = integer_rows_reference([c for _, c in terms] for terms in field.components)
    degrees = [sum(exponents) for terms in field.components for exponents, _ in terms]
    return coefficients, max(degrees, default=0)


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
def random_tableaus(draw, stages=st.integers(1, 3), explicit=st.booleans()):
    """Rational tableaus; stages and explicit are strategies (by default 1-3 stages, either kind)."""
    stages = draw(stages)
    explicit = draw(explicit)
    entries = st.fractions(-2, 2, max_denominator=5)
    a = [
        [draw(entries) if j < i or not explicit else 0 for j in range(stages)]
        for i in range(stages)
    ]
    b = [draw(entries) for _ in range(stages)]
    return ButcherTableau.from_rows("random", a, b)
