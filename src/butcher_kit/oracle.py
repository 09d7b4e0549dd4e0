"""Taylor series of exact and discrete flows of polynomial vector fields.

For a polynomial field f and a point x0, the exact solution of x' = f(x),
x(0) = x0 expands as

    x(tau) = x0 + sum_{q>=1} tau^q sum_{order(t)=q} F(t)(x0) / (sigma(t) t!)

where F(t) is the elementary differential of the tree t: F of the single
node is f(x0), and F([t1..tm]) applies the m-th derivative of f at x0 to
the child differentials.  That is a contraction of the derivative table,

    F([t1..tm])_c = sum_K d_K f_c(x0) * sum_(k_1..k_m) prod_i F(t_i)[k_i],

with K running over the sorted index multisets of size m and (k_1..k_m)
over the distinct orderings of K.  The table holds the nonzero values only
and is built once per memo of elementary_differential, so a tree with
more children than deg f costs nothing.

with sigma(t) the tree's symmetry count (alpha(t) = 1/sigma(t)).  A
Runge-Kutta step with tableau (A, b) expands the same way with
weight(t)/sigma(t) in place of 1/(sigma(t) t!), where weight(t) is the
tableau's elementary weight b . Phi(t) as defined in conditions; stage i's
slope takes Phi_i(t)/sigma(t) on tau^(q-1).  Every tree series comes from
one walk over the forest, _tree_series, with one derivative table: its
factor gives each tree one weight per output series, so all stages of a
tableau share one walk.  rk_series_trees and stage_series_trees build one
ElementaryWeights per call, so each subtree's Phi is computed once.

The tree routes run in integers.  F(t) is kept as integer numerators over
one unreduced denominator, and each tree's weights as integer numerators
over sigma(t) t!, or over sigma(t) times the scale of the tableau's
integer weights.  The trees of one order are summed over the lcm of their
denominators, so there is one Fraction per component and coefficient.

Each series is also computed a second, structurally unrelated way, by one
engine, _slopes: it solves k_i = f(x0 + tau * shift_i(k)) in the series
ring one power of tau at a time, each coefficient computed once from the
ones below it (recursive Taylor coefficients).  The stage equations take
shift_i(k) = sum_j A[i][j] k_j, and the step is x0 + tau * sum_i b_i k_i.
Picard iteration is the one-slope case: the flow's slope solves
k = f(x0 + integral of k), and the flow is x0 + integral of k.

The iteration runs in integers too, each coefficient over one scale known
in advance.  With x0 = X/d, the field's coefficients over one denominator
F, A over one denominator D_A (1 for the flow), E = max(1, deg f) and
g = D_A F d^(E-1), coefficient r of a stage's argument is an integer over
d g^r r!, of a degree-e monomial at it over d^e g^r r!, and of a slope
over F d^E g^r r!.  A product of two series then needs only binomial
weights, and a shift only integer factors, so nothing is divided until
each output coefficient becomes one Fraction.  The tree
formulas and the iteration share nothing but the field's term tables: the
tree routes read the derivatives of f at x0 off them, the iteration the
terms of f itself.  So their agreement is a meaningful check, not a
tautology.

All arithmetic is exact; series are truncated at a caller-chosen degree.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import mul
from typing import Callable, Mapping, Sequence

from .algebra import UNSIGNED_RATIONAL, format_rational, numerators_over, parse_rational
from .trees import RootedTree, TreesByOrder, sigma, tree_factorial
from .verify import ButcherTableau, check_list, read_document, size_field

__all__ = [
    "FieldError",
    "FieldSyntaxError",
    "PolyVectorField",
    "load_field",
    "parse_point",
    "TauSeries",
    "elementary_differential",
    "flow_series_trees",
    "flow_series_picard",
    "rk_series_trees",
    "rk_series_direct",
    "stage_series_trees",
    "stage_series_direct",
]


class FieldError(ValueError):
    """Malformed vector-field document."""


class FieldSyntaxError(ValueError):
    """Malformed component text; .position is the 0-based offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# The highest degree of a term in a field component; a term above it is
# refused while parsing, before any work.  The iteration routes build a
# monomial of degree e from at most 2 log2(e) series products, so the cost
# follows the coefficients' digits more than e: at --p 6 on a 2-core Xeon,
# the four series routes of a 2-dimensional field of five degree-400 terms
# with butcher6 at x0 = (1/2, 1/3) take 0.03 s of CPU in process (16 MB),
# and 0.08 s at degree 800.
MAX_FIELD_DEGREE = 400

# Component grammar, read left to right in one pass by _parse_component:
#   component: ["+"|"-"] term {("+"|"-") term}
#   term: factor {"*" factor}
#   factor: unsigned rational ("p", "p/q" or a decimal) | x<k> | x<k>^<e>
# so a sign stands only in front of a term.  No parentheses; whitespace may
# stand between any two tokens.  The first error met is raised with its
# 0-based position in the text.
_FACTOR = re.compile(
    rf"\s*(?P<factor>(?P<number>{UNSIGNED_RATIONAL})|x(?P<index>[0-9]+)(?:\^(?P<power>[0-9]+))?)\s*"
)
_SPACE = re.compile(r"\s*")
# A variable index or exponent of more digits is refused before int() reads
# it: no dimension or degree in range needs that many.
_MAX_DIGITS = 18


# A term is (exponents, coefficient), one exponent per variable.  A field
# component is its nonzero terms, sorted by exponents.
Term = tuple[tuple[int, ...], Fraction]
Component = tuple[Term, ...]


def _parse_component(text: str, dim: int) -> list[Term]:
    # One pass with one position: each factor is one match of _FACTOR, and
    # each check runs where its text is read, so the first error in reading
    # order is the one raised.  The terms come back as read; PolyVectorField
    # sums like terms in one dict, so a long component builds in linear time.
    pos = _SPACE.match(text).end()
    if pos == len(text):
        raise FieldSyntaxError("empty polynomial", 0)
    terms: list[Term] = []
    op = text[pos]  # the sign in front of the next term, if it is one
    if op in "+-":
        pos += 1
    while True:
        coefficient = Fraction(-1 if op == "-" else 1)
        exponents = [0] * dim
        term = pos
        op = "*"
        while op == "*":
            factor = _FACTOR.match(text, pos)
            if factor is None:
                raise _misplaced(text, pos, "expected a factor")
            start = factor.start("factor")
            number = factor.group("number")
            if number:
                try:
                    coefficient *= parse_rational(number)
                except ValueError as err:  # a zero denominator or too many digits
                    raise FieldSyntaxError(str(err), start) from None
            else:
                for group, what in (("index", "variable index"), ("power", "exponent")):
                    digits = factor.group(group) or ""
                    if len(digits) > _MAX_DIGITS:
                        raise FieldSyntaxError(
                            f"{what} has {len(digits)} digits, more than {_MAX_DIGITS}",
                            factor.start(group),
                        )
                index = int(factor.group("index"))
                if not 1 <= index <= dim:
                    raise FieldSyntaxError(f"unknown variable x{index} (dim is {dim})", start)
                exponents[index - 1] += int(factor.group("power") or 1)
            pos = factor.end()
            op = text[pos : pos + 1]
            pos += 1
        if sum(exponents) > MAX_FIELD_DEGREE:
            raise FieldSyntaxError(
                f"degree {sum(exponents)} exceeds the cap of {MAX_FIELD_DEGREE}",
                _SPACE.match(text, term).end(),
            )
        terms.append((tuple(exponents), coefficient))
        if not op:
            return terms
        if op not in "+-":
            raise _misplaced(text, factor.end(), "expected '+' or '-'")


def _misplaced(text: str, pos: int, expected: str) -> FieldSyntaxError:
    """The error for the text at pos, past any whitespace, where the grammar
    expects something else: it quotes an operator or factor found there."""
    pos = _SPACE.match(text, pos).end()
    if pos == len(text):
        return FieldSyntaxError(expected, pos)
    factor = _FACTOR.match(text, pos)
    found = factor.group("factor") if factor else text[pos]
    if factor or found in "+-*":
        return FieldSyntaxError(f"{expected}, found {found!r}", pos)
    return FieldSyntaxError(f"unexpected character {found!r}", pos)


@dataclass(frozen=True)
class PolyVectorField:
    """A polynomial map f: Q^dim -> Q^dim, one term table per component.

    Each component is given as a mapping from exponent tuples to rationals,
    or as (exponents, coefficient) pairs whose like terms are summed, and
    stored as a Component: exact, immutable and in canonical order, so
    fields hash, and two fields are equal exactly when their polynomials
    are.
    """

    dim: int
    components: tuple[Component, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if len(self.components) != self.dim:
            raise ValueError(
                f"{len(self.components)} components do not match dim {self.dim}"
            )
        tables = []
        for component in self.components:
            terms: dict[tuple[int, ...], Fraction] = {}
            pairs = component.items() if isinstance(component, Mapping) else component
            for exponents, coefficient in pairs:
                if len(exponents) != self.dim:
                    raise ValueError(
                        f"exponent tuple {exponents} does not match dim {self.dim}"
                    )
                key = tuple(exponents)
                terms[key] = terms.get(key, 0) + Fraction(coefficient)
            tables.append(tuple(sorted((key, c) for key, c in terms.items() if c)))
        object.__setattr__(self, "components", tuple(tables))

    @classmethod
    def from_strings(cls, dim: int, component_texts: Sequence[str]) -> "PolyVectorField":
        parsed = tuple(_parse_component(text, dim) for text in component_texts)
        return cls(dim=dim, components=parsed)

    def evaluate(self, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
        point = _check_point(self, point)
        return tuple(_value(component, point) for component in self.components)


_FIELD_FIELDS = {"dim", "components"}


def load_field(source: str | Mapping) -> PolyVectorField:
    """Build a vector field from a JSON document or an already-parsed mapping.

    Schema: {"dim": int, "components": [str, ...]} with one component text
    per dimension, e.g. {"dim": 2, "components": ["x2", "-x1"]}.
    """
    document = read_document(
        source, FieldError, "field", _FIELD_FIELDS, ("dim", "components")
    )

    dim = size_field(document, "dim", FieldError)
    texts = document["components"]
    check_list(texts, "'components'", dim, FieldError, "a list of strings")
    components = []
    for i, text in enumerate(texts):
        if not isinstance(text, str):
            raise FieldError(f"components[{i + 1}] must be a string")
        try:
            components.append(_parse_component(text, dim))
        except FieldSyntaxError as err:
            raise FieldError(f"components[{i + 1}]: {err}") from None
    return PolyVectorField(dim=dim, components=tuple(components))


# An x0 entry whose numerator or denominator has more digits is refused
# while parsing, before any work.  The coefficient of tau^q is a polynomial
# of degree 1 + q(d - 1) in x0 for a field of degree d, and Python prints
# integers of at most 4300 digits: at 100 digits, reports of fields up to
# degree 7 still print at --p 6 (x1^6 with rk4 at an x0 of 100-digit
# numerator and denominator: 0.03 s of CPU in process on a 2-core Xeon),
# while the four series routes of x1^6 at an x0 of 2,201 digits take 2 s,
# and the report then fails to print.
MAX_POINT_DIGITS = 100


def parse_point(text: str, dim: int) -> tuple[Fraction, ...]:
    """Parse "1, 0" style comma-separated rationals into a point.

    A numerator or denominator of more than MAX_POINT_DIGITS digits as
    written, a decimal being its digits over 10^k, is refused unconverted.
    """
    pieces = text.split(",")
    if len(pieces) != dim:
        raise ValueError(f"point has {len(pieces)} entries, expected {dim}")
    values = []
    for i, piece in enumerate(pieces):
        numerator, _, denominator = piece.strip().removeprefix("-").partition("/")
        whole, point, decimals = numerator.partition(".")
        if point:
            numerator, denominator = whole + decimals, "1" + "0" * len(decimals)
        for part, name in ((numerator, "numerator"), (denominator, "denominator")):
            # Malformed text is left to parse_rational to report.
            if len(part.lstrip("0")) > MAX_POINT_DIGITS and part.isascii() and part.isdigit():
                raise ValueError(
                    f"point entry {i + 1}: {name} has more than {MAX_POINT_DIGITS} digits"
                )
        try:
            values.append(parse_rational(piece))
        except ValueError as err:
            raise ValueError(f"point entry {i + 1}: {err}") from None
    return tuple(values)


@dataclass(frozen=True)
class TauSeries:
    """A truncated power series in the step size with vector coefficients.

    coeffs[q] is the coefficient vector of tau^q; the truncation degree is
    len(coeffs) - 1.  Exact rationals throughout.
    """

    coeffs: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series needs at least the degree-0 coefficient")
        width = len(self.coeffs[0])
        if width < 1 or any(len(row) != width for row in self.coeffs):
            raise ValueError("all coefficient vectors must share one dimension")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def dim(self) -> int:
        return len(self.coeffs[0])

    def first_difference(self, other: "TauSeries") -> int | None:
        """Lowest degree where the two series disagree, None if none exists.

        Only degrees both series carry are compared.
        """
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        shared = min(self.degree, other.degree)
        for q in range(shared + 1):
            if self.coeffs[q] != other.coeffs[q]:
                return q
        return None

    def to_mapping(self) -> dict:
        return {
            "dim": self.dim,
            "degree": self.degree,
            "coefficients": [
                [format_rational(x) for x in row] for row in self.coeffs
            ],
        }

    def render_text(self) -> str:
        lines = []
        for q, row in enumerate(self.coeffs):
            body = ", ".join(format_rational(x) for x in row)
            lines.append(f"tau^{q}: ({body})")
        return "\n".join(lines)


def elementary_differential(
    field: PolyVectorField,
    tree: RootedTree,
    point: Sequence[Fraction],
    memo: dict | None = None,
) -> tuple[Fraction, ...]:
    """F(tree)(point), contracted from the derivatives of the field at point.

    Pass one memo dict across calls when evaluating many trees of the same
    field at the same point: the memo keeps the derivative table, which is
    built once per memo and keeps each subtree's differential, and
    subtrees repeat heavily across a forest.  A memo whose table belongs to
    another field or point raises ValueError.
    """
    if memo is None:
        memo = {}
    table = memo.get(_TABLE_KEY)
    if table is None:
        table = memo[_TABLE_KEY] = _DerivativeTable(field, point)
    elif not table.serves(field, point):
        raise ValueError("the memo holds the derivative table of another field or point")
    numerators, denominator = table.differential(tree)
    return tuple(Fraction(x, denominator) for x in numerators)


# The memo entry that holds a memo's derivative table, its only entry.
_TABLE_KEY = "derivative table"


class _DerivativeTable:
    """The nonzero d_K f(x0) for sorted index multisets K, one |K| at a time.

    Level m is built the first time a tree with m children asks for it, by
    taking partials of the level m - 1 term tables along their nonzero
    branches only, so the table never grows past deg f or past what the
    forest needs.  The contraction runs in integers: a level's values are
    kept over one common denominator, and F(t) is kept as integer
    numerators over one unreduced denominator, the level's times the
    children's.  No Fraction is built per tree; the callers make one per
    coefficient they return.
    """

    def __init__(self, field: PolyVectorField, point: Sequence[Fraction]) -> None:
        self._field = field
        self._point = tuple(point)
        self._dim = field.dim
        # Sorted indices K with the term tables of d_K f_c, at the last level built.
        self._frontier = [((), field.components)]
        # levels[m]: (common denominator, rows (distinct arrangements of K,
        # numerators of (d_K f_c(x0))_c)), rows with a nonzero value only.
        self._levels: list[tuple[int, list]] = []
        self._memo: dict[RootedTree, tuple[tuple[int, ...], int]] = {}

    def serves(self, field: PolyVectorField, point: Sequence[Fraction]) -> bool:
        """Whether this table was built for field at point."""
        return field == self._field and tuple(point) == self._point

    def _level(self, m: int) -> tuple[int, list]:
        while len(self._levels) <= m and self._frontier:
            rows, frontier = [], []
            for indices, tables in self._frontier:
                values = tuple(_value(table, self._point) for table in tables)
                if any(values):
                    rows.append((_arrangements(indices), values))
                for k in range(indices[-1] if indices else 0, self._dim):
                    partials = tuple(_partial(table, k) for table in tables)
                    if any(partials):
                        frontier.append((indices + (k,), partials))
            denominator = math.lcm(*(x.denominator for _, values in rows for x in values))
            scaled = [(arr, numerators_over(values, denominator)) for arr, values in rows]
            self._levels.append((denominator, scaled))
            self._frontier = frontier
        return self._levels[m] if m < len(self._levels) else (1, [])

    def differential(self, tree: RootedTree) -> tuple[tuple[int, ...], int]:
        """F(tree)(x0) as (numerators, denominator), memoised by tree."""
        cached = self._memo.get(tree)
        if cached is not None:
            return cached
        denominator, rows = self._level(len(tree.children))
        totals = [0] * self._dim
        if rows:
            kids = []
            for kid in tree.children:
                numerators, kid_denominator = self.differential(kid)
                kids.append(numerators)
                denominator *= kid_denominator
            for arrangements, numerators in rows:
                # sum over arrangements of prod_i F(t_i)[k_i], shared by all components
                spread = 0
                for arrangement in arrangements:
                    term = 1
                    for kid, k in zip(kids, arrangement):
                        term *= kid[k]
                    spread += term
                if spread:
                    for c, numerator in enumerate(numerators):
                        totals[c] += numerator * spread
        cached = self._memo[tree] = (tuple(totals), denominator)
        return cached


def _value(table: Component, point: tuple[Fraction, ...]) -> Fraction:
    """The component with this term table at point."""
    total = Fraction(0)
    for exponents, term in table:
        for base, power in zip(point, exponents):
            if power:
                term *= base**power
        total += term
    return total


def _partial(table: Component, k: int) -> Component:
    """The term table of the derivative along x<k+1>.

    Lowering the exponent of x<k+1> maps distinct terms to distinct terms
    and keeps their order, so the table stays canonical with no merging.
    """
    return tuple(
        (exponents[:k] + (power - 1,) + exponents[k + 1 :], coefficient * power)
        for exponents, coefficient in table
        if (power := exponents[k])
    )


def _arrangements(indices: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The distinct orderings of a multiset of indices."""
    if not indices:
        return [()]
    out = []
    for first in sorted(set(indices)):
        rest = list(indices)
        rest.remove(first)
        out += [(first,) + tail for tail in _arrangements(tuple(rest))]
    return out


def _check_degree(degree: int) -> None:
    if degree < 0:
        raise ValueError("truncation degree must be >= 0")


def _check_point(field: PolyVectorField, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if len(point) != field.dim:
        raise ValueError(f"point has {len(point)} entries, expected {field.dim}")
    return tuple(Fraction(x) for x in point)


def _tree_series(
    field: PolyVectorField,
    point: Sequence[Fraction],
    degree: int,
    count: int,
    factor: Callable[[RootedTree], tuple[tuple[int, ...], int]],
) -> list[TauSeries]:
    """x0 + sum over trees t of order <= degree of w_k(t) * F(t)(x0), k < count.

    factor(t) gives the weights as integer numerators over one integer
    denominator, (w^_1(t), ..., w^_count(t)) and D(t).  One walk over the
    forest and one derivative table serve all count series; a tree whose
    weights are all zero costs no differential.  The trees of one order are
    summed in integers over the lcm of their denominators, so each
    coefficient is divided once.
    """
    _check_degree(degree)
    x0 = _check_point(field, point)
    table = _DerivativeTable(field, x0)
    series = [[x0] for _ in range(count)]
    for group in TreesByOrder(degree).groups():
        terms = []
        for tree in group:
            weights, scale = factor(tree)
            if any(weights):
                numerators, denominator = table.differential(tree)
                terms.append((weights, numerators, scale * denominator))
        common = math.lcm(*(denominator for _, _, denominator in terms))
        totals = [[0] * field.dim for _ in range(count)]
        for weights, numerators, denominator in terms:
            lift = common // denominator
            for total, weight in zip(totals, weights):
                if weight:
                    weight *= lift
                    for c, value in enumerate(numerators):
                        total[c] += weight * value
        for coeffs, total in zip(series, totals):
            coeffs.append(tuple(Fraction(x, common) for x in total))
    return [TauSeries(tuple(coeffs)) for coeffs in series]


def _monomial_products(field: PolyVectorField) -> list:
    """(m, (left, right)) with m = left * right for every monomial m of degree
    >= 2 that the field's terms need; left takes half of m's degree, so a
    power x^e costs at most 2 log2(e) products.  Factors come first."""
    recipes: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
    pending = [monomial for component in field.components for monomial, _ in component]
    while pending:
        monomial = pending.pop()
        if sum(monomial) > 1 and monomial not in recipes:
            left, room = [], sum(monomial) // 2
            for power in monomial:
                left.append(min(power, room))
                room -= left[-1]
            right = tuple(power - taken for power, taken in zip(monomial, left))
            recipes[monomial] = (tuple(left), right)
            pending += recipes[monomial]
    return sorted(recipes.items(), key=lambda item: sum(item[0]))


def _slopes(
    field: PolyVectorField,
    x0: tuple[Fraction, ...],
    degree: int,
    shifts: Sequence[Callable],
    lift: int,
) -> tuple[list[tuple[list[int], ...]], list[int]]:
    """Slopes k_1..k_s through tau^degree, solving k_i = f(x0 + tau * shift_i(k)).

    The tau factor makes coefficient r of every slope depend only on the
    slopes' coefficients below r, implicit coupling included, so one pass
    over r = 0..degree computes each coefficient once (recursive Taylor
    coefficients).  Step r extends each stage's argument by
    shifts[i](slopes, r - 1), then the series of each monomial of the field
    at that argument by one Cauchy sum of its two factors' series, then
    each slope.

    The pass runs in integers, each coefficient over one scale known in
    advance.  Put x0 = X/d and the field's coefficients as C^/F over one
    denominator; lift is the common denominator D_A of the weights the
    shifts apply to the slopes (1 for Picard's integral).  With
    E = max(1, deg f) and g = lift * F * d^(E - 1), coefficient r

      - of each stage's argument is an integer over d * g^r * r!;
      - of a monomial of degree e at it is an integer M_r over
        d^e * g^r * r!, so a product's M_r is the Cauchy sum of its
        factors' weighted by binomial(r, i), and nothing is divided;
      - of each slope is K_r = sum_m C^_m * d^(E - e_m) * M_r over
        F * d^E * g^r * r!.  E bounds every e_m, and E >= 1 keeps g an
        integer.

    shifts[i](slopes, r) is the integer coefficient r + 1 of stage i's
    argument, from the K's through r.  Returns (slopes, scales): the K's,
    and scales[r] = F * d^E * g^r * r!.  Degree -1 gives empty slopes.
    """
    d = math.lcm(*(x.denominator for x in x0))
    terms = [term for component in field.components for term in component]
    f_scale = math.lcm(*(c.denominator for _, c in terms))
    top = max([1] + [sum(monomial) for monomial, _ in terms])
    g = lift * f_scale * d ** (top - 1)
    # Per component, (m, C^_m * d^(E - e_m)) for each of its terms C_m * m.
    weighted = [
        [(m, c.numerator * (f_scale // c.denominator) * d ** (top - sum(m))) for m, c in component]
        for component in field.components
    ]
    products = _monomial_products(field)
    units = [tuple(int(i == v) for i in range(len(x0))) for v in range(len(x0))]
    constant = [1] + [0] * degree
    # Per stage, the series of every monomial at the stage's argument; a
    # variable's series is the argument's component.
    powers = [
        {(0,) * len(x0): constant}
        | {unit: [x] for unit, x in zip(units, numerators_over(x0, d))}
        | {monomial: [] for monomial, _ in products}
        for _ in shifts
    ]
    slopes = [tuple([] for _ in x0) for _ in shifts]
    for r in range(degree + 1):
        if r:
            for power, shifted in zip(powers, [shift(slopes, r - 1) for shift in shifts]):
                for unit, moved in zip(units, shifted):
                    power[unit].append(moved)
        binomials = [math.comb(r, i) for i in range(r + 1)]
        for power, slope in zip(powers, slopes):
            for monomial, (left, right) in products:
                power[monomial].append(
                    sum(map(mul, map(mul, binomials, power[left]), reversed(power[right])))
                )
            for series, component in zip(slope, weighted):
                series.append(sum(c * power[monomial][r] for monomial, c in component))
    scales, scale = [], f_scale * d**top
    for r in range(degree + 1):
        scales.append(scale)
        scale *= g * (r + 1)
    return slopes, scales


def _over_one(rows: Sequence[Sequence[Fraction]]) -> tuple[list[tuple[int, ...]], int]:
    """Rows of rationals as integer rows over one common denominator."""
    denominator = math.lcm(*(x.denominator for row in rows for x in row))
    return [numerators_over(row, denominator) for row in rows], denominator


def _stage_shift(row: Sequence[int], slopes: list, r: int) -> tuple[int, ...]:
    """Coefficient r + 1 of x0 + tau * sum_j (row[j] / lift) * k_j, where
    lift is the denominator row was put over: (r + 1) * sum_j row[j] * K_j,r,
    the factor r + 1 taking r! to (r + 1)!."""
    return tuple(
        (r + 1) * sum(w * slope[c][r] for w, slope in zip(row, slopes) if w)
        for c in range(len(slopes[0]))
    )


def _integral(slopes: list, r: int) -> tuple[int, ...]:
    """Coefficient r + 1 of x0 + integral of the one slope k: k_r / (r + 1),
    whose scale F * d^E * g^r * (r + 1)! is d * g^(r + 1) * (r + 1)! when
    lift is 1, so its integer is K_r itself."""
    (slope,) = slopes
    return tuple(series[r] for series in slope)


def _update(
    x0: tuple[Fraction, ...], shift: Callable, lift: int, slopes: list, scales: list[int]
) -> TauSeries:
    """x0 + tau * shift(k) through tau^len(scales): coefficient q + 1 is
    shift(slopes, q) over lift * scales[q] * (q + 1), where lift is the
    denominator of the shift's weights and scales come from _slopes."""
    return TauSeries(
        (x0,)
        + tuple(
            tuple(Fraction(x, lift * scale * (q + 1)) for x in shift(slopes, q))
            for q, scale in enumerate(scales)
        )
    )


def _stage_slopes(
    tableau: ButcherTableau, field: PolyVectorField, x0: tuple[Fraction, ...], degree: int
) -> tuple[list[tuple[list[int], ...]], list[int]]:
    """The stage slopes of tableau through tau^degree, as _slopes returns them."""
    a, lift = _over_one(tableau.a)
    return _slopes(field, x0, degree, [partial(_stage_shift, row) for row in a], lift)


def flow_series_trees(
    field: PolyVectorField, point: Sequence[Fraction], degree: int
) -> TauSeries:
    """Exact-flow expansion assembled tree by tree: weight 1/(sigma(t) * t!)."""
    (series,) = _tree_series(
        field, point, degree, 1, lambda tree: ((1,), sigma(tree) * tree_factorial(tree))
    )
    return series


def flow_series_picard(
    field: PolyVectorField, point: Sequence[Fraction], degree: int
) -> TauSeries:
    """Exact-flow expansion from the slope equation, independent of any trees.

    The flow's slope solves k = f(x0 + integral of k), the one-slope case
    of the stage equations and the fixed point of Picard iteration; _slopes
    solves it one coefficient at a time.  The flow is x0 + integral of k.
    """
    _check_degree(degree)
    x0 = _check_point(field, point)
    slopes, scales = _slopes(field, x0, degree - 1, [_integral], 1)
    return _update(x0, _integral, 1, slopes, scales)


def rk_series_trees(
    tableau: ButcherTableau,
    field: PolyVectorField,
    point: Sequence[Fraction],
    degree: int,
) -> TauSeries:
    """One-step expansion assembled from elementary weights, tree by tree.

    Tree t weighs b . Phi(t) / sigma(t), taken from the tableau's integer
    weights without reducing.
    """
    weights = tableau.elementary_weights()

    def factor(tree: RootedTree) -> tuple[tuple[int], int]:
        weight, scale = weights.integer_weight(tree)
        return (weight,), sigma(tree) * scale

    (series,) = _tree_series(field, point, degree, 1, factor)
    return series


def rk_series_direct(
    tableau: ButcherTableau,
    field: PolyVectorField,
    point: Sequence[Fraction],
    degree: int,
) -> TauSeries:
    """One-step expansion x0 + tau * sum_i b_i k_i from the stage slopes; no trees."""
    _check_degree(degree)
    x0 = _check_point(field, point)
    slopes, scales = _stage_slopes(tableau, field, x0, degree - 1)
    (b,), lift = _over_one([tableau.b])
    return _update(x0, partial(_stage_shift, b), lift, slopes, scales)


def stage_series_direct(
    tableau: ButcherTableau,
    field: PolyVectorField,
    point: Sequence[Fraction],
    degree: int,
) -> tuple[TauSeries, ...]:
    """Per-stage slope series from the fixed-point route.

    Stages are truncated at max(degree - 1, 0): the update multiplies them
    by tau, so that is all a degree-truncated step can see.
    """
    _check_degree(degree)
    x0 = _check_point(field, point)
    slopes, scales = _stage_slopes(tableau, field, x0, max(degree - 1, 0))
    return tuple(
        TauSeries(
            tuple(
                tuple(Fraction(x, scale) for x in column)
                for column, scale in zip(zip(*slope), scales)
            )
        )
        for slope in slopes
    )


def stage_series_trees(
    tableau: ButcherTableau,
    field: PolyVectorField,
    point: Sequence[Fraction],
    degree: int,
) -> tuple[TauSeries, ...]:
    """Per-stage slope series from trees: a tree of order q lands on tau^(q-1).

    Stage i is the tree series with weight Phi_i(t) / sigma(t), shifted
    down one power; it is truncated like stage_series_direct.  All stages
    come from one walk over the forest.
    """
    _check_degree(degree)
    weights = tableau.elementary_weights()

    def factor(tree: RootedTree) -> tuple[tuple[int, ...], int]:
        phis, scale = weights.integer_vector(tree)
        return phis, sigma(tree) * scale

    stages = _tree_series(field, point, max(degree, 1), tableau.stages, factor)
    return tuple(TauSeries(series.coeffs[1:]) for series in stages)
