"""Taylor series of exact and discrete flows of polynomial vector fields.

For a polynomial field f and a point x0, the exact solution of x' = f(x),
x(0) = x0 expands as

    x(tau) = x0 + sum_{q>=1} tau^q sum_{order(t)=q} F(t)(x0) / (sigma(t) t!)

with sigma(t) the tree's symmetry count (alpha(t) = 1/sigma(t)) and F(t)
the elementary differential of the tree t: F of the single node is f(x0),
and F([t1..tm]) applies the m-th derivative of f at x0 to the child
differentials.  That is a contraction of the derivative table, one child
at a time: from T_0 = d^m f(x0), level m of the table,

    T_i[K]_c = sum_k T_(i-1)[K + k]_c * F(t_i)[k],   F([t1..tm]) = T_m[()],

with K running over the sorted index multisets of size m - i (each T_i is
symmetric).  Level m is read off the field's terms: for every j <= e with
|j| = m, a term c x^e adds c prod_k perm(e_k, j_k) x0_k^(e_k - j_k) to
d_K f at the K that holds each k j_k times.  The table holds each row as
its nonzero values only, builds a level the first time a tree asks for
it, so a tree with more children than deg f costs nothing, and keeps T_i
under m and t1..ti for i < m, so trees whose children share a prefix
share its contractions.  The last contraction, T_m, is summed straight
into F(t).

A Runge-Kutta step with tableau (A, b) expands the same way, so both are
one Butcher series, x0 + sum_t tau^|t| w(t) F(t)(x0) / sigma(t), with
w(t) = 1/t! for the flow and w(t) = b . Phi(t), the tableau's elementary
weight as defined in conditions, for the step.  Each tree series comes
from one walk over the process's one forest (see trees), _tree_series,
which reads F(t) off the field's one derivative table; a route gives only
its w, and the walk reads sigma(t) by id and applies it.  The table keeps
F(t) under the tree's children, and each field keeps one, for the last
point a tree route expanded it at: so the flow and the step at one field
and point share every F(t), which is the paper's point, and a second
series at that point computes only the differentials the first did not
need.  The tables are kept in a dict that holds each field weakly, and a
table holds no reference to its field, so it lives exactly as long as the
field does; a new point replaces it.  The forest is grown once per
process, so a second series, or a second job, walks trees already built.
rk_series_trees builds one ElementaryWeights per call, so each child's
factor A . Phi is computed once per call.

The tree routes run in integers.  F(t) is kept as integer numerators over
one unreduced denominator, and each w(t) as an integer numerator over its
own scale: t! for the flow, the scale of the tableau's integer weight for
the step.  The walk multiplies sigma(t) into that scale, sums the trees of
one order in one integer sum per distinct denominator, and those sums over
their lcm, so there is one Fraction per component and coefficient.  It
reads F(t) before w(t), and a tree whose F(t) is zero costs no weight.

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
terms of f itself, and never the derivative table.  So their agreement is
a meaningful check, not a tautology, and a wrong F(t) shows in both
comparisons.

All arithmetic is exact; series are truncated at a caller-chosen degree.
"""

from __future__ import annotations

import math
import re
import weakref
from collections import defaultdict
from fractions import Fraction
from functools import partial
from operator import mul
from typing import Callable, Mapping, Sequence

from ._record import Record, set_field
from .algebra import UNSIGNED_RATIONAL, format_rational, integer_rows, parse_rational
from .trees import RootedTree, TreesByOrder, child_ids, sigma_of, tree_factorial, tree_id
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

# The largest field dimension; a larger "dim" is refused right after it is
# read, before any component is parsed.  Work grows about as dim to dim^2:
# on a 2-core Xeon, the field x<i+2>^2 + x<i+1> (wrapping around) at
# x0 = (1/2, ...) with butcher6 at --p 6 takes 0.05 s at dim 50, 0.10 s at
# dim 100 and 0.23 s at dim 150 (CPU time of one CLI run each, in process).
# With rk4 at --p 2, 1,000 components "x1" take 1.0 s, and 4,000 took 11 s
# and 269 MB.  Denser fields cost far more: with 50 degree-5 terms per
# component at dim 100, rk4 at --p 6 takes 3.6-4.1 s and 138 MB through the
# CLI (2-core Intel Xeon, Python 3.11.7).
MAX_FIELD_DIM = 100

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


class PolyVectorField(Record):
    """A polynomial map f: Q^dim -> Q^dim, one term table per component.

    Each component is given as a mapping from exponent tuples to rationals,
    or as (exponents, coefficient) pairs whose like terms are summed, and
    stored as a Component: exact, immutable and in canonical order, so
    fields hash, and two fields are equal exactly when their polynomials
    are.  The hash is computed once, here: the oracle looks a field up by
    it for every series it expands, and hashing every coefficient of a
    large field costs far more than the lookup.
    """

    _fields = ("dim", "components")

    def __init__(self, dim: int, components: tuple[Component, ...]) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if len(components) != dim:
            raise ValueError(
                f"{len(components)} components do not match dim {dim}"
            )
        tables = []
        for component in components:
            terms: dict[tuple[int, ...], Fraction] = {}
            pairs = component.items() if isinstance(component, Mapping) else component
            for exponents, coefficient in pairs:
                if len(exponents) != dim:
                    raise ValueError(
                        f"exponent tuple {exponents} does not match dim {dim}"
                    )
                key = tuple(exponents)
                if not all(type(e) is int and e >= 0 for e in key):
                    raise ValueError(f"exponent tuple {key} must hold non-negative ints")
                terms[key] = terms.get(key, 0) + Fraction(coefficient)
            tables.append(tuple(sorted((key, c) for key, c in terms.items() if c)))
        components = tuple(tables)
        set_field(self, "dim", dim)
        set_field(self, "components", components)
        set_field(self, "_hash", hash((dim, components)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_strings(cls, dim: int, component_texts: Sequence[str]) -> "PolyVectorField":
        parsed = tuple(_parse_component(text, dim) for text in component_texts)
        return cls(dim=dim, components=parsed)


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
    if dim > MAX_FIELD_DIM:
        raise FieldError(f"'dim' must be <= {MAX_FIELD_DIM}")
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


class TauSeries(Record):
    """A truncated power series in the step size with vector coefficients.

    coeffs[q] is the coefficient vector of tau^q; the truncation degree is
    len(coeffs) - 1.  Exact rationals throughout.
    """

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[tuple[Fraction, ...], ...]) -> None:
        if not coeffs:
            raise ValueError("a series needs at least the degree-0 coefficient")
        width = len(coeffs[0])
        if width < 1 or any(len(row) != width for row in coeffs):
            raise ValueError("all coefficient vectors must share one dimension")
        set_field(self, "coeffs", coeffs)

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
        rows = self.to_mapping()["coefficients"]
        return "\n".join(f"tau^{q}: ({', '.join(row)})" for q, row in enumerate(rows))


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
    subtrees repeat heavily across a forest.  Without a memo the field's
    own table is read, the one the tree routes share.  A point whose
    length is not the field's dim, or a memo whose table belongs to
    another field or point, raises ValueError.
    """
    if memo is None:
        table = _field_table(field, point)
    else:
        table = memo.get(_TABLE_KEY)
        if table is None:
            table = memo[_TABLE_KEY] = _DerivativeTable(field, point)
        elif not table.serves(field, point):
            raise ValueError("the memo holds the derivative table of another field or point")
    numerators, denominator = table.differential(tree_id(tree))
    return tuple(Fraction(x, denominator) for x in numerators)


# The memo entry that holds a memo's derivative table, its only entry.
_TABLE_KEY = "derivative table"

# Each field's derivative table, at the last point it was asked for.  The
# field is held weakly, and the table holds no reference to it, so an entry
# goes when its field does; a field's own attributes, and so its equality,
# hash and pickle, are left alone.
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _field_table(field: PolyVectorField, point: Sequence[Fraction]) -> _DerivativeTable:
    """The field's derivative table at point: the one kept for the field if
    it was built at point, else a new one, which replaces it.  Threads that
    ask at two points may replace each other's table; each keeps the one it
    got, so the worst a race costs is a table built twice."""
    point = _check_point(field, point)
    table = _TABLES.get(field)
    if table is None or table.point != point:
        table = _TABLES[field] = _DerivativeTable(field, point)
    return table


class _DerivativeTable:
    """The nonzero d_K f(x0), contracted with one child's F(t) at a time.

    One memo holds it all.  Entry (m, kids) is level m with F(kid) put into
    its first len(kids) arguments, as {rest of K: {component: numerator}}
    over one integer denominator: each row holds its nonzero numerators
    only, and a row whose numerators all cancel is dropped, so that a level
    and a contraction touch only what is nonzero.  (m, kids[:-1])
    contracted with F(kids[-1]) gives (m, kids).  Entry (m, ()) is the
    level, built from the terms of degree m or more the first time a tree
    with m children asks.  The last child leaves only the () row, which no
    other tree shares: it is summed straight into F(t)'s dense numerators,
    which are kept under t's id as (numerators, denominator), so that a hit
    is one lookup of an int.  With x0 = X/d and the coefficients over one
    denominator F, level m is kept over F d^(top - m), top the field's
    degree, and a contraction over its entry's denominator times the
    child's; no Fraction is built per tree.  Threads may share a table: an
    entry is stored whole once computed, so a race computes a value twice,
    never reads a half-made one.
    """

    def __init__(self, field: PolyVectorField, point: Sequence[Fraction]) -> None:
        # The components, not the field: the table is kept in _TABLES,
        # whose entry must not keep its own key alive.
        self._components = field.components
        self.point = _check_point(field, point)  # x0 as Fractions, one per variable
        # x0 = X / d, and the coefficients are integers C over one scale F.
        (self._x,), self._d = integer_rows([self.point])
        coefficients, self._scale = integer_rows(
            [c for _, c in terms] for terms in field.components
        )
        self._top = max((sum(e) for terms in field.components for e, _ in terms), default=0)
        # Each term of each component c as (c, degree, its nonzero
        # (variable, power) pairs in variable order, C).
        self._terms = [
            (c, sum(e), tuple((k, power) for k, power in enumerate(e) if power), numerator)
            for c, (terms, row) in enumerate(zip(field.components, coefficients))
            for (e, _), numerator in zip(terms, row)
        ]
        self._zeros = (0,) * field.dim
        self._memo: dict[int | tuple[int, tuple[int, ...]], tuple] = {}

    def serves(self, field: PolyVectorField, point: Sequence[Fraction]) -> bool:
        """Whether this table was built for field at point."""
        return field.components == self._components and tuple(point) == self.point

    def _level(self, m: int) -> tuple[dict, int]:
        # Over F d^(top - m), a term of degree D starts from C d^(top - D).
        rows: dict[tuple[int, ...], dict[int, int]] = defaultdict(dict)
        for c, degree, pairs, numerator in self._terms:
            if degree < m:
                continue
            # (K so far, its value so far, |j| left to place), one
            # variable at a time; degree becomes the total power of the
            # variables after k, which must cover what is left.
            partials = [((), numerator * self._d ** (self._top - degree), m)]
            for k, power in pairs:
                degree -= power
                x = self._x[k]
                partials = [
                    (key + (k,) * j, value * math.perm(power, j) * x ** (power - j), left - j)
                    for key, value, left in partials
                    for j in range(max(0, left - degree), min(power, left) + 1)
                ]
            for key, value, _ in partials:
                if value:
                    row = rows[key]
                    row[c] = row.get(c, 0) + value
        return _nonzero(rows), self._scale * self._d ** max(0, self._top - m)

    def differential(self, i: int) -> tuple[Sequence[int], int]:
        """F(t)(x0) of the tree of id i as (numerators, denominator); the longest
        kept prefix of its kids is extended in a loop, one stack frame a level."""
        value = self._memo.get(i)
        if value is None:
            kids = child_ids(i)
            m = n = len(kids)
            entry = None
            while entry is None and n:
                n -= 1
                entry = self._memo.get((m, kids[:n]))
            if entry is None:
                entry = self._memo[(m, ())] = self._level(m)
            for n in range(n, m - 1):
                if entry[0]:  # an empty entry stays empty, and needs no F(kid)
                    entry = _contract(entry, self.differential(kids[n]))
                self._memo[(m, kids[: n + 1])] = entry
            rows, denominator = entry
            if not rows:
                value = self._zeros, denominator
            elif m:
                # The last contraction: each row is (k,), and only () is left.
                vector, kid_denominator = self._memo.get(kids[-1]) or self.differential(kids[-1])
                numerators = [0] * len(self._zeros)
                for (k,), row in rows.items():
                    x = vector[k]
                    if x:
                        for c, derivative in row.items():
                            numerators[c] += derivative * x
                value = numerators, denominator * kid_denominator
            else:
                numerators = list(self._zeros)
                for c, derivative in rows[()].items():
                    numerators[c] = derivative
                value = numerators, denominator
            self._memo[i] = value
        return value


def _nonzero(rows: dict[tuple[int, ...], dict[int, int]]) -> dict[tuple[int, ...], dict[int, int]]:
    """rows without the numerators that cancelled to zero, and without the
    rows that left empty; every row came in with at least one numerator."""
    kept = {}
    for key, row in rows.items():
        if 0 in row.values():
            row = {c: value for c, value in row.items() if value}
            if not row:
                continue
        kept[key] = row
    return kept


def _contract(entry: tuple[dict, int], kid: tuple[Sequence[int], int]) -> tuple[dict, int]:
    """T'[K'] = sum_k T[K' + k] F[k] over the product of the denominators, for
    T an entry of the derivative table and F a child's differential: each row
    K of T gives to K less one k, once per distinct k in K.  Rows hold only
    their nonzero numerators, so a product is made only where both factors
    are nonzero; numerators that cancel are dropped, and rows left empty."""
    (rows, denominator), (vector, kid_denominator) = entry, kid
    contracted: dict[tuple[int, ...], dict[int, int]] = {}
    for key, row in rows.items():
        for p, k in enumerate(key):
            x = vector[k]
            if not x or (p and key[p - 1] == k):
                continue
            rest = key[:p] + key[p + 1 :]
            total = contracted.get(rest)
            if total is None:
                contracted[rest] = {c: value * x for c, value in row.items()}
            else:
                for c, value in row.items():
                    total[c] = total.get(c, 0) + value * x
    return _nonzero(contracted), denominator * kid_denominator


def _check_degree(degree: int) -> None:
    if degree < 0:
        raise ValueError("truncation degree must be >= 0")


def _check_point(field: PolyVectorField, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if len(point) != field.dim:
        raise ValueError(f"point has {len(point)} entries, expected {field.dim}")
    # A Fraction (not a subclass) is kept as it is: a table's point then
    # holds the caller's own objects, which tuple equality, and so serves,
    # compares by identity first.
    return tuple(x if type(x) is Fraction else Fraction(x) for x in point)


def _tree_series(
    field: PolyVectorField,
    point: Sequence[Fraction],
    degree: int,
    weight: Callable[[RootedTree], tuple[int, int]],
) -> TauSeries:
    """The Butcher series x0 + sum over trees t of order <= degree of
    w(t) / sigma(t) * F(t)(x0), which both tree routes share.

    The walk reads the groups of the process's one forest, and F(t) off
    the field's derivative table at point, which the other tree route at
    that point shares.  F(t) is read first, so a tree whose F(t) is zero
    costs no weight.  weight(t) gives w(t) as an integer numerator over an
    integer scale, and the walk reads sigma(t) by the tree's id and divides
    by it itself.  The trees of one order are summed in integers, one sum
    per distinct denominator, and the sums over the lcm of those, so each
    coefficient is divided once.
    """
    _check_degree(degree)
    table = _field_table(field, point)
    coeffs = [table.point]
    for group in TreesByOrder(degree).groups():
        sums: dict[int, list[int]] = {}  # denominator -> summed numerators
        for tree in group:
            i = tree_id(tree)
            numerators, denominator = table.differential(i)
            if not any(numerators):
                continue
            numerator, scale = weight(tree)
            if numerator:
                denominator *= scale * sigma_of(i)
                total = sums.get(denominator)
                if total is None:
                    sums[denominator] = [numerator * value for value in numerators]
                else:
                    for c, value in enumerate(numerators):
                        total[c] += numerator * value
        common = math.lcm(*sums)
        total = [0] * field.dim
        for denominator, numerators in sums.items():
            factor = common // denominator
            for c, value in enumerate(numerators):
                total[c] += factor * value
        coeffs.append(tuple(Fraction(x, common) for x in total))
    return TauSeries(tuple(coeffs))


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
    (numerators,), d = integer_rows([x0])
    coefficients, f_scale = integer_rows(
        [c for _, c in component] for component in field.components
    )
    top = max([1] + [sum(monomial) for component in field.components for monomial, _ in component])
    g = lift * f_scale * d ** (top - 1)
    # Per component, (m, C^_m * d^(E - e_m)) for each of its terms C_m * m.
    weighted = [
        [(m, c * d ** (top - sum(m))) for (m, _), c in zip(component, row)]
        for component, row in zip(field.components, coefficients)
    ]
    products = _monomial_products(field)
    units = [tuple(int(i == v) for i in range(len(x0))) for v in range(len(x0))]
    constant = [1] + [0] * degree
    # Per stage, the series of every monomial at the stage's argument; a
    # variable's series is the argument's component.
    powers = [
        {(0,) * len(x0): constant}
        | {unit: [x] for unit, x in zip(units, numerators)}
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


def flow_series_trees(
    field: PolyVectorField, point: Sequence[Fraction], degree: int
) -> TauSeries:
    """Exact-flow expansion assembled tree by tree: w(t) = 1/t!."""
    return _tree_series(field, point, degree, lambda tree: (1, tree_factorial(tree)))


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

    w(t) = b . Phi(t), the tableau's integer weight over its scale, unreduced.
    """
    return _tree_series(field, point, degree, tableau.elementary_weights().integer_weight)


def rk_series_direct(
    tableau: ButcherTableau,
    field: PolyVectorField,
    point: Sequence[Fraction],
    degree: int,
) -> TauSeries:
    """One-step expansion x0 + tau * sum_i b_i k_i from the stage slopes; no trees."""
    _check_degree(degree)
    x0 = _check_point(field, point)
    a, d_a = integer_rows(tableau.a)
    shifts = [partial(_stage_shift, row) for row in a]
    slopes, scales = _slopes(field, x0, degree - 1, shifts, d_a)
    (b,), d_b = integer_rows([tableau.b])
    return _update(x0, partial(_stage_shift, b), d_b, slopes, scales)
