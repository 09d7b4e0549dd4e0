"""Taylor series of exact and discrete flows of polynomial vector fields.

For a polynomial field f and a point x0, the exact solution of x' = f(x),
x(0) = x0 expands as

    x(tau) = x0 + sum_{q>=1} tau^q sum_{order(t)=q} alpha(t)/t! F(t)(x0)

where F(t) is the elementary differential of the tree t: F of the single
node is f(x0), and F([t1..tm]) applies the m-th derivative of f at x0 to
the child differentials.  That is a contraction of the derivative table,

    F([t1..tm])_c = sum_K d_K f_c(x0) * sum_(k_1..k_m) prod_i F(t_i)[k_i],

with K running over the sorted index multisets of size m and (k_1..k_m)
over the distinct orderings of K.  The table holds the nonzero values only
and is built once per memo of elementary_differential, so a tree with
more children than deg f costs nothing.

A Runge-Kutta step with tableau (A, b) expands the same way with
alpha(t) * weight(t) in place of alpha(t)/t!, where weight(t) is the
tableau's elementary weight b . Phi(t) as defined in conditions; stage i's
slope takes alpha(t) * Phi_i(t) on tau^(q-1).  Every tree series runs
through one loop, _tree_series, with its own factor per tree;
rk_series_trees and stage_series_trees build one ElementaryWeights per
call, so each subtree's Phi is computed once.

Each series is also computed a second, structurally unrelated way: the
exact flow by Picard iteration (repeated integration), the discrete step
by fixed-point iteration of the stage equations in the series ring.  The
tree formulas and the iteration routes share nothing but the field's
polynomials, so their agreement is a meaningful check, not a tautology.

All arithmetic is exact; series are truncated at a caller-chosen degree.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .algebra import format_rational, numerators_over, parse_rational
from .trees import RootedTree, alpha, enumerate_by_leaf, tree_factorial
from .verify import ButcherTableau, check_list, read_document, size_field

__all__ = [
    "FieldError",
    "FieldSyntaxError",
    "StatePolynomial",
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


class StatePolynomial:
    """Exact polynomial in the state variables x1..xd.

    Terms map exponent tuples (one entry per variable) to nonzero rational
    coefficients.  Supports sums, scaling, evaluation, and partial and
    directional derivatives along constant vectors, which is all the
    component parser and the series machinery need; the parser builds each
    term's monomial directly.
    """

    __slots__ = ("dim", "_terms")

    def __init__(self, dim: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        object.__setattr__(self, "dim", dim)
        clean: dict[tuple[int, ...], Fraction] = {}
        for exponents, coefficient in (terms or {}).items():
            if len(exponents) != dim:
                raise ValueError(f"exponent tuple {exponents} does not match dim {dim}")
            value = Fraction(coefficient)
            if value:
                clean[tuple(exponents)] = value
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def zero(cls, dim: int) -> "StatePolynomial":
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, value) -> "StatePolynomial":
        return cls(dim, {(0,) * dim: Fraction(value)})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self._terms)

    def _require_same_dim(self, other: "StatePolynomial") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "StatePolynomial") -> "StatePolynomial":
        if not isinstance(other, StatePolynomial):
            return NotImplemented
        self._require_same_dim(other)
        merged = dict(self._terms)
        for exponents, coefficient in other._terms.items():
            merged[exponents] = merged.get(exponents, Fraction(0)) + coefficient
        return StatePolynomial(self.dim, merged)

    def __sub__(self, other: "StatePolynomial") -> "StatePolynomial":
        if not isinstance(other, StatePolynomial):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, factor) -> "StatePolynomial":
        value = Fraction(factor)
        return StatePolynomial(
            self.dim, {exp: coeff * value for exp, coeff in self._terms.items()}
        )

    def partial(self, index: int) -> "StatePolynomial":
        """Derivative with respect to x<index>, 1-based."""
        if not 1 <= index <= self.dim:
            raise ValueError(f"variable index {index} out of range 1..{self.dim}")
        k = index - 1
        result: dict[tuple[int, ...], Fraction] = {}
        for exponents, coefficient in self._terms.items():
            power = exponents[k]
            if power == 0:
                continue
            lowered = exponents[:k] + (power - 1,) + exponents[k + 1 :]
            result[lowered] = result.get(lowered, Fraction(0)) + coefficient * power
        return StatePolynomial(self.dim, result)

    def directional_derivative(self, vector: Sequence[Fraction]) -> "StatePolynomial":
        """sum_k vector[k] * d/dx_{k+1}, for a constant vector."""
        if len(vector) != self.dim:
            raise ValueError(f"vector has {len(vector)} entries, expected {self.dim}")
        total = StatePolynomial.zero(self.dim)
        for k, weight in enumerate(vector, start=1):
            if weight:
                total = total + self.partial(k).scale(weight)
        return total

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != self.dim:
            raise ValueError(f"point has {len(point)} entries, expected {self.dim}")
        total = Fraction(0)
        for exponents, coefficient in self._terms.items():
            value = coefficient
            for base, power in zip(point, exponents):
                if power:
                    value *= Fraction(base) ** power
            total += value
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StatePolynomial):
            return NotImplemented
        return self.dim == other.dim and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.dim, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"StatePolynomial(dim={self.dim}, terms={self._terms!r})"


# The highest degree of a term in a field component; a term above it is
# refused while parsing, before any work.  The iteration routes take every
# power of the state up to the degree, so time grows about 4x per doubling:
# at --p 6 on a 2-core Xeon, x1^400 with rk4 takes 5 s and a 2-dimensional
# field of five degree-400 terms with butcher6 26 s (16 MB); at degree 800
# they take 25 s and about 130 s.
MAX_FIELD_DEGREE = 400

# Component grammar: term {("+"|"-") term}, term: factor {"*" factor},
# factor: unsigned rational | x<k> | x<k>^<e>.  A sign is only legal in
# front of a term.  No parentheses.
_NUMBER_TOKEN = re.compile(r"\d+(?:/\d+|\.\d+)?")
_VARIABLE_TOKEN = re.compile(r"x(\d+)(?:\^(\d+))?")
# A variable index or exponent of more digits is refused before int() reads
# it: no dimension or degree in range needs that many.
_MAX_DIGITS = 18


def _tokenize_component(text: str, dim: int) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    pos = 0
    end = len(text)
    while pos < end:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+-*":
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        matched = _VARIABLE_TOKEN.match(text, pos)
        if matched:
            for group, what in ((1, "variable index"), (2, "exponent")):
                digits = matched.group(group) or ""
                if len(digits) > _MAX_DIGITS:
                    raise FieldSyntaxError(
                        f"{what} has {len(digits)} digits, more than {_MAX_DIGITS}",
                        matched.start(group),
                    )
            index = int(matched.group(1))
            if not 1 <= index <= dim:
                raise FieldSyntaxError(
                    f"unknown variable x{index} (dim is {dim})", pos
                )
            power = int(matched.group(2)) if matched.group(2) else 1
            tokens.append(("var", (index, power), pos))
            pos = matched.end()
            continue
        matched = _NUMBER_TOKEN.match(text, pos)
        if matched:
            try:
                number = parse_rational(matched.group())
            except ValueError as err:  # a zero denominator
                raise FieldSyntaxError(str(err), pos) from None
            tokens.append(("num", number, pos))
            pos = matched.end()
            continue
        raise FieldSyntaxError(f"unexpected character {ch!r}", pos)
    return tokens


def _parse_component(text: str, dim: int) -> StatePolynomial:
    tokens = _tokenize_component(text, dim)
    if not tokens:
        raise FieldSyntaxError("empty polynomial", 0)
    cursor = 0

    def parse_factor(exponents: list[int]) -> Fraction:
        # A number is returned as the factor's coefficient; x<k>^<e> adds e
        # to the exponent of x<k> and counts as 1.
        nonlocal cursor
        if cursor >= len(tokens):
            raise FieldSyntaxError("expected a factor", len(text))
        kind, value, position = tokens[cursor]
        if kind == "num":
            cursor += 1
            return value
        if kind == "var":
            cursor += 1
            index, power = value
            exponents[index - 1] += power
            return Fraction(1)
        raise FieldSyntaxError(f"expected a factor, found {value!r}", position)

    def parse_term() -> StatePolynomial:
        nonlocal cursor
        first = cursor
        exponents = [0] * dim
        coefficient = parse_factor(exponents)
        while cursor < len(tokens) and tokens[cursor][:2] == ("op", "*"):
            cursor += 1
            coefficient *= parse_factor(exponents)
        if sum(exponents) > MAX_FIELD_DEGREE:
            raise FieldSyntaxError(
                f"degree {sum(exponents)} exceeds the cap of {MAX_FIELD_DEGREE}",
                tokens[first][2],
            )
        return StatePolynomial(dim, {tuple(exponents): coefficient})

    total = StatePolynomial.zero(dim)
    sign = 1
    if tokens[cursor][0] == "op" and tokens[cursor][1] in "+-":
        sign = -1 if tokens[cursor][1] == "-" else 1
        cursor += 1
    total = total + parse_term().scale(sign)
    while cursor < len(tokens):
        kind, value, position = tokens[cursor]
        if kind != "op" or value not in "+-":
            raise FieldSyntaxError(f"expected '+' or '-', found {value!r}", position)
        cursor += 1
        sign = -1 if value == "-" else 1
        total = total + parse_term().scale(sign)
    return total


@dataclass(frozen=True)
class PolyVectorField:
    """A polynomial map f: Q^dim -> Q^dim, one StatePolynomial per component."""

    dim: int
    components: tuple[StatePolynomial, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if len(self.components) != self.dim:
            raise ValueError(
                f"{len(self.components)} components do not match dim {self.dim}"
            )
        for component in self.components:
            if component.dim != self.dim:
                raise ValueError("component dimension does not match the field")

    @classmethod
    def from_strings(cls, dim: int, component_texts: Sequence[str]) -> "PolyVectorField":
        parsed = tuple(_parse_component(text, dim) for text in component_texts)
        return cls(dim=dim, components=parsed)

    def evaluate(self, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return tuple(component.evaluate(point) for component in self.components)


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


def parse_point(text: str, dim: int) -> tuple[Fraction, ...]:
    """Parse "1, 0" style comma-separated rationals into a point."""
    pieces = text.split(",")
    if len(pieces) != dim:
        raise ValueError(f"point has {len(pieces)} entries, expected {dim}")
    values = []
    for i, piece in enumerate(pieces):
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

    def coefficient(self, q: int) -> tuple[Fraction, ...]:
        return self.coeffs[q]

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
    memo: dict[RootedTree, tuple[Fraction, ...]] | None = None,
) -> tuple[Fraction, ...]:
    """F(tree)(point), contracted from the derivatives of the field at point.

    Pass one memo dict across calls when evaluating many trees at the same
    point: subtrees repeat heavily across a forest, and the memo also keeps
    the derivative table, so the table is built once per memo.
    """
    if memo is None:
        memo = {}
    table = memo.get(_TABLE_KEY)
    if table is None:
        table = memo[_TABLE_KEY] = _DerivativeTable(field, point)
    return table.differential(tree, memo)


# The memo entry that holds a memo's derivative table; no tree equals it.
_TABLE_KEY = "derivative table"


class _DerivativeTable:
    """The nonzero d_K f(x0) for sorted index multisets K, one |K| at a time.

    Level m is built the first time a tree with m children asks for it, by
    taking partials of the level m - 1 polynomials along their nonzero
    branches only, so the table never grows past deg f or past what the
    forest needs.  The contraction runs in integers: a level's values are
    kept over one common denominator, and each child's differential is put
    over one too, so every product in F(t) has the same denominator and
    only the final sums become Fractions.
    """

    def __init__(self, field: PolyVectorField, point: Sequence[Fraction]) -> None:
        self._point = point
        self._dim = field.dim
        # Sorted indices K with the polynomials d_K f_c, at the last level built.
        self._frontier = [((), field.components)]
        # levels[m]: (common denominator, rows (distinct arrangements of K,
        # numerators of (d_K f_c(x0))_c)), rows with a nonzero value only.
        self._levels: list[tuple[int, list]] = []

    def _level(self, m: int) -> tuple[int, list]:
        while len(self._levels) <= m and self._frontier:
            rows, frontier = [], []
            for indices, polys in self._frontier:
                values = tuple(poly.evaluate(self._point) for poly in polys)
                if any(values):
                    rows.append((_arrangements(indices), values))
                for k in range(indices[-1] if indices else 0, self._dim):
                    partials = tuple(poly.partial(k + 1) for poly in polys)
                    if not all(poly.is_zero for poly in partials):
                        frontier.append((indices + (k,), partials))
            denominator = math.lcm(*(x.denominator for _, values in rows for x in values))
            scaled = [(arr, numerators_over(values, denominator)) for arr, values in rows]
            self._levels.append((denominator, scaled))
            self._frontier = frontier
        return self._levels[m] if m < len(self._levels) else (1, [])

    def differential(self, tree: RootedTree, memo: dict) -> tuple[Fraction, ...]:
        cached = memo.get(tree)
        if cached is not None:
            return cached
        denominator, rows = self._level(len(tree.children))
        totals = [0] * self._dim
        if rows:
            kids = []
            for kid in tree.children:
                value = self.differential(kid, memo)
                kid_denominator = math.lcm(*(x.denominator for x in value))
                kids.append(numerators_over(value, kid_denominator))
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
        value = tuple(Fraction(total, denominator) for total in totals)
        memo[tree] = value
        return value


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


# Scalar series helpers: a series is a tuple of Fractions, index = power,
# all of one fixed length (degree + 1).


def _const_series(value: Fraction, degree: int) -> tuple[Fraction, ...]:
    return (Fraction(value),) + (Fraction(0),) * degree


def _series_add(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    return tuple(x + y for x, y in zip(a, b))


def _series_mul(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    length = len(a)
    out = [Fraction(0)] * length
    for i, x in enumerate(a):
        if not x:
            continue
        for j in range(length - i):
            y = b[j]
            if y:
                out[i + j] += x * y
    return tuple(out)


def _series_integrate(a: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    # Antiderivative with zero constant term; the top coefficient falls off
    # the truncation.
    out = [Fraction(0)] * len(a)
    for q in range(len(a) - 1):
        out[q + 1] = a[q] / (q + 1)
    return tuple(out)


def _poly_at_series(
    poly: StatePolynomial,
    per_variable: Sequence[tuple[Fraction, ...]],
    degree: int,
    power_cache: dict[tuple[int, int], tuple[Fraction, ...]],
) -> tuple[Fraction, ...]:
    total = [Fraction(0)] * (degree + 1)
    one = _const_series(Fraction(1), degree)
    for exponents, coefficient in poly.terms().items():
        term = one
        for variable_index, power in enumerate(exponents):
            if not power:
                continue
            cached = power_cache.get((variable_index, power))
            if cached is None:
                cached = per_variable[variable_index]
                for _ in range(power - 1):
                    cached = _series_mul(cached, per_variable[variable_index])
                power_cache[(variable_index, power)] = cached
            term = _series_mul(term, cached)
        for q in range(degree + 1):
            total[q] += coefficient * term[q]
    return tuple(total)


def _check_degree(degree: int) -> None:
    if degree < 0:
        raise ValueError("truncation degree must be >= 0")


def _check_point(field: PolyVectorField, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if len(point) != field.dim:
        raise ValueError(f"point has {len(point)} entries, expected {field.dim}")
    return tuple(Fraction(x) for x in point)


def _tree_series(
    field: PolyVectorField, point: Sequence[Fraction], degree: int, factor: Callable
) -> TauSeries:
    """x0 + sum over trees t of order <= degree of factor(t) * F(t)(x0)."""
    _check_degree(degree)
    x0 = _check_point(field, point)
    coeffs = [x0]
    if degree >= 1:
        forest = enumerate_by_leaf(degree)
        memo: dict[RootedTree, tuple[Fraction, ...]] = {}
        for q in range(1, degree + 1):
            accumulated = [Fraction(0)] * field.dim
            for tree in forest.trees_of_order(q):
                weight = factor(tree)
                if not weight:
                    continue
                differential = elementary_differential(field, tree, x0, memo)
                for c in range(field.dim):
                    accumulated[c] += weight * differential[c]
            coeffs.append(tuple(accumulated))
    return TauSeries(tuple(coeffs))


def flow_series_trees(
    field: PolyVectorField, point: Sequence[Fraction], degree: int
) -> TauSeries:
    """Exact-flow expansion assembled tree by tree."""
    return _tree_series(
        field, point, degree, lambda tree: alpha(tree) / tree_factorial(tree)
    )


def flow_series_picard(
    field: PolyVectorField, point: Sequence[Fraction], degree: int
) -> TauSeries:
    """Exact-flow expansion by Picard iteration, independent of any trees.

    y <- x0 + integral of f(y); each sweep fixes one more power, so degree
    sweeps suffice.
    """
    _check_degree(degree)
    x0 = _check_point(field, point)
    state = [_const_series(value, degree) for value in x0]
    for _ in range(degree):
        power_cache: dict[tuple[int, int], tuple[Fraction, ...]] = {}
        image = [
            _poly_at_series(component, state, degree, power_cache)
            for component in field.components
        ]
        state = [
            _series_add(_const_series(x0[c], degree), _series_integrate(image[c]))
            for c in range(field.dim)
        ]
    coeffs = tuple(
        tuple(state[c][q] for c in range(field.dim)) for q in range(degree + 1)
    )
    return TauSeries(coeffs)


def rk_series_trees(
    tableau: ButcherTableau,
    field: PolyVectorField,
    point: Sequence[Fraction],
    degree: int,
) -> TauSeries:
    """One-step expansion assembled from elementary weights, tree by tree."""
    weights = tableau.elementary_weights()
    return _tree_series(
        field, point, degree, lambda tree: alpha(tree) * weights.weight(tree)
    )


def _direct_stages(
    tableau: ButcherTableau,
    field: PolyVectorField,
    x0: tuple[Fraction, ...],
    stage_degree: int,
) -> list[tuple[tuple[Fraction, ...], ...]]:
    """Stage slopes k_i as series, by fixed-point iteration.

    k_i = f(x0 + tau * sum_j A[i][j] k_j).  The tau factor makes each sweep
    fix one more power, implicit tableaus included; stage_degree + 1 sweeps
    reach the truncation, with an early exit once nothing moves.
    """
    s = tableau.stages
    dim = field.dim
    zero = _const_series(Fraction(0), stage_degree)
    stages = [tuple(zero for _ in range(dim)) for _ in range(s)]
    for _ in range(stage_degree + 1):
        updated = []
        for i in range(s):
            argument = []
            for c in range(dim):
                shifted = [Fraction(0)] * (stage_degree + 1)
                shifted[0] = x0[c]
                for j in range(s):
                    entry = tableau.a[i][j]
                    if not entry:
                        continue
                    stage_component = stages[j][c]
                    for q in range(stage_degree):
                        shifted[q + 1] += entry * stage_component[q]
                argument.append(tuple(shifted))
            power_cache: dict[tuple[int, int], tuple[Fraction, ...]] = {}
            updated.append(
                tuple(
                    _poly_at_series(component, argument, stage_degree, power_cache)
                    for component in field.components
                )
            )
        if updated == stages:
            break
        stages = updated
    return stages


def rk_series_direct(
    tableau: ButcherTableau,
    field: PolyVectorField,
    point: Sequence[Fraction],
    degree: int,
) -> TauSeries:
    """One-step expansion by iterating the stage equations; no trees."""
    _check_degree(degree)
    x0 = _check_point(field, point)
    if degree == 0:
        return TauSeries((x0,))
    stages = _direct_stages(tableau, field, x0, degree - 1)
    coeffs = [x0]
    for q in range(1, degree + 1):
        row = []
        for c in range(field.dim):
            # x0 + tau * sum_i b_i k_i: the tau shift moves stage degree
            # q - 1 into update degree q.
            row.append(
                sum(
                    (
                        tableau.b[i] * stages[i][c][q - 1]
                        for i in range(tableau.stages)
                    ),
                    Fraction(0),
                )
            )
        coeffs.append(tuple(row))
    return TauSeries(tuple(coeffs))


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
    stage_degree = max(degree - 1, 0)
    stages = _direct_stages(tableau, field, x0, stage_degree)
    return tuple(
        TauSeries(
            tuple(
                tuple(stage[c][q] for c in range(field.dim))
                for q in range(stage_degree + 1)
            )
        )
        for stage in stages
    )


def stage_series_trees(
    tableau: ButcherTableau,
    field: PolyVectorField,
    point: Sequence[Fraction],
    degree: int,
) -> tuple[TauSeries, ...]:
    """Per-stage slope series from trees: a tree of order q lands on tau^(q-1).

    Stage i is the tree series with factor alpha(t) * Phi_i(t), shifted down
    one power; it is truncated like stage_series_direct.
    """
    _check_degree(degree)
    weights = tableau.elementary_weights()
    return tuple(
        TauSeries(
            _tree_series(
                field, point, max(degree, 1), lambda tree: alpha(tree) * weights.vector(tree)[i]
            ).coeffs[1:]
        )
        for i in range(tableau.stages)
    )
