"""Taylor series of exact and discrete flows of polynomial vector fields.

For a polynomial field f and a point x0, the exact solution of x' = f(x),
x(0) = x0 expands as

    x(tau) = x0 + sum_{q>=1} tau^q sum_{order(t)=q} alpha(t)/t! F(t)(x0)

where F(t) is the elementary differential of the tree t (F of the single
node is f; F([t1..tm]) applies the m-th derivative of f to the child
differentials).  A Runge-Kutta step with tableau (A, b) expands the same
way with alpha(t) * weight(t) in place of alpha(t)/t!, where weight(t) is
the tableau's elementary weight b . Phi(t) as defined in conditions; stage
i's slope takes alpha(t) * Phi_i(t) on tau^(q-1).  rk_series_trees and
stage_series_trees build one ElementaryWeights per call, so each
subtree's Phi is computed once.

Each series is also computed a second, structurally unrelated way: the
exact flow by Picard iteration (repeated integration), the discrete step
by fixed-point iteration of the stage equations in the series ring.  The
tree formulas and the iteration routes share nothing but field evaluation,
so their agreement is a meaningful check, not a tautology.

All arithmetic is exact; series are truncated at a caller-chosen degree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .algebra import format_rational, parse_rational
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
    coefficients.  Supports ring operations, evaluation, and directional
    derivatives along constant vectors, which is all the series machinery
    needs.
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

    @classmethod
    def variable(cls, dim: int, index: int) -> "StatePolynomial":
        """The polynomial x<index>, 1-based."""
        if not 1 <= index <= dim:
            raise ValueError(f"variable index {index} out of range 1..{dim}")
        exponents = tuple(1 if k == index - 1 else 0 for k in range(dim))
        return cls(dim, {exponents: Fraction(1)})

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

    def __mul__(self, other: "StatePolynomial") -> "StatePolynomial":
        if not isinstance(other, StatePolynomial):
            return NotImplemented
        self._require_same_dim(other)
        product: dict[tuple[int, ...], Fraction] = {}
        for left_exp, left_coeff in self._terms.items():
            for right_exp, right_coeff in other._terms.items():
                key = tuple(a + b for a, b in zip(left_exp, right_exp))
                product[key] = product.get(key, Fraction(0)) + left_coeff * right_coeff
        return StatePolynomial(self.dim, product)

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


# Component grammar: term {("+"|"-") term}, term: factor {"*" factor},
# factor: unsigned rational | x<k> | x<k>^<e>.  A sign is only legal in
# front of a term.  No parentheses.
_NUMBER_TOKEN = re.compile(r"\d+(?:/\d+|\.\d+)?")
_VARIABLE_TOKEN = re.compile(r"x(\d+)(?:\^(\d+))?")


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
            tokens.append(("num", parse_rational(matched.group()), pos))
            pos = matched.end()
            continue
        raise FieldSyntaxError(f"unexpected character {ch!r}", pos)
    return tokens


def _parse_component(text: str, dim: int) -> StatePolynomial:
    tokens = _tokenize_component(text, dim)
    if not tokens:
        raise FieldSyntaxError("empty polynomial", 0)
    cursor = 0

    def parse_factor() -> StatePolynomial:
        nonlocal cursor
        if cursor >= len(tokens):
            raise FieldSyntaxError("expected a factor", len(text))
        kind, value, position = tokens[cursor]
        if kind == "num":
            cursor += 1
            return StatePolynomial.constant(dim, value)
        if kind == "var":
            cursor += 1
            index, power = value
            base = StatePolynomial.variable(dim, index)
            result = StatePolynomial.constant(dim, 1)
            for _ in range(power):
                result = result * base
            return result
        raise FieldSyntaxError(f"expected a factor, found {value!r}", position)

    def parse_term() -> StatePolynomial:
        nonlocal cursor
        product = parse_factor()
        while cursor < len(tokens) and tokens[cursor][:2] == ("op", "*"):
            cursor += 1
            product = product * parse_factor()
        return product

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
    """F(tree)(point): iterated directional derivatives of the field.

    Pass one memo dict across calls when evaluating many trees at the same
    point; subtrees repeat heavily across a forest.
    """
    if memo is None:
        memo = {}
    cached = memo.get(tree)
    if cached is not None:
        return cached
    child_values = [
        elementary_differential(field, child, point, memo) for child in tree.children
    ]
    result = []
    for component in field.components:
        derived = component
        for vector in child_values:
            derived = derived.directional_derivative(vector)
        result.append(derived.evaluate(point))
    value = tuple(result)
    memo[tree] = value
    return value


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
    """Per-stage slope series from trees: a tree of order q lands on tau^(q-1)."""
    _check_degree(degree)
    x0 = _check_point(field, point)
    stage_degree = max(degree - 1, 0)
    s = tableau.stages
    accumulated = [
        [[Fraction(0)] * field.dim for _ in range(stage_degree + 1)] for _ in range(s)
    ]
    forest = enumerate_by_leaf(stage_degree + 1)
    weights = tableau.elementary_weights()
    memo: dict[RootedTree, tuple[Fraction, ...]] = {}
    for q in range(1, stage_degree + 2):
        for tree in forest.trees_of_order(q):
            tree_alpha = alpha(tree)
            vector = weights.vector(tree)
            differential = None
            for i in range(s):
                factor = tree_alpha * vector[i]
                if not factor:
                    continue
                if differential is None:
                    differential = elementary_differential(field, tree, x0, memo)
                for c in range(field.dim):
                    accumulated[i][q - 1][c] += factor * differential[c]
    return tuple(
        TauSeries(
            tuple(tuple(per_degree) for per_degree in accumulated[i])
        )
        for i in range(s)
    )
