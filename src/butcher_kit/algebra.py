"""Exact rational scalars and polynomials in Runge-Kutta coefficients.

The scalar type is fractions.Fraction (always reduced, denominator > 0,
arbitrary precision); parse_rational/format_rational pin the accepted
text grammar.  CoeffPolynomial is a sparse multivariate polynomial over the
variables b[i], c[i], a[i,j] with a fixed monomial order, so rendering and
iteration are deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Union

__all__ = [
    "parse_rational",
    "format_rational",
    "CoeffVar",
    "b_var",
    "c_var",
    "a_var",
    "CoeffPolynomial",
]

_RATIONAL_RE = re.compile(r"-?\d+(/\d+)?")
_DECIMAL_RE = re.compile(r"-?\d+\.\d+")


def parse_rational(text: str) -> Fraction:
    """Parse "p", "p/q", or a finite decimal such as "0.5", exactly.

    Grammar: optional "-", digits, then optionally "/" digits or "." digits.
    Anything else is a ValueError, and so is a zero denominator.
    """
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {type(text).__name__}")
    stripped = text.strip()
    if _RATIONAL_RE.fullmatch(stripped):
        num, _, den = stripped.partition("/")
        if den and int(den) == 0:
            raise ValueError("zero denominator")
        return Fraction(int(num), int(den or 1))
    if _DECIMAL_RE.fullmatch(stripped):
        return Fraction(stripped)  # exact: "0.5" -> 1/2
    raise ValueError(f"malformed rational: {text!r}")


def format_rational(value: Fraction) -> str:
    """"p/q", or just "p" when the denominator is 1."""
    return str(Fraction(value))


def numerators_over(values: Iterable[Fraction], denominator: int) -> tuple[int, ...]:
    """The numerators of values written over a common multiple of their denominators."""
    return tuple(x.numerator * (denominator // x.denominator) for x in values)


_KIND_RANK = {"b": 0, "c": 1, "a": 2}


@dataclass(frozen=True)
class CoeffVar:
    """One tableau coefficient: b[i], c[i], or a[i,j].  Indices are 1-based."""

    kind: str
    i: int
    j: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KIND_RANK:
            raise ValueError(f"variable kind must be 'b', 'c', or 'a', got {self.kind!r}")
        if self.i < 1:
            raise ValueError(f"index must be >= 1, got {self.i}")
        if self.kind == "a":
            if self.j is None or self.j < 1:
                raise ValueError("a-variables need a second index >= 1")
        elif self.j is not None:
            raise ValueError(f"{self.kind}-variables take a single index")
        # b[1..s] < c[1..s] < a[1,1..s] row-major; precomputed along with the
        # hash, both sit on the hot path of every monomial merge and insert.
        object.__setattr__(self, "_skey", (_KIND_RANK[self.kind], self.i, self.j or 0))
        object.__setattr__(self, "_hash", hash(("CoeffVar", self.kind, self.i, self.j)))

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> tuple[int, int, int]:
        return self._skey

    def render(self, style: str = "plain") -> str:
        indices = f"{self.i},{self.j}" if self.kind == "a" else str(self.i)
        if style == "plain":
            return f"{self.kind}[{indices}]"
        if style == "latex":
            return f"{self.kind}_{{{indices}}}"
        raise ValueError(f"unknown render style: {style!r}")

    def __str__(self) -> str:
        return self.render()


@lru_cache(maxsize=None)
def b_var(i: int) -> CoeffVar:
    return CoeffVar("b", i)


@lru_cache(maxsize=None)
def c_var(i: int) -> CoeffVar:
    return CoeffVar("c", i)


@lru_cache(maxsize=None)
def a_var(i: int, j: int) -> CoeffVar:
    return CoeffVar("a", i, j)


# A monomial is a tuple of (variable, exponent) pairs, exponents >= 1,
# sorted by variable.  The empty tuple is the constant monomial.
Monomial = tuple[tuple[CoeffVar, int], ...]

ScalarLike = Union[int, Fraction]
SubstValue = Union[int, Fraction, "CoeffPolynomial"]


def _monomial_degree(monomial: Monomial) -> int:
    return sum(exp for _, exp in monomial)


def _monomial_key(monomial: Monomial) -> tuple:
    # Graded order: by total degree, then lexicographically on the variable
    # sequence with higher powers of earlier variables first.
    return (
        _monomial_degree(monomial),
        tuple((var.sort_key(), -exp) for var, exp in monomial),
    )


def _merge_monomials(left: Monomial, right: Monomial) -> Monomial:
    # Two-pointer merge; both inputs are already sorted by variable.
    out: list[tuple[CoeffVar, int]] = []
    li, ri = 0, 0
    while li < len(left) and ri < len(right):
        lvar, lexp = left[li]
        rvar, rexp = right[ri]
        if lvar is rvar or lvar == rvar:
            out.append((lvar, lexp + rexp))
            li += 1
            ri += 1
        elif lvar._skey < rvar._skey:
            out.append(left[li])
            li += 1
        else:
            out.append(right[ri])
            ri += 1
    out.extend(left[li:])
    out.extend(right[ri:])
    return tuple(out)


class CoeffPolynomial:
    """Sparse polynomial in b/c/a variables with Fraction coefficients.

    Zero coefficients are never stored, so equality of the term maps is
    equality of polynomials.  Arithmetic goes through the usual operators;
    scale() is scalar multiplication under its contract name.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, ScalarLike] | None = None):
        normalized: dict[Monomial, Fraction] = {}
        for monomial, coeff in (terms or {}).items():
            value = Fraction(coeff)
            if value:
                normalized[monomial] = value
        self._terms = normalized

    @classmethod
    def _from_clean(cls, terms: dict[Monomial, Fraction]) -> "CoeffPolynomial":
        # Internal fast path: values are known to be Fractions already, so
        # only zero terms need dropping.
        poly = object.__new__(cls)
        poly._terms = {m: c for m, c in terms.items() if c}
        return poly

    @classmethod
    def zero(cls) -> "CoeffPolynomial":
        return cls()

    @classmethod
    def constant(cls, value: ScalarLike) -> "CoeffPolynomial":
        return cls({(): Fraction(value)})

    @classmethod
    def variable(cls, var: CoeffVar) -> "CoeffPolynomial":
        return cls({((var, 1),): Fraction(1)})

    @classmethod
    def _wrap(cls, value: SubstValue) -> "CoeffPolynomial":
        if isinstance(value, CoeffPolynomial):
            return value
        return cls.constant(value)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def free_variables(self) -> set[CoeffVar]:
        return {var for monomial in self._terms for var, _ in monomial}

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self._terms.items(), key=lambda item: _monomial_key(item[0]))

    def coefficient(self, monomial: Monomial) -> Fraction:
        return self._terms.get(monomial, Fraction(0))

    def __add__(self, other: SubstValue) -> "CoeffPolynomial":
        other = self._wrap(other)
        terms = dict(self._terms)
        for monomial, coeff in other._terms.items():
            present = terms.get(monomial)
            terms[monomial] = coeff if present is None else present + coeff
        return CoeffPolynomial._from_clean(terms)

    __radd__ = __add__

    def __neg__(self) -> "CoeffPolynomial":
        return CoeffPolynomial._from_clean({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: SubstValue) -> "CoeffPolynomial":
        return self + (-self._wrap(other))

    def __rsub__(self, other: SubstValue) -> "CoeffPolynomial":
        return self._wrap(other) + (-self)

    def __mul__(self, other: SubstValue) -> "CoeffPolynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                merged = _merge_monomials(m1, m2)
                present = terms.get(merged)
                product = c1 * c2
                terms[merged] = product if present is None else present + product
        return CoeffPolynomial._from_clean(terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "CoeffPolynomial":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = CoeffPolynomial.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    def scale(self, value: ScalarLike) -> "CoeffPolynomial":
        factor = Fraction(value)
        return CoeffPolynomial._from_clean({m: c * factor for m, c in self._terms.items()})

    def substitute(self, binding: Mapping[CoeffVar, SubstValue]) -> "CoeffPolynomial":
        """Replace bound variables and renormalize; partial bindings allowed.

        Values may be rationals or polynomials (a polynomial value is what
        the row-sum identity c[i] -> sum_j a[i,j] needs).
        """
        power_cache: dict[tuple[CoeffVar, int], CoeffPolynomial] = {}

        def bound_power(var: CoeffVar, exp: int) -> CoeffPolynomial:
            cached = power_cache.get((var, exp))
            if cached is None:
                cached = self._wrap(binding[var]) ** exp
                power_cache[(var, exp)] = cached
            return cached

        total: dict[Monomial, Fraction] = {}
        for monomial, coeff in self._terms.items():
            piece = CoeffPolynomial._from_clean({(): coeff})
            kept: list[tuple[CoeffVar, int]] = []
            for var, exp in monomial:
                if var in binding:
                    piece = piece * bound_power(var, exp)
                else:
                    kept.append((var, exp))
            if kept:
                piece = piece * CoeffPolynomial._from_clean({tuple(kept): Fraction(1)})
            for m, c in piece._terms.items():
                present = total.get(m)
                total[m] = c if present is None else present + c
        return CoeffPolynomial._from_clean(total)

    def evaluate_constant(self) -> Fraction:
        """The value of a variable-free polynomial; error otherwise."""
        free = self.free_variables()
        if free:
            names = ", ".join(str(v) for v in sorted(free, key=CoeffVar.sort_key))
            raise ValueError(f"free variables remain: {names}")
        return self._terms.get((), Fraction(0))

    def render(self, style: str = "plain") -> str:
        """Deterministic text form; "plain" uses b[i]/"^", "latex" b_{i}/"^{}"."""
        if style not in ("plain", "latex"):
            raise ValueError(f"unknown render style: {style!r}")
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for position, (monomial, coeff) in enumerate(self.sorted_terms()):
            body = self._render_term(monomial, abs(coeff), style)
            if position == 0:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append((" + " if coeff > 0 else " - ") + body)
        return "".join(pieces)

    @staticmethod
    def _render_term(monomial: Monomial, coeff: Fraction, style: str) -> str:
        factors = []
        for var, exp in monomial:
            text = var.render(style)
            if exp > 1:
                text += f"^{exp}" if style == "plain" else f"^{{{exp}}}"
            factors.append(text)
        if not factors:
            return _render_coeff(coeff, style)
        joined = "*".join(factors) if style == "plain" else " ".join(factors)
        if coeff == 1:
            return joined
        separator = "*" if style == "plain" else " "
        return _render_coeff(coeff, style) + separator + joined

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CoeffPolynomial.constant(other)
        if not isinstance(other, CoeffPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"CoeffPolynomial({self.render()})"


def _render_coeff(coeff: Fraction, style: str) -> str:
    if style == "latex" and coeff.denominator != 1:
        return f"\\frac{{{coeff.numerator}}}{{{coeff.denominator}}}"
    return format_rational(coeff)


def poly_sum(parts: Iterable[CoeffPolynomial]) -> CoeffPolynomial:
    """Sum with the right empty-sum identity (single accumulator pass)."""
    terms: dict[Monomial, Fraction] = {}
    for part in parts:
        for monomial, coeff in part._terms.items():
            present = terms.get(monomial)
            terms[monomial] = coeff if present is None else present + coeff
    return CoeffPolynomial._from_clean(terms)
