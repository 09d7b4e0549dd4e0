"""Exact rational scalars and polynomials in Runge-Kutta coefficients.

The scalar type is fractions.Fraction (always reduced, denominator > 0,
arbitrary precision); parse_rational/format_rational pin the accepted
text grammar.  CoeffPolynomial is a sparse multivariate polynomial over the
variables b[i], c[i], a[i,j] with int coefficients (Fractions once scaled
by one).  Each variable has a small int id that packs its sort key, and a
monomial is the sorted tuple of its variables' ids, one per power, so
products, hashing and comparison run in C.  Terms sort by total degree,
then lexicographically on the variables, higher powers of earlier variables
first; rendering and iteration are deterministic.
"""

from __future__ import annotations

import re
import sys
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

# An unsigned rational: digits, then optionally "/" digits or "." digits.
# parse_rational reads it with an optional "-", and the field parser in
# oracle reads it as a factor.  Digits are ASCII: \d would also match other
# scripts' decimal digits, which int() reads.
UNSIGNED_RATIONAL = r"[0-9]+(?:/[0-9]+|\.[0-9]+)?"
_RATIONAL_RE = re.compile(f"-?{UNSIGNED_RATIONAL}")


def parse_rational(text: str) -> Fraction:
    """Parse "p", "p/q", or a finite decimal such as "0.5", exactly.

    Grammar: optional "-", digits, then optionally "/" digits or "." digits.
    Anything else is a ValueError, and so are a zero denominator and a
    number longer than Python reads (sys.get_int_max_str_digits()).
    """
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {type(text).__name__}")
    stripped = text.strip()
    if not _RATIONAL_RE.fullmatch(stripped):
        raise ValueError(f"malformed rational: {text!r}")
    try:
        if "." in stripped:
            return Fraction(stripped)  # exact: "0.5" -> 1/2
        num, _, den = stripped.partition("/")
        numerator, denominator = int(num), int(den or 1)
    except ValueError:  # the grammar holds, so only the length can fail
        raise ValueError(
            f"a number has more than {sys.get_int_max_str_digits()} digits, too many to read"
        ) from None
    if not denominator:
        raise ValueError("zero denominator")
    return Fraction(numerator, denominator)


def format_rational(value: Fraction) -> str:
    """"p/q", or just "p" when the denominator is 1.

    A numerator or denominator longer than Python converts to text
    (sys.get_int_max_str_digits()) is a ValueError that says so.
    """
    value = Fraction(value)
    try:
        return str(value)
    except ValueError:
        raise ValueError(
            f"a value has more than {sys.get_int_max_str_digits()} digits, too many to print;"
            " lower --p or use a shorter x0"
        ) from None


def numerators_over(values: Iterable[Fraction], denominator: int) -> tuple[int, ...]:
    """The numerators of values written over a common multiple of their denominators."""
    return tuple(x.numerator * (denominator // x.denominator) for x in values)


_KIND_RANK = {"b": 0, "c": 1, "a": 2}
# A variable's id packs its sort key (rank, i, j) into 2 + 14 + 14 bits, so
# ids order like sort keys and stay one-digit ints, which CPython sorts,
# hashes and compares fastest.
_INDEX_BITS = 14
_INDEX_LIMIT = 1 << _INDEX_BITS

# Interned per variable as it is first built; an entry depends on its id only.
_VARIABLES: dict[int, "CoeffVar"] = {}  # id -> variable
_NAMES: dict[str, dict[int, str]] = {"plain": {}, "latex": {}}  # style -> id -> text


def _names(style: str) -> dict[int, str]:
    try:
        return _NAMES[style]
    except KeyError:
        raise ValueError(f"unknown render style: {style!r}") from None


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
        if max(self.i, self.j or 0) >= _INDEX_LIMIT:
            raise ValueError(f"indices must be < {_INDEX_LIMIT}")
        # b[1..s] < c[1..s] < a[1,1..s] row-major.
        ident = (_KIND_RANK[self.kind] << 2 * _INDEX_BITS) | (self.i << _INDEX_BITS) | (self.j or 0)
        object.__setattr__(self, "_id", ident)
        if ident not in _VARIABLES:
            _VARIABLES[ident] = self
            indices = f"{self.i},{self.j}" if self.kind == "a" else str(self.i)
            _NAMES["plain"][ident] = f"{self.kind}[{indices}]"
            _NAMES["latex"][ident] = f"{self.kind}_{{{indices}}}"

    def __hash__(self) -> int:
        return self._id

    def sort_key(self) -> tuple[int, int, int]:
        return (_KIND_RANK[self.kind], self.i, self.j or 0)

    def render(self, style: str = "plain") -> str:
        return _names(style)[self._id]

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


# Public monomials are tuples of (variable, exponent) pairs, exponents >= 1,
# sorted by variable; the empty tuple is the constant monomial.
Monomial = tuple[tuple[CoeffVar, int], ...]

ScalarLike = Union[int, Fraction]

# Inside CoeffPolynomial a monomial is the sorted tuple of its variables'
# ids, each repeated once per power: b[1]*c[2]^2 is (id b[1], id c[2],
# id c[2]).  A product of monomials is tuple(sorted(m1 + m2)).  Sorting by
# (len(m), m) is the graded order: by total degree, then lexicographically
# on the variables, higher powers of earlier variables first.


def _graded(monomials: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    return sorted(sorted(monomials), key=len)  # stable: ties on degree stay lexicographic


def _runs(monomial: tuple[int, ...]) -> list[tuple[int, int]]:
    """(id, exponent) for each distinct variable of an id monomial."""
    return [(var, monomial.count(var)) for var in dict.fromkeys(monomial)]


def _nonzero(terms: dict) -> dict:
    return {m: c for m, c in terms.items() if c} if 0 in terms.values() else terms


class CoeffPolynomial:
    """Sparse polynomial in b/c/a variables with exact coefficients.

    Coefficients are ints until a caller scales by a Fraction, so every
    condition polynomial stays over the integers.  Zero coefficients are
    never stored, so equality of the term maps is equality of polynomials.
    Arithmetic goes through the usual operators; scale() is scalar
    multiplication under its contract name.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, ScalarLike] | None = None):
        """From {((var, exp), ...): coefficient}, the form sorted_terms() lists."""
        collected: dict[tuple[int, ...], ScalarLike] = {}
        for monomial, coeff in (terms or {}).items():
            ids = tuple(sorted(var._id for var, exp in monomial for _ in range(exp)))
            collected[ids] = collected.get(ids, 0) + coeff
        self._terms = _nonzero(collected)

    @classmethod
    def _of(cls, terms: dict) -> "CoeffPolynomial":
        # Internal fast path: terms are keyed by id monomials and hold no zeros.
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

    @classmethod
    def zero(cls) -> "CoeffPolynomial":
        return cls._of({})

    @classmethod
    def constant(cls, value: ScalarLike) -> "CoeffPolynomial":
        return cls._of({(): value} if value else {})

    @classmethod
    def variable(cls, var: CoeffVar) -> "CoeffPolynomial":
        return cls._of({(var._id,): 1})

    @classmethod
    def _wrap(cls, value: "ScalarLike | CoeffPolynomial") -> "CoeffPolynomial":
        if isinstance(value, CoeffPolynomial):
            return value
        return cls.constant(value)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def sorted_terms(self) -> list[tuple[Monomial, ScalarLike]]:
        """(monomial, coefficient) pairs in the graded order render uses."""
        return [
            (tuple((_VARIABLES[var], exp) for var, exp in _runs(m)), self._terms[m])
            for m in _graded(self._terms)
        ]

    def __add__(self, other: "ScalarLike | CoeffPolynomial") -> "CoeffPolynomial":
        terms = dict(self._terms)
        for monomial, coeff in self._wrap(other)._terms.items():
            coeff += terms.get(monomial, 0)
            if coeff:
                terms[monomial] = coeff
            else:
                del terms[monomial]
        return CoeffPolynomial._of(terms)

    __radd__ = __add__

    def __neg__(self) -> "CoeffPolynomial":
        return CoeffPolynomial._of({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "ScalarLike | CoeffPolynomial") -> "CoeffPolynomial":
        return self + (-self._wrap(other))

    def __rsub__(self, other: "ScalarLike | CoeffPolynomial") -> "CoeffPolynomial":
        return self._wrap(other) + (-self)

    def __mul__(self, other: "ScalarLike | CoeffPolynomial") -> "CoeffPolynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        terms: dict[tuple[int, ...], ScalarLike] = {}
        get = terms.get
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                merged = tuple(sorted(m1 + m2))
                terms[merged] = get(merged, 0) + c1 * c2
        return CoeffPolynomial._of(_nonzero(terms))

    __rmul__ = __mul__

    def scale(self, value: ScalarLike) -> "CoeffPolynomial":
        if not value:
            return CoeffPolynomial.zero()
        return CoeffPolynomial._of({m: c * value for m, c in self._terms.items()})

    def render(self, style: str = "plain") -> str:
        """Deterministic text form; "plain" uses b[i]/"^", "latex" b_{i}/"^{}"."""
        names = _names(style)
        if not self._terms:
            return "0"
        separator, power = ("*", "{}^{}") if style == "plain" else (" ", "{}^{{{}}}")
        pieces: list[str] = []
        for monomial in _graded(self._terms):
            coeff = self._terms[monomial]
            if pieces:
                pieces.append(" + " if coeff > 0 else " - ")
            elif coeff < 0:
                pieces.append("-")
            coeff = abs(coeff)
            # _runs, inlined: this runs once per printed term.
            factors = separator.join(
                [
                    names[var] if (exp := monomial.count(var)) == 1 else power.format(names[var], exp)
                    for var in dict.fromkeys(monomial)
                ]
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


def poly_sum(parts: Iterable[CoeffPolynomial]) -> CoeffPolynomial:
    """Sum with the right empty-sum identity (single accumulator pass)."""
    terms: dict[tuple[int, ...], ScalarLike] = {}
    for part in parts:
        for monomial, coeff in part._terms.items():
            terms[monomial] = terms.get(monomial, 0) + coeff
    return CoeffPolynomial._of(_nonzero(terms))
