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

render writes a term as its sign, its coefficient unless that is 1 (in
LaTeX a non-integer is \\frac{p}{q}), then one factor per run of equal ids:
the variable's interned name, or name^e for a run of length e.  It reads
the runs in one pass over the id tuple, and keeps no text between calls.

A linear combination sum_j a_j * x_j of polynomials, the shape of both
sums in the elementary-weight recursion, is poly_dot: it adds each product
term straight into one term map, where the operators would build every
product a_j * x_j and copy the partial sum at each "+".
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence, Union

from ._record import Record, set_field

__all__ = [
    "parse_rational",
    "format_rational",
    "CoeffVar",
    "b_var",
    "c_var",
    "a_var",
    "CoeffPolynomial",
    "poly_dot",
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
        raise too_long_to_print("lower --p or use a shorter x0") from None


def too_long_to_print(remedy: str) -> ValueError:
    """The refusal of a value longer than Python converts to text, with what
    to shrink."""
    return ValueError(
        f"a value has more than {sys.get_int_max_str_digits()} digits, too many to print; {remedy}"
    )


def integer_rows(rows: Iterable[Iterable[Fraction]]) -> tuple[list[tuple[int, ...]], int]:
    """Rows of rationals as integer rows over one denominator, the lcm of theirs."""
    rows = [tuple(row) for row in rows]
    denominator = math.lcm(*(x.denominator for row in rows for x in row))
    scaled = [tuple(x.numerator * (denominator // x.denominator) for x in row) for row in rows]
    return scaled, denominator


_KIND_RANK = {"b": 0, "c": 1, "a": 2}
# A variable's id packs its sort key (rank, i, j) into 2 + 14 + 14 bits, so
# ids order like sort keys and stay one-digit ints, which CPython sorts,
# hashes and compares fastest.
_INDEX_BITS = 14
_INDEX_LIMIT = 1 << _INDEX_BITS

# Interned per variable as it is first built; an entry depends on its id only.
_VARIABLES: dict[int, "CoeffVar"] = {}  # id -> variable


class CoeffVar(Record):
    """One tableau coefficient: b[i], c[i], or a[i,j].  Indices are 1-based."""

    _fields = ("kind", "i", "j")

    def __init__(self, kind: str, i: int, j: int | None = None) -> None:
        if kind not in _KIND_RANK:
            raise ValueError(f"variable kind must be 'b', 'c', or 'a', got {kind!r}")
        if i < 1:
            raise ValueError(f"index must be >= 1, got {i}")
        if kind == "a":
            if j is None or j < 1:
                raise ValueError("a-variables need a second index >= 1")
        elif j is not None:
            raise ValueError(f"{kind}-variables take a single index")
        if max(i, j or 0) >= _INDEX_LIMIT:
            raise ValueError(f"indices must be < {_INDEX_LIMIT}")
        # b[1..s] < c[1..s] < a[1,1..s] row-major.
        ident = (_KIND_RANK[kind] << 2 * _INDEX_BITS) | (i << _INDEX_BITS) | (j or 0)
        set_field(self, "kind", kind)
        set_field(self, "i", i)
        set_field(self, "j", j)
        set_field(self, "_id", ident)
        if ident not in _VARIABLES:
            _VARIABLES[ident] = self
            indices = f"{i},{j}" if kind == "a" else str(i)
            for form in _STYLES.values():
                form.names[ident] = form.name.format(kind, indices)

    def __hash__(self) -> int:
        return self._id

    def render(self, style: str = "plain") -> str:
        return _style(style).names[self._id]

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
# id c[2]).  A product of monomials is m1 + m2 sorted, which _products
# skips when the two already meet in order.  Sorting by
# (len(m), m) is the graded order: by total degree, then lexicographically
# on the variables, higher powers of earlier variables first.


def _graded(monomials: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    return sorted(sorted(monomials), key=len)  # stable: ties on degree stay lexicographic


def _runs(monomial: tuple[int, ...]) -> list[tuple[int, int]]:
    """(id, exponent) for each distinct variable of an id monomial.

    One pass: equal ids are adjacent, so a run ends where the id changes.
    render reads runs with the same loop.
    """
    runs: list[tuple[int, int]] = []
    if monomial:
        last, exp = monomial[0], 0
        for var in monomial:
            if var == last:
                exp += 1
            else:
                runs.append((last, exp))
                last, exp = var, 1
        runs.append((last, exp))
    return runs


def _latex_rational(value: ScalarLike) -> str:
    """A rational in LaTeX: \\frac{p}{q}, or p when q is 1; "-" leads a negative."""
    if value.denominator == 1:
        return str(value)
    sign = "-" if value < 0 else ""
    return f"{sign}\\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"


# How each render style writes a condition: a variable's name by id (from
# the name template, as the variable is first built), a term's factors and
# coefficient, a right-hand side (rational) and the sign between the sides.
_STYLES = {
    "plain": SimpleNamespace(
        names={}, name="{}[{}]", separator="*", power="{}^{}",
        coefficient=str, rational=format_rational, equals=" == ",
    ),
    "latex": SimpleNamespace(
        names={}, name="{}_{{{}}}", separator=" ", power="{}^{{{}}}",
        coefficient=_latex_rational, rational=_latex_rational, equals=" = ",
    ),
}


def _style(style: str) -> SimpleNamespace:
    """The render style of that name, or the one ValueError of every renderer."""
    try:
        return _STYLES[style]
    except KeyError:
        raise ValueError(f"unknown render style: {style!r}") from None


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
        return _products(((self._terms, other._terms),))

    __rmul__ = __mul__

    def scale(self, value: ScalarLike) -> "CoeffPolynomial":
        if not value:
            return CoeffPolynomial.zero()
        return CoeffPolynomial._of({m: c * value for m, c in self._terms.items()})

    def render(self, style: str = "plain") -> str:
        """Deterministic text form; "plain" uses b[i]/"^", "latex" b_{i}/"^{}"."""
        form = _style(style)
        names, separator, power = form.names, form.separator, form.power
        terms = self._terms
        if not terms:
            return "0"
        pieces: list[str] = []
        for monomial in _graded(terms):
            coeff = terms[monomial]
            if pieces:
                pieces.append(" + " if coeff > 0 else " - ")
            elif coeff < 0:
                pieces.append("-")
            coeff = abs(coeff)
            if coeff != 1 or not monomial:
                pieces.append(form.coefficient(coeff))
                if not monomial:
                    continue
                pieces.append(separator)
            # _runs's loop, kept inline: render runs it once per printed
            # term, where a call would add a frame and a list of pairs.
            factors = []
            last, exp = monomial[0], 0
            for var in monomial:
                if var == last:
                    exp += 1
                else:
                    factors.append(names[last] if exp == 1 else power.format(names[last], exp))
                    last, exp = var, 1
            factors.append(names[last] if exp == 1 else power.format(names[last], exp))
            pieces.append(separator.join(factors))
        return "".join(pieces)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CoeffPolynomial.constant(other)
        if not isinstance(other, CoeffPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __reduce__(self):
        # As its public terms: loading builds, and so names, each variable.
        return CoeffPolynomial, (dict(self.sorted_terms()),)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"CoeffPolynomial({self.render()})"


def poly_sum(parts: Iterable[CoeffPolynomial]) -> CoeffPolynomial:
    """Sum with the right empty-sum identity (single accumulator pass)."""
    return _products((part._terms, _ONE) for part in parts)


def poly_dot(
    row: Iterable[tuple[int, CoeffPolynomial]], vector: Sequence[CoeffPolynomial]
) -> CoeffPolynomial:
    """Sum of a * vector[j] over the (j, a) pairs of row; zero if row is empty.

    The products go straight into one term map: no product polynomial is
    built per pair and no partial sum is copied.
    """
    return _products((a._terms, vector[j]._terms) for j, a in row)


_ONE = {(): 1}  # the term map of the constant 1


def _products(pairs: Iterable[tuple[dict, dict]]) -> CoeffPolynomial:
    # Sum of the products of each pair of term maps, in one accumulator.
    terms: dict[tuple[int, ...], ScalarLike] = {}
    get = terms.get
    for left, right in pairs:
        for m1, c1 in left.items():
            for m2, c2 in right.items():
                # Joined without a sort when one side ends no later than
                # the other starts: b[i] * Phi, whose b ids sort first, and
                # a[i,j] * Phi_j for explicit A without c, whose a[i,j]
                # sorts after every variable of Phi_j.
                if not m1 or not m2 or m1[-1] <= m2[0]:
                    merged = m1 + m2
                elif m2[-1] <= m1[0]:
                    merged = m2 + m1
                else:
                    merged = tuple(sorted(m1 + m2))
                terms[merged] = get(merged, 0) + c1 * c2
    return CoeffPolynomial._of(_nonzero(terms))
