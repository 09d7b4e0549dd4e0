"""Butcher tableaus and exact verification of their order.

A tableau (A, b, c) is checked order by order: for every tree t of order q
the exact elementary weight b . Phi(t) must equal 1/tree_factorial(t).
Phi is the recursion defined in conditions and computed by its
ElementaryWeights, here over the tableau's nonzero A entries with a
single-node child contributing the row sum of A.  So the node vector c
plays no role in the residuals; tableaus whose c differs from the row sums
of A are verified all the same and only flagged via row_sum_consistent.

The recursion runs over integers: A and b are scaled to integer numerators
over one common denominator each, and each tree's weight is divided back
into a reduced Fraction once (TableauWeights, which also hands the
unreduced integer pairs to the oracle's tree routes).  Both modes then
compare that exact weight against 1/tree_factorial(t): exact mode asks for
a zero residual, float mode compares |residual| against a tolerance after
conversion, for tableaus whose entries only approximate a method.  A
residual too large for a float compares as infinite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .algebra import format_rational, numerators_over, parse_rational
from .conditions import ElementaryWeights
from .trees import RootedTree, TreesByOrder, format_tree, tree_factorial

__all__ = [
    "TableauError",
    "ButcherTableau",
    "load_tableau",
    "weight_value",
    "ResidualEntry",
    "OrderReport",
    "verify_order",
]


class TableauError(ValueError):
    """Malformed tableau document or invalid verification request."""


EntryLike = Union[int, str, Fraction]


def _coerce_entry(value: object, where: str) -> Fraction:
    if isinstance(value, bool):
        raise TableauError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, float):
        raise TableauError(
            f"{where}: floats are not exact; write the entry as a string such as \"0.5\""
        )
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ValueError as err:
            raise TableauError(f"{where}: {err}") from None
    raise TableauError(f"{where}: expected a rational, got {type(value).__name__}")


@dataclass(frozen=True)
class ButcherTableau:
    """Coefficients of an s-stage method; all entries exact rationals.

    c defaults to the row sums of A when omitted.  explicit is derived:
    true exactly when A is strictly lower triangular.
    """

    name: str
    a: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    c: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        s = len(self.b)
        if s == 0:
            raise TableauError("a tableau needs at least one stage")
        if len(self.a) != s or any(len(row) != s for row in self.a):
            raise TableauError(f"A must be {s}x{s} to match b")
        if len(self.c) != s:
            raise TableauError(f"c has {len(self.c)} entries, expected {s}")

    @classmethod
    def from_rows(
        cls,
        name: str,
        a: Sequence[Sequence[EntryLike]],
        b: Sequence[EntryLike],
        c: Sequence[EntryLike] | None = None,
    ) -> "ButcherTableau":
        a_rows = tuple(
            tuple(_coerce_entry(entry, f"A[{i + 1}][{j + 1}]") for j, entry in enumerate(row))
            for i, row in enumerate(a)
        )
        b_row = tuple(_coerce_entry(entry, f"b[{i + 1}]") for i, entry in enumerate(b))
        if c is None:
            c_row = tuple(sum(row, Fraction(0)) for row in a_rows)
        else:
            c_row = tuple(_coerce_entry(entry, f"c[{i + 1}]") for i, entry in enumerate(c))
        return cls(name=name, a=a_rows, b=b_row, c=c_row)

    @property
    def stages(self) -> int:
        return len(self.b)

    @property
    def explicit(self) -> bool:
        return all(
            self.a[i][j] == 0 for i in range(self.stages) for j in range(i, self.stages)
        )

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(row, Fraction(0)) for row in self.a)

    def elementary_weights(self) -> "TableauWeights":
        """Phi and b . Phi over this tableau's entries, one memo throughout."""
        return TableauWeights(self.a, self.b)

    @property
    def row_sum_consistent(self) -> bool:
        return self.c == self.row_sums()


class TableauWeights:
    """Phi(t) and b . Phi(t) of a tableau as reduced Fractions, from integers.

    A is scaled by D_A, the lcm of its denominators, and b by D_b, so
    ElementaryWeights runs over integers only.  Each of a tree's |t| - 1
    edges brings one factor of A (a leaf brings its row sum), so
    Phi_i(t) = Phi^_i(t) / D_A^(|t|-1) and b . Phi(t) = b^ . Phi^(t) /
    (D_b * D_A^(|t|-1)).  integer_vector and integer_weight return those
    unreduced pairs, for callers that keep summing in integers; vector and
    weight divide the same pairs, one division per tree instead of one gcd
    per product and sum.
    """

    def __init__(self, a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> None:
        self._d_a = math.lcm(*(x.denominator for row in a for x in row))
        self._d_b = math.lcm(*(x.denominator for x in b))
        rows = [
            [(j, x) for j, x in enumerate(numerators_over(row, self._d_a)) if x] for row in a
        ]
        leaf = [sum(x for _, x in row) for row in rows]
        self._integers = ElementaryWeights(rows, leaf, numerators_over(b, self._d_b))

    def integer_vector(self, tree: RootedTree) -> tuple[tuple[int, ...], int]:
        """(Phi^_1(t), ..., Phi^_s(t)) and their common scale D_A^(|t|-1)."""
        return self._integers.vector(tree), self._d_a ** (tree.order - 1)

    def integer_weight(self, tree: RootedTree) -> tuple[int, int]:
        """b^ . Phi^(t) and its scale D_b * D_A^(|t|-1)."""
        return self._integers.weight(tree), self._d_b * self._d_a ** (tree.order - 1)

    def vector(self, tree: RootedTree) -> tuple[Fraction, ...]:
        """(Phi_1(t), ..., Phi_s(t))."""
        numerators, scale = self.integer_vector(tree)
        return tuple(Fraction(x, scale) for x in numerators)

    def weight(self, tree: RootedTree) -> Fraction:
        """sum_i b[i] * Phi_i(t)."""
        return Fraction(*self.integer_weight(tree))


_TABLEAU_FIELDS = {"name", "stages", "A", "b", "c"}


def read_document(
    source: str | Mapping, error: type[ValueError], kind: str, fields: set, required: tuple
) -> Mapping:
    """The JSON object (text or mapping) behind a kind of document.

    Invalid JSON, nesting too deep for the decoder, duplicate keys, a
    non-object document, keys outside fields and missing required keys each
    raise error.  load_tableau and oracle.load_field both read through here.
    """

    def reject_duplicate_keys(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise error(f"duplicate field: {key!r}")
            seen.add(key)
        return dict(pairs)

    if isinstance(source, str):
        try:
            document = json.loads(source, object_pairs_hook=reject_duplicate_keys)
        except error:
            raise
        except json.JSONDecodeError as err:
            raise error(f"invalid JSON: {err}") from None
        except RecursionError:
            raise error("invalid JSON: nested too deeply") from None
    else:
        document = source
    if not isinstance(document, Mapping):
        raise error(f"{kind} document must be a JSON object")

    unknown = set(document) - fields
    if unknown:
        raise error(f"unknown fields: {', '.join(sorted(unknown))}")
    for name in required:
        if name not in document:
            raise error(f"missing field: {name!r}")
    return document


def size_field(document: Mapping, key: str, error: type[ValueError]) -> int:
    """document[key] as a count: an integer >= 1, or error."""
    value = document[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"'{key}' must be an integer")
    if value < 1:
        raise error(f"'{key}' must be >= 1")
    return value


def check_list(value, name, size, error, shape="a list", unit="entries") -> None:
    """Raise error unless value is a list of size items."""
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        raise error(f"{name} must be {shape}")
    if len(value) != size:
        raise error(f"{name} has {len(value)} {unit}, expected {size}")


def load_tableau(source: str | Mapping) -> ButcherTableau:
    """Build a tableau from a JSON document or an already-parsed mapping.

    Schema: {"name"?: str, "stages": int, "A": [[entry]], "b": [entry],
    "c"?: [entry]} with entries written as rational strings (or JSON
    integers).  Dimension mismatches, malformed rationals, duplicate and
    unknown fields each get their own diagnostic.
    """
    document = read_document(
        source, TableauError, "tableau", _TABLEAU_FIELDS, ("stages", "A", "b")
    )

    stages = size_field(document, "stages", TableauError)
    name = document.get("name", "")
    if not isinstance(name, str):
        raise TableauError("'name' must be a string")

    matrix, weights, nodes = document["A"], document["b"], document.get("c")
    check_list(matrix, "'A'", stages, TableauError, "a list of rows", "rows")
    for i, row in enumerate(matrix):
        check_list(row, f"A[{i + 1}]", stages, TableauError)
    check_list(weights, "'b'", stages, TableauError)
    if nodes is not None:
        check_list(nodes, "'c'", stages, TableauError)
    return ButcherTableau.from_rows(name, matrix, weights, nodes)


def weight_value(tableau: ButcherTableau, tree: RootedTree) -> Fraction:
    """The elementary weight b . Phi(t) of one tree, exactly.

    Builds a fresh evaluator per call; to ask about many trees, build one
    with tableau.elementary_weights() and call its weight(tree).
    """
    return tableau.elementary_weights().weight(tree)


@dataclass(frozen=True)
class ResidualEntry:
    tree: RootedTree
    order: int
    weight: Fraction
    rhs: Fraction
    residual: Fraction
    passed: bool

    def to_mapping(self) -> dict:
        return {
            "tree": format_tree(self.tree),
            "order": self.order,
            "weight": format_rational(self.weight),
            "rhs": format_rational(self.rhs),
            "residual": format_rational(self.residual),
            "pass": self.passed,
        }


@dataclass(frozen=True)
class OrderReport:
    """Result of verify_order.

    residuals covers every tree of order <= min(requested_order,
    achieved_order + 1), so the first failing condition is always visible.
    """

    tableau_name: str
    stages: int
    explicit: bool
    row_sum_consistent: bool
    mode: str
    tolerance: float | None
    requested_order: int
    achieved_order: int
    residuals: tuple[ResidualEntry, ...]

    def to_mapping(self) -> dict:
        return {
            "tableau": self.tableau_name,
            "stages": self.stages,
            "explicit": self.explicit,
            "row_sum_consistent": self.row_sum_consistent,
            "mode": self.mode,
            "tolerance": self.tolerance,
            "requested_order": self.requested_order,
            "achieved_order": self.achieved_order,
            "residuals": [entry.to_mapping() for entry in self.residuals],
        }

    def render_text(self) -> str:
        name = self.tableau_name or "(unnamed)"
        kind = "explicit" if self.explicit else "implicit"
        lines = [
            f"tableau: {name} ({self.stages} stages, {kind})",
            f"row sums match c: {'yes' if self.row_sum_consistent else 'NO'}",
            f"mode: {self.mode}"
            + (f" (tolerance {self.tolerance:g})" if self.mode == "float" else ""),
            f"requested order: {self.requested_order}",
            f"achieved order: {self.achieved_order}",
        ]
        rows = [("order", "tree", "weight", "rhs", "residual", "ok")]
        for entry in self.residuals:
            rows.append(
                (
                    str(entry.order),
                    format_tree(entry.tree),
                    format_rational(entry.weight),
                    format_rational(entry.rhs),
                    format_rational(entry.residual),
                    "pass" if entry.passed else "FAIL",
                )
            )
        widths = [max(len(row[col]) for row in rows) for col in range(6)]
        for row in rows:
            lines.append(
                "  ".join(field.ljust(width) for field, width in zip(row, widths)).rstrip()
            )
        return "\n".join(lines)


def verify_order(
    tableau: ButcherTableau,
    max_order: int,
    mode: str = "exact",
    tol: float = 1e-12,
) -> OrderReport:
    """Largest order p <= max_order whose conditions all hold.

    Ascends order by order and stops at the first order with a failure;
    residuals for that order are still reported in full.
    """
    if max_order < 1:
        raise TableauError("max_order must be >= 1")
    if mode not in ("exact", "float"):
        raise TableauError(f"mode must be 'exact' or 'float', got {mode!r}")

    def passes(value: Fraction) -> bool:
        if mode == "exact":
            return value == 0
        try:
            return abs(float(value)) <= tol
        except OverflowError:  # beyond float range: infinite
            return math.inf <= tol

    weights = tableau.elementary_weights()
    entries: list[ResidualEntry] = []
    achieved = max_order
    # The forest grows one order at a time: a failing order ends the climb
    # before any larger tree is built.
    for q, group in enumerate(TreesByOrder(max_order).groups(), start=1):
        failed = False
        for tree in group:
            weight = weights.weight(tree)
            rhs = Fraction(1, tree_factorial(tree))
            difference = weight - rhs
            ok = passes(difference)
            failed = failed or not ok
            entries.append(ResidualEntry(tree, q, weight, rhs, difference, ok))
        if failed:
            achieved = q - 1
            break
    return OrderReport(
        tableau_name=tableau.name,
        stages=tableau.stages,
        explicit=tableau.explicit,
        row_sum_consistent=tableau.row_sum_consistent,
        mode=mode,
        tolerance=tol if mode == "float" else None,
        requested_order=max_order,
        achieved_order=achieved,
        residuals=tuple(entries),
    )
