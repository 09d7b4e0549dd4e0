"""Butcher tableaus and exact verification of their order.

A tableau (A, b, c) is checked order by order: for every tree t of order q
the exact elementary weight b . Phi(t) must equal 1/tree_factorial(t).
Phi is the recursion defined in conditions and computed by its
ElementaryWeights, here over the tableau's nonzero A entries with a
single-node child contributing the row sum of A.  So the node vector c
plays no role in the residuals; tableaus whose c differs from the row sums
of A are verified all the same and only flagged via row_sum_consistent.

Exact mode compares Fractions; float mode compares |residual| against a
tolerance after conversion, for tableaus whose entries only approximate a
method.  A residual too large for a float compares as infinite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .algebra import format_rational, parse_rational
from .conditions import ElementaryWeights
from .trees import RootedTree, enumerate_by_leaf, format_tree, tree_factorial

__all__ = [
    "TableauError",
    "ButcherTableau",
    "load_tableau",
    "weight_vector_values",
    "weight_value",
    "residual",
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

    def elementary_weights(self) -> ElementaryWeights:
        """Phi and b . Phi over this tableau's entries, one memo throughout."""
        rows = [[(j, entry) for j, entry in enumerate(row) if entry] for row in self.a]
        return ElementaryWeights(rows, self.row_sums(), self.b)

    @property
    def row_sum_consistent(self) -> bool:
        return self.c == self.row_sums()

    def to_mapping(self) -> dict:
        return {
            "name": self.name,
            "stages": self.stages,
            "A": [[format_rational(x) for x in row] for row in self.a],
            "b": [format_rational(x) for x in self.b],
            "c": [format_rational(x) for x in self.c],
        }


_TABLEAU_FIELDS = {"name", "stages", "A", "b", "c"}


def read_document(
    source: str | Mapping, error: type[ValueError], kind: str, fields: set, required: tuple
) -> Mapping:
    """The JSON object (text or mapping) behind a kind of document.

    Invalid JSON, duplicate keys, a non-object document, keys outside fields
    and missing required keys each raise error.  load_tableau and
    oracle.load_field both read through here.
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


def weight_vector_values(tableau: ButcherTableau, tree: RootedTree) -> tuple[Fraction, ...]:
    """The per-stage weight vector of the tree, evaluated on the tableau."""
    return tableau.elementary_weights().vector(tree)


def weight_value(tableau: ButcherTableau, tree: RootedTree) -> Fraction:
    """sum_i b_i * weight_vector_values(t)_i, exactly."""
    return tableau.elementary_weights().weight(tree)


def residual(tableau: ButcherTableau, tree: RootedTree) -> Fraction:
    """weight_value(t) minus 1/tree_factorial(t); zero iff t is satisfied."""
    return weight_value(tableau, tree) - Fraction(1, tree_factorial(tree))


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

    forest = enumerate_by_leaf(max_order)
    weights = tableau.elementary_weights()
    entries: list[ResidualEntry] = []
    achieved = max_order
    for q in range(1, max_order + 1):
        failed = False
        for tree in forest.trees_of_order(q):
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
