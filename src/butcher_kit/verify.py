"""Butcher tableaus and exact verification of their order.

A tableau (A, b, c) is checked order by order: for every tree t of order q
the exact elementary weight b . Phi(t) must equal 1/tree_factorial(t).
Phi is the recursion defined in conditions and computed by its
ElementaryWeights, here over the tableau's nonzero A entries with a
single-node child contributing the row sum of A.  So the node vector c
plays no role in the residuals; tableaus whose c differs from the row sums
of A are verified all the same and only flagged via row_sum_consistent.

The recursion runs over integers: each tableau scales A and b once, to
numerators over one common denominator each, so a tree t of order q has
the weight N/S with N = b^ . Phi^(t) and S = D_b * D_A^(q-1) (TableauWeights).
verify_order compares in integers too: exact mode asks for N * t! == S,
float mode for |N * t! - S| / (S * t!), one correctly rounded division, to
be at most a tolerance, for tableaus that only approximate a method; a
quotient beyond float range fails.  Each entry's Fractions take one gcd.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Mapping, Sequence, Union

from ._record import Record, set_field
from .algebra import integer_rows, parse_rational, too_long_to_print
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


# verify_order's modes, the first the default, and float mode's default tol.
MODES = ("exact", "float")
DEFAULT_TOL = 1e-12


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


class ButcherTableau(Record):
    """Coefficients of an s-stage method; all entries exact rationals.

    c defaults to the row sums of A when omitted (None).  The integer form
    is built once, here: A's nonzero and b's numerators over one common
    denominator each (algebra.integer_rows), and A's integer row sums, which
    over D_A are the default c and row_sums().  It serves every
    elementary_weights() and explicit, true exactly when A is strictly
    lower triangular.
    """

    _fields = ("name", "a", "b", "c")

    def __init__(
        self,
        name: str,
        a: tuple[tuple[Fraction, ...], ...],
        b: tuple[Fraction, ...],
        c: tuple[Fraction, ...] | None,
    ) -> None:
        s = len(b)
        if s == 0:
            raise TableauError("a tableau needs at least one stage")
        if len(a) != s or any(len(row) != s for row in a):
            raise TableauError(f"A must be {s}x{s} to match b")
        rows, d_a = integer_rows(a)
        (b_row,), d_b = integer_rows([b])
        leaf = [sum(row) for row in rows]
        sums = tuple([Fraction(x, d_a) for x in leaf])
        sparse = [[(j, x) for j, x in enumerate(row) if x] for row in rows]
        set_field(self, "_integers", (sparse, d_a, leaf, b_row, d_b))
        if c is None:
            c = sums
        if len(c) != s:
            raise TableauError(f"c has {len(c)} entries, expected {s}")
        set_field(self, "name", name)
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "c", c)
        set_field(self, "_row_sums", sums)

    @classmethod
    def from_rows(
        cls,
        name: str,
        a: Sequence[Sequence[EntryLike]],
        b: Sequence[EntryLike],
        c: Sequence[EntryLike] | None = None,
    ) -> "ButcherTableau":
        # Each distinct entry string is parsed once per document, a zero
        # written in every empty cell included.  Only str entries are kept:
        # True == 1, so an int key could hand a boolean an int's entry.
        parsed: dict[str, Fraction] = {}

        def coerce(entries: Sequence[EntryLike], where) -> tuple[Fraction, ...]:
            row = []
            for k, entry in enumerate(entries, start=1):
                if type(entry) is str:
                    value = parsed.get(entry)
                    if value is None:
                        value = parsed[entry] = _coerce_entry(entry, where(k))
                else:
                    value = _coerce_entry(entry, where(k))
                row.append(value)
            return tuple(row)

        a_rows = tuple(coerce(row, f"A[{i}][{{}}]".format) for i, row in enumerate(a, start=1))
        b_row = coerce(b, "b[{}]".format)
        c_row = None if c is None else coerce(c, "c[{}]".format)
        return cls(name=name, a=a_rows, b=b_row, c=c_row)

    @property
    def stages(self) -> int:
        return len(self.b)

    @property
    def explicit(self) -> bool:
        return all(j < i for i, row in enumerate(self._integers[0]) for j, _ in row)

    def row_sums(self) -> tuple[Fraction, ...]:
        return self._row_sums

    def elementary_weights(self) -> "TableauWeights":
        """Phi and b . Phi over this tableau's entries, one memo throughout."""
        return TableauWeights(*self._integers)

    @property
    def row_sum_consistent(self) -> bool:
        return self.c == self._row_sums


class TableauWeights:
    """Phi(t) and b . Phi(t) of a tableau as reduced Fractions, from its
    integer form (ButcherTableau): ElementaryWeights runs over the integer
    numerators of A and b, over D_A and D_b, with A's integer row sums as
    the leaf vector.  Each of a tree's |t| - 1 edges brings one factor of A,
    so Phi(t) = Phi^(t) / D_A^(|t|-1) and b . Phi(t) = b^ . Phi^(t) /
    scale(|t|), with scale(q) = D_b * D_A^(q-1) kept per order.
    integer_weight returns that unreduced pair, for callers that keep
    summing in integers (the oracle's tree route, verify_order); vector and
    weight divide once per tree, not one gcd per product and sum.
    """

    def __init__(self, rows, d_a: int, leaf: Sequence[int], b: Sequence[int], d_b: int) -> None:
        self._d_a, self._d_b = d_a, d_b
        self._integers = ElementaryWeights(rows, leaf, b)
        self._scales = [d_b]  # by order from 1 on, grown on demand

    def scale(self, order: int) -> int:
        """D_b * D_A^(order-1): integer_weight's scale for a tree of that order."""
        scales = self._scales
        while len(scales) < order:
            scales.append(scales[-1] * self._d_a)
        return scales[order - 1]

    def integer_weight(self, tree: RootedTree) -> tuple[int, int]:
        """b^ . Phi^(t) and its scale D_b * D_A^(|t|-1)."""
        return self._integers.weight(tree), self.scale(tree.order)

    def vector(self, tree: RootedTree) -> tuple[Fraction, ...]:
        """(Phi_1(t), ..., Phi_s(t))."""
        scale = self.scale(tree.order) // self._d_b
        return tuple(Fraction(x, scale) for x in self._integers.vector(tree))

    def weight(self, tree: RootedTree) -> Fraction:
        """sum_i b[i] * Phi_i(t)."""
        return Fraction(*self.integer_weight(tree))


_TABLEAU_FIELDS = {"name", "stages", "A", "b", "c"}


def read_document(
    source: str | Mapping, error: type[ValueError], kind: str, fields: set, required: tuple
) -> Mapping:
    """The JSON object (text or mapping) behind a kind of document.

    Invalid JSON, nesting too deep for the decoder, an integer literal too
    long to read, duplicate keys, a non-object document, keys outside fields
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

    def read_int(text: str) -> int:
        # parse_rational reads a JSON integer literal exactly as int() does,
        # and words the refusal of one too long to read.
        try:
            return int(parse_rational(text))
        except ValueError as err:
            raise error(str(err)) from None

    if isinstance(source, str):
        try:
            document = json.loads(
                source, object_pairs_hook=reject_duplicate_keys, parse_int=read_int
            )
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
    integers), and a name of printable characters only (str.isprintable).
    Dimension mismatches, malformed rationals, duplicate and unknown
    fields each get their own diagnostic.
    """
    document = read_document(
        source, TableauError, "tableau", _TABLEAU_FIELDS, ("stages", "A", "b")
    )

    stages = size_field(document, "stages", TableauError)
    name = document.get("name", "")
    if not isinstance(name, str):
        raise TableauError("'name' must be a string")
    if not name.isprintable():
        # A line break in the name would start a line of the text report
        # of its own, such as a forged "achieved order: 9", and a lone
        # surrogate cannot be written out at all.
        bad = next(ch for ch in name if not ch.isprintable())
        raise TableauError(f"'name' holds a character that is not printable: {bad!r}")

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


class ResidualEntry(Record):
    _fields = ("tree", "order", "weight", "rhs", "residual", "passed")

    def __init__(
        self,
        tree: RootedTree,
        order: int,
        weight: Fraction,
        rhs: Fraction,
        residual: Fraction,
        passed: bool,
    ) -> None:
        set_field(self, "tree", tree)
        set_field(self, "order", order)
        set_field(self, "weight", weight)
        set_field(self, "rhs", rhs)
        set_field(self, "residual", residual)
        set_field(self, "passed", passed)


# A residual's keys in OrderReport.rows() order, for to_mapping and the CLI.
RESIDUAL_KEYS = ("tree", "order", "weight", "rhs", "residual", "pass")


def tableau_title(name: str, stages: int, explicit: bool) -> str:
    """The line naming a tableau in verify's and the oracle's text reports."""
    name = name or "(unnamed)"
    kind = "explicit" if explicit else "implicit"
    return f"tableau: {name} ({stages} stages, {kind})"


class OrderReport(Record):
    """Result of verify_order.

    residuals covers every tree of order <= min(requested_order,
    achieved_order + 1), so the first failing condition is always visible.
    rows() formats each entry for render_text, to_mapping and the CLI's
    JSON writer; each tree's text is the one format_tree keeps by id.
    """

    _fields = (
        "tableau_name",
        "stages",
        "explicit",
        "row_sum_consistent",
        "mode",
        "tolerance",
        "requested_order",
        "achieved_order",
        "residuals",
    )

    def __init__(
        self,
        tableau_name: str,
        stages: int,
        explicit: bool,
        row_sum_consistent: bool,
        mode: str,
        tolerance: float | None,
        requested_order: int,
        achieved_order: int,
        residuals: tuple[ResidualEntry, ...],
    ) -> None:
        set_field(self, "tableau_name", tableau_name)
        set_field(self, "stages", stages)
        set_field(self, "explicit", explicit)
        set_field(self, "row_sum_consistent", row_sum_consistent)
        set_field(self, "mode", mode)
        set_field(self, "tolerance", tolerance)
        set_field(self, "requested_order", requested_order)
        set_field(self, "achieved_order", achieved_order)
        set_field(self, "residuals", residuals)

    def header(self) -> dict:
        """to_mapping() without its residuals."""
        return {
            "tableau": self.tableau_name,
            "stages": self.stages,
            "explicit": self.explicit,
            "row_sum_consistent": self.row_sum_consistent,
            "mode": self.mode,
            "tolerance": self.tolerance,
            "requested_order": self.requested_order,
            "achieved_order": self.achieved_order,
        }

    def rows(self) -> list[tuple]:
        """(tree, order, weight, rhs, residual, pass) per residual, the tree
        and the rationals as text; one too long to print is a ValueError."""
        try:
            return [
                (format_tree(entry.tree), entry.order, str(entry.weight),
                 str(entry.rhs), str(entry.residual), entry.passed)
                for entry in self.residuals
            ]
        except ValueError:
            raise too_long_to_print("lower --max-order or use shorter tableau entries") from None

    def to_mapping(self) -> dict:
        residuals = [dict(zip(RESIDUAL_KEYS, row)) for row in self.rows()]
        return {**self.header(), "residuals": residuals}

    def render_text(self) -> str:
        lines = [
            tableau_title(self.tableau_name, self.stages, self.explicit),
            f"row sums match c: {'yes' if self.row_sum_consistent else 'NO'}",
            f"mode: {self.mode}"
            + (f" (tolerance {self.tolerance:g})" if self.mode == "float" else ""),
            f"requested order: {self.requested_order}",
            f"achieved order: {self.achieved_order}",
        ]
        rows = [("order", "tree", "weight", "rhs", "residual", "ok")]
        for tree, order, weight, rhs, residual, passed in self.rows():
            rows.append((str(order), tree, weight, rhs, residual, "pass" if passed else "FAIL"))
        # Each column left-aligned to its widest cell, two spaces apart.
        layout = "  ".join([f"{{:<{max(map(len, column))}}}" for column in zip(*rows)])
        lines += [layout.format(*row).rstrip() for row in rows]
        return "\n".join(lines)


def verify_order(
    tableau: ButcherTableau,
    max_order: int,
    mode: str = MODES[0],
    tol: float = DEFAULT_TOL,
) -> OrderReport:
    """Largest order p <= max_order whose conditions all hold.

    Ascends order by order and stops at the first order with a failure;
    residuals for that order are still reported in full.  A tol that is not
    finite raises TableauError: an infinite one would pass every residual.
    So does a negative tol, which no residual could pass.
    """
    if max_order < 1:
        raise TableauError("max_order must be >= 1")
    if mode not in MODES:
        raise TableauError(f"mode must be {' or '.join(map(repr, MODES))}, got {mode!r}")
    if not math.isfinite(tol):
        raise TableauError(f"tol must be finite, got {tol}")
    if tol < 0:
        raise TableauError(f"tol must be >= 0, got {tol}")

    weights = tableau.elementary_weights()
    integer_weight = weights._integers.weight  # the scale is per order
    exact = mode == "exact"
    zero = Fraction(0)
    reciprocals: dict[int, Fraction] = {}  # t! -> 1/t!
    entries: list[ResidualEntry] = []
    achieved = max_order
    # The forest grows one order at a time: a failing order ends the climb
    # before any larger tree is built.
    for q, group in enumerate(TreesByOrder(max_order).groups(), start=1):
        scale = weights.scale(q)
        failed = False
        for tree in group:
            factorial = tree_factorial(tree)
            rhs = reciprocals.get(factorial)
            if rhs is None:
                rhs = reciprocals[factorial] = Fraction(1, factorial)
            weight = integer_weight(tree)
            # N/S - 1/t! = (N t! - S) / (S t!); at gap 0 the weight is 1/t!.
            gap = weight * factorial - scale
            if not gap:
                entries.append(ResidualEntry(tree, q, rhs, rhs, zero, True))
                continue
            denominator = scale * factorial
            ok = False
            if not exact:
                try:
                    ok = abs(gap / denominator) <= tol
                except OverflowError:  # beyond float range: infinite, above any tol
                    pass
            failed = failed or not ok
            residual = Fraction(gap, denominator)
            entries.append(ResidualEntry(tree, q, Fraction(weight, scale), rhs, residual, ok))
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
