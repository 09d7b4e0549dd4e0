"""Command-line front end.

Subcommands: trees (enumerate canonical trees), count (per-order tallies),
conditions (order conditions, concrete or generic), verify (tableau order
check with exit-code contract), oracle (series cross-checks).  Output is
deterministic; results go to stdout, diagnostics to stderr.  JSON documents
carry a top-level "schema": "butcher-kit/1" key.

Exit codes: 0 success, 1 semantic failure (verification below the requested
order, or a series-route mismatch), 2 usage or input errors, sizes beyond
the caps below included.

Each run pays for this module's import, which leaves out the oracle: only
the oracle subcommand imports it, when it runs.  The oracle's names read
here as attributes of this module (perfbench's tracer patches six of them)
are served on first use, as the package serves them.  Nor does it load
argparse: each subcommand's options live in one table, which reads an
argv in its plain spellings, and argparse, loaded by build_parser() on a
fresh full parser, reads the rest and prints every usage, help and error.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path
from types import SimpleNamespace

from . import _ORACLE_NAMES
from .algebra import TooLongToPrint, format_rational
from .conditions import GenerationFlags, OrderCondition, all_order_conditions, render_generic
from .trees import enumerate_by_leaf, format_tree, tree_counts, tree_factorial
from .verify import DEFAULT_TOL, MODES, RESIDUAL_KEYS, load_tableau, tableau_title, verify_order

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    import argparse

    from .oracle import TauSeries

    # What a subcommand runs on: _read_argv's namespace or argparse's.
    Args = SimpleNamespace | argparse.Namespace

SCHEMA = "butcher-kit/1"

_ORACLE_DEGREE_CAP = 6

# Size caps, refused with exit 2 before any work starts.  Every subcommand
# works per tree, and there are about 3x more trees per order; at the cap the
# heaviest run, `conditions --generic --format json`, runs in seconds, which
# CI holds with a timeout and a bound on its peak RSS.  CHANGES.md keeps the
# figures each cap was measured at, with their host.
_ORDER_CAP = 14
# conditions without --generic: a full A has S^2 variables.
_STAGES_CAP = 100


def _condition_size(order: int, stages: int, flags: GenerationFlags) -> tuple[int, int]:
    """(size estimate, cap) of the order-P conditions without --generic.

    A condition sums over k stage indices: k = P, or P - 1 when leaves are
    written as c[i].  The estimate is the number of trees of order P times
    S^k index choices, or C(S + k - 1, k) with explicit A, where every index
    lies below its parent's.  A leaf written as c[i] costs one variable, not
    a row sum, hence the larger cap with --subst-c.  The caps keep a cell's
    time to seconds and its memory to a few hundred MB: CI runs a cell just
    under them (--order 8 --stages 8 --explicit) with a timeout, and checks
    that one just over them (--order 7 --stages 5) is refused.
    """
    k = order - 1 if flags.substitute_c else order
    choices = math.comb(stages + k - 1, k) if flags.explicit else stages**k
    cap = 10_000_000 if flags.substitute_c else 1_000_000
    return tree_counts(order)[-1] * choices, cap


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every subcommand of _COMMANDS, under "butcher-kit",
    built anew on every call."""
    import argparse  # loaded here: a run needs it only for what main defers

    parser = argparse.ArgumentParser(
        prog="butcher-kit",
        description="Rooted trees, Runge-Kutta order conditions, and exact "
        "verification of Butcher tableaus.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_line, options, _) in _COMMANDS.items():
        subparser = subparsers.add_parser(name, help=help_line)
        for flag, spec in options:
            subparser.add_argument(flag, **spec)
    return parser


def _read_argv(argv: Sequence[str]) -> SimpleNamespace | None:
    """argv read by its subcommand's option table, with the attributes
    build_parser().parse_args(argv) would set; None for any argv the
    table does not read as argparse reads it.

    Read: a first word that names a subcommand, then in any order each
    exact long flag at most once, as "--flag value" with a value that
    does not start with "-", or "--flag=value"; each store_true flag bare;
    the subcommand's positional once.  Every value converts by the
    table's type into its choices, and every required option is given.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = _COMMANDS[argv[0]][1]
    specs = dict(options)
    # The positional, if the subcommand has one: the only name without "-".
    positional = next((name for name, _ in options if not name.startswith("-")), None)
    given: dict[str, str | bool] = {}
    words = iter(argv[1:])
    for word in words:
        if word.startswith("-"):
            flag, equals, value = word.partition("=")
            if flag not in specs:
                return None
            if specs[flag].get("action") == "store_true":
                if equals:
                    return None
                value = True
            elif not equals:
                value = next(words, None)
                if value is None or value.startswith("-"):
                    return None
        else:
            flag, value = positional, word
        if flag is None or flag in given:
            return None
        given[flag] = value

    parsed = SimpleNamespace(subcommand=argv[0])
    for flag, spec in options:
        store_true = spec.get("action") == "store_true"
        if flag in given:
            value = given[flag]
            if not store_true:
                try:
                    value = spec.get("type", str)(value)
                except ValueError:
                    return None
                if "choices" in spec and value not in spec["choices"]:
                    return None
        elif spec.get("required") or not flag.startswith("-"):
            return None
        else:
            value = spec.get("default", False if store_true else None)
        setattr(parsed, flag.lstrip("-").replace("-", "_"), value)
    return parsed


# What to shrink, by subcommand, when a value is too long to print.
_TOO_LONG_REMEDIES = {
    "verify": "lower --max-order or use shorter tableau entries",
    "oracle": "lower --p or use a shorter x0",
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _require_order(value: int, flag: str) -> None:
    _require(value >= 1, f"{flag} must be >= 1")
    _require(value <= _ORDER_CAP, f"{flag} must be <= {_ORDER_CAP}")


def _write(parts: Iterable[str]) -> None:
    """Write each part to stdout as it comes, then flush.  Once the reader
    has closed stdout, as `| head -1` does, the rest of the output is
    dropped: the run goes on quietly to its own exit code."""
    write = sys.stdout.write
    try:
        for part in parts:
            write(part)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at the null device, so that later writes and the
        # interpreter's last flush of what the pipe refused succeed.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _print(text: str) -> None:
    """print(text) to stdout and flush it, as _write does."""
    _write((text, "\n"))


# A JSON string literal as json.dumps writes it: ensure_ascii, so the C
# encoder's ASCII variant.
_string = json.encoder.encode_basestring_ascii


def _emit_json(document: dict, streamed: tuple[str, Iterable[str]] | None = None) -> None:
    """Print {"schema": SCHEMA, **document} as json.dumps(indent=2) does.

    streamed, if given, is (key, elements): the document goes on with key,
    whose value is a list written element by element as the elements come,
    so it is never held whole.  Each element is already encoded as
    json.dumps(indent=2) lays out an element of a list under a top-level
    key: its lines after the first indented by 4 more spaces.
    """
    text = json.dumps({"schema": SCHEMA, **document}, indent=2)
    if streamed is None:
        _print(text)
        return
    key, elements = streamed

    def parts() -> Iterator[str]:
        yield f"{text[:-2]},\n  {_string(key)}: ["
        separator = "\n    "
        for element in elements:
            yield separator
            yield element
            separator = ",\n    "
        yield "]\n}\n" if separator == "\n    " else "\n  ]\n}\n"

    _write(parts())


def _record_layout(keys: Sequence[str], **values: str) -> str:
    """A record of a streamed list laid out as json.dumps(indent=2) lays out
    a dict with these keys there.  Each value is a %s for the encoded value,
    or the template that values gives for its key."""
    fields = [f"\n      {_string(key)}: {values.get(key, '%s')}" for key in keys]
    return "{" + ",".join(fields) + "\n    }"


# The streamed lists' records; a record of trees holds a list of texts.
_ORDER_RECORD = _record_layout(("order", "count", "trees"), trees="[\n        %s\n      ]")
_CONDITION_RECORD = _record_layout(("tree", "order", "lhs", "rhs"))
_RESIDUAL_RECORD = _record_layout(RESIDUAL_KEYS)


def _cmd_trees(args: Args) -> int:
    _require_order(args.order, "--order")
    groups = enumerate_by_leaf(args.order).groups()
    orders = ([format_tree(tree) for tree in group] for group in groups)
    if args.format == "bracket":
        _write(f"{text}\n" for row in orders for text in row)
        return 0
    records = (
        _ORDER_RECORD % (q, len(row), ",\n        ".join(map(_string, row)))
        for q, row in enumerate(orders, start=1)
    )
    header = {"max_order": args.order, "total": sum(tree_counts(args.order))}
    _emit_json(header, ("orders", records))
    return 0


def _cmd_count(args: Args) -> int:
    # The counting recurrence: no tree is built.
    _require_order(args.order, "--order")
    counts = tree_counts(args.order)
    lines = [f"order {q}: {n}" for q, n in enumerate(counts, start=1)]
    _print("\n".join([*lines, f"total: {sum(counts)}"]))
    return 0


def _reciprocal(n: int) -> str:
    """1/n for an int n >= 1 as format_rational writes it, without a Fraction."""
    return f"1/{n}" if n > 1 else "1"


def _cmd_conditions(args: Args) -> int:
    _require_order(args.order, "--order")
    # Either mode makes one row (tree, lhs text, rhs text) per condition;
    # one writer per format prints the rows as they are made.  Every refusal
    # comes before the first row.
    style = "latex" if args.format == "latex" else "plain"
    if args.generic:
        # The nested sums are plain text for any stage count and any A.
        for given, flag in (
            (args.stages is not None, "--stages"),
            (args.explicit, "--explicit"),
            (args.subst_c, "--subst-c"),
            (args.format == "latex", "--format latex"),
        ):
            _require(not given, f"--generic does not take {flag}")
        header = {"generic": True}
        sums: dict = {}  # one memo: each child's factor is built once per depth
        rows = (
            (tree, render_generic(tree, sums), _reciprocal(tree_factorial(tree)))
            for tree in enumerate_by_leaf(args.order)
        )
    else:
        _require(args.stages is not None, "--stages is required without --generic")
        _require(args.stages >= 1, "--stages must be >= 1")
        _require(args.stages <= _STAGES_CAP, f"--stages must be <= {_STAGES_CAP}")
        flags = GenerationFlags(explicit=args.explicit, substitute_c=args.subst_c)
        size, cap = _condition_size(args.order, args.stages, flags)
        _require(
            size <= cap,
            f"--order {args.order} with --stages {args.stages} is too large: "
            f"its size estimate {size:,} exceeds {cap:,}",
        )
        header = {
            "stages": args.stages,
            "explicit": args.explicit,
            "subst_c": args.subst_c,
            "generic": False,
        }
        # Dropping duplicates needs every condition before the first row.
        rows = (
            (condition.tree, condition.lhs.render(style), condition.rhs_text(style))
            for condition in all_order_conditions(args.order, args.stages, flags)
        )

    if args.format == "json":
        records = (
            _CONDITION_RECORD
            % (_string(format_tree(tree)), tree.order, _string(lhs), _string(rhs))
            for tree, lhs, rhs in rows
        )
        _emit_json({"max_order": args.order, **header}, ("conditions", records))
    else:
        _write(f"{OrderCondition.equation(lhs, rhs, style)}\n" for _, lhs, rhs in rows)
    return 0


def _cmd_verify(args: Args) -> int:
    _require_order(args.max_order, "--max-order")
    required = args.require_order if args.require_order is not None else args.max_order
    _require(required >= 1, "--require-order must be >= 1")
    _require(
        required <= args.max_order, "--require-order cannot exceed --max-order"
    )
    _require(math.isfinite(args.tol), "--tol must be finite")
    _require(args.tol >= 0, "--tol must be >= 0")
    tableau = load_tableau(Path(args.tableau).read_text())
    report = verify_order(tableau, args.max_order, mode=args.mode, tol=args.tol)
    if args.format == "json":
        # Every record is made before the first byte is written: a value too
        # long to print then leaves stdout empty on exit 2.
        records = [
            _RESIDUAL_RECORD % (
                _string(tree), order, _string(weight), _string(rhs), _string(residual),
                "true" if ok else "false",
            )
            for tree, order, weight, rhs, residual, ok in report.rows()
        ]
        _emit_json(report.header(), ("residuals", records))
    else:
        _print(report.render_text())
    return 0 if report.achieved_order >= required else 1


class _SeriesPair:
    """One series by its tree route and by iteration, and their first split.

    name is "flow" or "discrete"; route names the iteration route,
    "picard" or "direct".
    """

    def __init__(self, name: str, trees: TauSeries, route: str, iterated: TauSeries):
        self.name, self.trees, self.route, self.iterated = name, trees, route, iterated
        self.split = trees.first_difference(iterated)

    def to_mapping(self) -> dict:
        return {
            "trees": self.trees.to_mapping(),
            self.route: self.iterated.to_mapping(),
            "agree": self.split is None,
            "first_difference": self.split,
        }

    def text_lines(self) -> list[str]:
        verdict = "agree" if self.split is None else f"MISMATCH at degree {self.split}"
        return [
            f"{self.name} series:",
            self.trees.render_text(),
            f"{self.name} trees vs {self.route}: {verdict}",
        ]


def _cmd_oracle(args: Args) -> int:
    _require(
        0 <= args.p <= _ORACLE_DEGREE_CAP,
        f"--p must be between 0 and {_ORACLE_DEGREE_CAP}",
    )
    from . import oracle  # loaded here: no other subcommand needs it

    field = oracle.load_field(Path(args.field).read_text())
    point = oracle.parse_point(args.x0, field.dim)
    flow = _SeriesPair(
        "flow",
        oracle.flow_series_trees(field, point, args.p),
        "picard",
        oracle.flow_series_picard(field, point, args.p),
    )
    pairs = [flow]
    if args.tableau is not None:
        tableau = load_tableau(Path(args.tableau).read_text())
        discrete = _SeriesPair(
            "discrete",
            oracle.rk_series_trees(tableau, field, point, args.p),
            "direct",
            oracle.rk_series_direct(tableau, field, point, args.p),
        )
        pairs.append(discrete)
        versus_flow = flow.trees.first_difference(discrete.trees)
    agree = all(pair.split is None for pair in pairs)

    # The whole report is built before any of it is printed: a value too
    # big to format then leaves stdout empty on exit 2.
    x0 = [format_rational(x) for x in point]
    if args.format == "json":
        document = {
            "field": args.field,
            "dim": field.dim,
            "x0": x0,
            "degree": args.p,
            "flow": flow.to_mapping(),
        }
        if args.tableau is not None:
            document["discrete"] = {"tableau": tableau.name, **discrete.to_mapping()}
            document["flow_vs_discrete_first_difference"] = versus_flow
        _emit_json(document)
    else:
        lines = [
            f"field: {args.field} (dim {field.dim})",
            f"x0: ({', '.join(x0)})",
            f"degree: {args.p}",
            *flow.text_lines(),
        ]
        if args.tableau is not None:
            lines += [
                tableau_title(tableau.name, tableau.stages, tableau.explicit),
                *discrete.text_lines(),
                (
                    f"flow vs discrete: no difference through degree {args.p}"
                    if versus_flow is None
                    else f"flow vs discrete: first difference at degree {versus_flow}"
                ),
            ]
        _print("\n".join(lines))
    return 0 if agree else 1


# Each subcommand's help line, its option table and the function that runs
# it on the parsed arguments.  A table lists the positional, if any, and
# each option, as its name or flag and the keywords argparse's
# add_argument takes for it: build_parser() adds them, and _read_argv reads
# an argv by them.
_ORDER = dict(type=int, required=True, metavar="P", help=f"highest tree order, 1..{_ORDER_CAP}")
_COMMANDS = {
    "trees": (
        "list all rooted trees of order 1 through P",
        (("--order", _ORDER), ("--format", dict(choices=("bracket", "json"), default="bracket"))),
        _cmd_trees,
    ),
    "count": ("tree counts per order and their total", (("--order", _ORDER),), _cmd_count),
    "conditions": (
        "order conditions for trees of order 1 through P",
        (
            ("--order", _ORDER),
            (
                "--stages",
                dict(type=int, metavar="S", help=f"1..{_STAGES_CAP}; larger P need fewer stages"),
            ),
            (
                "--explicit",
                dict(action="store_true", help="drop weights a[i,j] with j >= i and fix c[1] = 0"),
            ),
            (
                "--subst-c",
                dict(action="store_true", help="write sum_j a[i,j] as c[i] under leaves"),
            ),
            ("--format", dict(choices=("text", "latex", "json"), default="text")),
            (
                "--generic",
                dict(
                    action="store_true",
                    help="print nested-sum conditions for symbolic stage count instead",
                ),
            ),
        ),
        _cmd_conditions,
    ),
    "verify": (
        "check what order a tableau document achieves",
        (
            ("tableau", dict(help="path to a tableau JSON document")),
            ("--max-order", _ORDER),
            (
                "--require-order",
                dict(
                    type=int,
                    metavar="Q",
                    help="exit 0 only if the achieved order is at least Q (default: P)",
                ),
            ),
            ("--mode", dict(choices=MODES, default=MODES[0])),
            (
                "--tol",
                dict(
                    type=float,
                    default=DEFAULT_TOL,
                    help=f"residual tolerance in float mode (default {DEFAULT_TOL:g})",
                ),
            ),
            ("--format", dict(choices=("text", "json"), default="text")),
        ),
        _cmd_verify,
    ),
    "oracle": (
        "expand exact and discrete flows two independent ways and compare",
        (
            ("field", dict(help="path to a vector-field JSON document")),
            ("--x0", dict(required=True, help="expansion point, comma-separated rationals")),
            (
                "--p",
                dict(
                    type=int,
                    required=True,
                    metavar="P",
                    help=f"truncation degree, 0..{_ORACLE_DEGREE_CAP}",
                ),
            ),
            ("--tableau", dict(help="also expand one step of this tableau document")),
            ("--format", dict(choices=("text", "json"), default="text")),
        ),
        _cmd_oracle,
    ),
}


# argparse takes an argument that starts with "-" for an option unless it
# reads like "-1" or "-0.5", so a point such as "-2/3" or "-1,0" after
# --x0 (or its abbreviation --x) would leave the flag without its value.
_NEGATIVE_POINT = re.compile(r"-[0-9]")


def _join_points(argv: Sequence[str]) -> list[str]:
    """argv with "--x0" and a following negative point as one "--x0=<point>"."""
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in ("--x", "--x0") and _NEGATIVE_POINT.match(arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def __getattr__(name: str):
    """The oracle's names, served on first use as the package serves them:
    importing the CLI does not load the oracle."""
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI on argv (sys.argv[1:] by default); return the exit code.

    Two parse routes give the same stdout, stderr and exit code.  An argv
    spelled as _read_argv takes it, a subcommand with its exact long flags,
    is read by that subcommand's option table, without argparse.  Anything
    else (no word, -h, an unknown word or flag, an abbreviation, "--", a
    flag given twice or without its value, a value that does not convert,
    a missing option) goes through a full parser fresh from
    build_parser(), which prints argparse's usage, help or error.
    """
    argv = _join_points(sys.argv[1:] if argv is None else argv)
    parsed = _read_argv(argv)
    if parsed is None:
        try:
            parsed = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse already printed the diagnostic
            return int(exc.code or 0)
    try:
        return _COMMANDS[parsed.subcommand][2](parsed)
    except (OSError, ValueError) as err:
        if isinstance(err, TooLongToPrint) and parsed.subcommand in _TOO_LONG_REMEDIES:
            err = f"{err}; {_TOO_LONG_REMEDIES[parsed.subcommand]}"
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
