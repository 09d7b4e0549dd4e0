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
are served on first use, as the package serves them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from . import _ORACLE_NAMES
from .algebra import format_rational
from .conditions import GenerationFlags, OrderCondition, all_order_conditions, render_generic
from .trees import enumerate_by_leaf, format_tree, tree_counts, tree_factorial
from .verify import load_tableau, verify_order

if TYPE_CHECKING:
    from .oracle import TauSeries

SCHEMA = "butcher-kit/1"

_ORACLE_DEGREE_CAP = 6

# Size caps, refused with exit 2 before any work starts.  Every subcommand
# works per tree, and there are about 3x more trees per order: through order
# 14 (53,272 trees) the heaviest, `conditions --generic --format json`, takes
# 0.5-0.8 s and 54 MB peak RSS on a 2-core Xeon (Python 3.11, five runs;
# 0.4-0.6 s and 49 MB in text, five runs).
_ORDER_CAP = 14
# conditions without --generic: a full A has S^2 variables (--order 2
# --stages 100: 0.5 s, 28 MB).
_STAGES_CAP = 100


def _condition_size(order: int, stages: int, flags: GenerationFlags) -> tuple[int, int]:
    """(size estimate, cap) of the order-P conditions without --generic.

    A condition sums over k stage indices: k = P, or P - 1 when leaves are
    written as c[i].  The estimate is the number of trees of order P times
    S^k index choices, or C(S + k - 1, k) with explicit A, where every index
    lies below its parent's.  A leaf written as c[i] costs one variable, not
    a row sum, hence the larger cap with --subst-c.  Measured on a 2-core Xeon
    with Python 3.11, text output: accepted sizes near the caps take 1.3-2.5 s
    and 120-210 MB (--order 6 --stages 6; --order 8 --stages 8 --explicit;
    --order 6 --stages 13 --subst-c), and sizes just above them would take
    2.1-4.8 s and 265-365 MB (--order 6 --stages 14 --subst-c; --order 7
    --stages 5), most of the time in rendering the polynomials.
    """
    k = order - 1 if flags.substitute_c else order
    choices = math.comb(stages + k - 1, k) if flags.explicit else stages**k
    cap = 10_000_000 if flags.substitute_c else 1_000_000
    return tree_counts(order)[-1] * choices, cap


# Each subcommand's arguments, added to its parser by one function: under
# build_parser()'s full parser, or alone when main needs only that one.
_ORDER_HELP = f"highest tree order, 1..{_ORDER_CAP}"


def _add_order(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--order", type=int, required=True, metavar="P", help=_ORDER_HELP)


def _add_trees_arguments(parser: argparse.ArgumentParser) -> None:
    _add_order(parser)
    parser.add_argument("--format", choices=("bracket", "json"), default="bracket")


def _add_conditions_arguments(parser: argparse.ArgumentParser) -> None:
    _add_order(parser)
    parser.add_argument(
        "--stages", type=int, metavar="S", help=f"1..{_STAGES_CAP}; larger P need fewer stages"
    )
    parser.add_argument(
        "--explicit", action="store_true", help="drop weights a[i,j] with j >= i and fix c[1] = 0"
    )
    parser.add_argument(
        "--subst-c", action="store_true", help="write sum_j a[i,j] as c[i] under leaves"
    )
    parser.add_argument("--format", choices=("text", "latex", "json"), default="text")
    parser.add_argument(
        "--generic",
        action="store_true",
        help="print nested-sum conditions for symbolic stage count instead",
    )


def _add_verify_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("tableau", help="path to a tableau JSON document")
    parser.add_argument("--max-order", type=int, required=True, metavar="P", help=_ORDER_HELP)
    parser.add_argument(
        "--require-order",
        type=int,
        metavar="Q",
        help="exit 0 only if the achieved order is at least Q (default: P)",
    )
    parser.add_argument("--mode", choices=("exact", "float"), default="exact")
    parser.add_argument(
        "--tol", type=float, default=1e-12, help="residual tolerance in float mode (default 1e-12)"
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _add_oracle_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("field", help="path to a vector-field JSON document")
    parser.add_argument("--x0", required=True, help="expansion point, comma-separated rationals")
    parser.add_argument(
        "--p", type=int, required=True, metavar="P", help=f"truncation degree, 0..{_ORACLE_DEGREE_CAP}"
    )
    parser.add_argument("--tableau", help="also expand one step of this tableau document")
    parser.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every subcommand of _COMMANDS, under "butcher-kit"."""
    parser = argparse.ArgumentParser(
        prog="butcher-kit",
        description="Rooted trees, Runge-Kutta order conditions, and exact "
        "verification of Butcher tableaus.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_line, add_arguments, _) in _COMMANDS.items():
        add_arguments(subparsers.add_parser(name, help=help_line))
    return parser


def _subcommand_parser(name: str) -> argparse.ArgumentParser:
    """Subcommand name's parser alone, as build_parser() makes it under its
    own prog: usage, help and errors read the same."""
    parser = argparse.ArgumentParser(prog=f"butcher-kit {name}")
    _COMMANDS[name][1](parser)
    return parser


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


# The records of the streamed lists, laid out as json.dumps(indent=2) lays
# out the same dicts there.
_ORDER_RECORD = '{\n      "order": %d,\n      "count": %d,\n      "trees": [\n        %s\n      ]\n    }'
_CONDITION_RECORD = '{\n      "tree": %s,\n      "order": %d,\n      "lhs": %s,\n      "rhs": %s\n    }'
_RESIDUAL_RECORD = (
    '{\n      "tree": %s,\n      "order": %d,\n      "weight": %s,\n      "rhs": %s,'
    '\n      "residual": %s,\n      "pass": %s\n    }'
)


def _cmd_trees(args: argparse.Namespace) -> int:
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


def _cmd_count(args: argparse.Namespace) -> int:
    # The counting recurrence: no tree is built.
    _require_order(args.order, "--order")
    counts = tree_counts(args.order)
    lines = [f"order {q}: {n}" for q, n in enumerate(counts, start=1)]
    _print("\n".join([*lines, f"total: {sum(counts)}"]))
    return 0


def _reciprocal(n: int) -> str:
    """1/n for an int n >= 1 as format_rational writes it, without a Fraction."""
    return f"1/{n}" if n > 1 else "1"


def _cmd_conditions(args: argparse.Namespace) -> int:
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


def _cmd_verify(args: argparse.Namespace) -> int:
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


def _cmd_oracle(args: argparse.Namespace) -> int:
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
            kind = "explicit" if tableau.explicit else "implicit"
            lines += [
                f"tableau: {tableau.name or '(unnamed)'} ({tableau.stages} stages, {kind})",
                *discrete.text_lines(),
                (
                    f"flow vs discrete: no difference through degree {args.p}"
                    if versus_flow is None
                    else f"flow vs discrete: first difference at degree {versus_flow}"
                ),
            ]
        _print("\n".join(lines))
    return 0 if agree else 1


# Each subcommand's help line, the function that adds its arguments to a
# parser, and the function that runs it on the parsed arguments.
_COMMANDS = {
    "trees": ("list all rooted trees of order 1 through P", _add_trees_arguments, _cmd_trees),
    "count": ("tree counts per order and their total", _add_order, _cmd_count),
    "conditions": (
        "order conditions for trees of order 1 through P", _add_conditions_arguments, _cmd_conditions
    ),
    "verify": ("check what order a tableau document achieves", _add_verify_arguments, _cmd_verify),
    "oracle": (
        "expand exact and discrete flows two independent ways and compare",
        _add_oracle_arguments,
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

    Two parse routes give the same stdout, stderr and exit code.  When the
    first word names a subcommand, only that subcommand's parser is built.
    Anything else (no word, -h, an unknown word, an option first), and any
    word that parser leaves unrecognised, goes through build_parser()'s
    full parser, which prints the top-level usage or error.
    """
    argv = _join_points(sys.argv[1:] if argv is None else argv)
    try:
        parsed = extras = None
        if argv and argv[0] in _COMMANDS:
            parsed, extras = _subcommand_parser(argv[0]).parse_known_args(argv[1:])
            parsed.subcommand = argv[0]
        if parsed is None or extras:
            parsed = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)
    try:
        return _COMMANDS[parsed.subcommand][2](parsed)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
