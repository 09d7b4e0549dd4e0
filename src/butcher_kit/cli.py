"""Command-line front end.

Subcommands: trees (enumerate canonical trees), count (per-order tallies),
conditions (order conditions, concrete or generic), verify (tableau order
check with exit-code contract), oracle (series cross-checks).  Output is
deterministic; results go to stdout, diagnostics to stderr.  JSON documents
carry a top-level "schema": "butcher-kit/1" key.

Exit codes: 0 success, 1 semantic failure (verification below the requested
order, or a series-route mismatch), 2 usage or input errors, sizes beyond
the caps below included.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .algebra import format_rational
from .conditions import GenerationFlags, all_order_conditions, render_generic
from .oracle import (
    FieldError,
    FieldSyntaxError,
    flow_series_picard,
    flow_series_trees,
    load_field,
    parse_point,
    rk_series_direct,
    rk_series_trees,
)
from .trees import enumerate_by_leaf, format_tree, tree_factorial
from .verify import TableauError, load_tableau, verify_order

SCHEMA = "butcher-kit/1"

_ORACLE_DEGREE_CAP = 6

# Size caps, refused with exit 2 before any work starts.  Every subcommand
# works per tree, and there are about 3x more trees per order: through order
# 14 (53,272 trees) the heaviest, `conditions --generic --format json`, takes
# 3.5 s and 150 MB on a 2-core Xeon.
_ORDER_CAP = 14
# conditions without --generic: a full A has S^2 variables (--order 2
# --stages 100: 0.5 s, 28 MB).
_STAGES_CAP = 100
# Rooted trees of each order 1..14 (OEIS A000081).
_TREES_OF_ORDER = (1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486, 32973)


def _condition_size(order: int, stages: int, flags: GenerationFlags) -> tuple[int, int]:
    """(size estimate, cap) of the order-P conditions without --generic.

    A condition sums over k stage indices: k = P, or P - 1 when leaves are
    written as c[i].  The estimate is trees_of_order(P) times S^k index
    choices, or C(S + k - 1, k) with explicit A, where every index lies
    below its parent's.  A leaf written as c[i] costs one variable, not a row
    sum, hence the larger cap with --subst-c.  Measured on a 2-core Xeon,
    accepted sizes near the caps take 20-36 s and 200-360 MB (--order 6
    --stages 6; --order 8 --stages 8 --explicit; --order 6 --stages 13
    --subst-c), refused ones just above them 44-80 s and 560-660 MB
    (--order 7 --stages 5; --order 6 --stages 14 --subst-c).
    """
    k = order - 1 if flags.substitute_c else order
    choices = math.comb(stages + k - 1, k) if flags.explicit else stages**k
    cap = 10_000_000 if flags.substitute_c else 1_000_000
    return _TREES_OF_ORDER[order - 1] * choices, cap


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="butcher-kit",
        description="Rooted trees, Runge-Kutta order conditions, and exact "
        "verification of Butcher tableaus.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    trees_parser = subparsers.add_parser(
        "trees", help="list all rooted trees of order 1 through P"
    )
    order_help = f"highest tree order, 1..{_ORDER_CAP}"
    trees_parser.add_argument(
        "--order", type=int, required=True, metavar="P", help=order_help
    )
    trees_parser.add_argument(
        "--format", choices=("bracket", "json"), default="bracket"
    )

    count_parser = subparsers.add_parser(
        "count", help="tree counts per order and their total"
    )
    count_parser.add_argument(
        "--order", type=int, required=True, metavar="P", help=order_help
    )

    conditions_parser = subparsers.add_parser(
        "conditions", help="order conditions for trees of order 1 through P"
    )
    conditions_parser.add_argument(
        "--order", type=int, required=True, metavar="P", help=order_help
    )
    conditions_parser.add_argument(
        "--stages",
        type=int,
        metavar="S",
        help=f"1..{_STAGES_CAP}; larger P need fewer stages",
    )
    conditions_parser.add_argument(
        "--explicit",
        action="store_true",
        help="drop weights a[i,j] with j >= i and fix c[1] = 0",
    )
    conditions_parser.add_argument(
        "--subst-c",
        action="store_true",
        help="write sum_j a[i,j] as c[i] under leaves",
    )
    conditions_parser.add_argument(
        "--format", choices=("text", "latex", "json"), default="text"
    )
    conditions_parser.add_argument(
        "--generic",
        action="store_true",
        help="print nested-sum conditions for symbolic stage count instead",
    )

    verify_parser = subparsers.add_parser(
        "verify", help="check what order a tableau document achieves"
    )
    verify_parser.add_argument("tableau", help="path to a tableau JSON document")
    verify_parser.add_argument(
        "--max-order", type=int, required=True, metavar="P", help=order_help
    )
    verify_parser.add_argument(
        "--require-order",
        type=int,
        metavar="Q",
        help="exit 0 only if the achieved order is at least Q (default: P)",
    )
    verify_parser.add_argument("--mode", choices=("exact", "float"), default="exact")
    verify_parser.add_argument(
        "--tol",
        type=float,
        default=1e-12,
        help="residual tolerance in float mode (default 1e-12)",
    )
    verify_parser.add_argument("--format", choices=("text", "json"), default="text")

    oracle_parser = subparsers.add_parser(
        "oracle",
        help="expand exact and discrete flows two independent ways and compare",
    )
    oracle_parser.add_argument("field", help="path to a vector-field JSON document")
    oracle_parser.add_argument(
        "--x0", required=True, help="expansion point, comma-separated rationals"
    )
    oracle_parser.add_argument(
        "--p", type=int, required=True, metavar="P", help="truncation degree, 0..6"
    )
    oracle_parser.add_argument(
        "--tableau", help="also expand one step of this tableau document"
    )
    oracle_parser.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _require_order(value: int, flag: str) -> None:
    _require(value >= 1, f"{flag} must be >= 1")
    _require(value <= _ORDER_CAP, f"{flag} must be <= {_ORDER_CAP}")


def _emit_json(document: dict) -> None:
    print(json.dumps(document, indent=2))


def _cmd_trees(args: argparse.Namespace) -> int:
    _require_order(args.order, "--order")
    forest = enumerate_by_leaf(args.order)
    if args.format == "bracket":
        for q in range(1, args.order + 1):
            for tree in forest.trees_of_order(q):
                print(format_tree(tree))
        return 0
    orders = []
    for q in range(1, args.order + 1):
        row = [format_tree(tree) for tree in forest.trees_of_order(q)]
        orders.append({"order": q, "count": len(row), "trees": row})
    _emit_json(
        {
            "schema": SCHEMA,
            "max_order": args.order,
            "total": forest.total(),
            "orders": orders,
        }
    )
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    _require_order(args.order, "--order")
    forest = enumerate_by_leaf(args.order)
    for q, n in enumerate(forest.counts(), start=1):
        print(f"order {q}: {n}")
    print(f"total: {forest.total()}")
    return 0


def _cmd_conditions(args: argparse.Namespace) -> int:
    _require_order(args.order, "--order")
    if args.generic:
        rows = []
        forest = enumerate_by_leaf(args.order)
        for q in range(1, args.order + 1):
            for tree in forest.trees_of_order(q):
                rhs = Fraction(1, tree_factorial(tree))
                rows.append((tree, q, render_generic(tree), rhs))
        if args.format == "json":
            _emit_json(
                {
                    "schema": SCHEMA,
                    "max_order": args.order,
                    "generic": True,
                    "conditions": [
                        {
                            "tree": format_tree(tree),
                            "order": q,
                            "lhs": lhs,
                            "rhs": format_rational(rhs),
                        }
                        for tree, q, lhs, rhs in rows
                    ],
                }
            )
        else:
            for _, _, lhs, rhs in rows:
                print(f"{lhs} == {format_rational(rhs)}")
        return 0

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
    conditions = all_order_conditions(args.order, args.stages, flags)
    if args.format == "json":
        _emit_json(
            {
                "schema": SCHEMA,
                "max_order": args.order,
                "stages": args.stages,
                "explicit": args.explicit,
                "subst_c": args.subst_c,
                "generic": False,
                "conditions": [
                    {
                        "tree": format_tree(condition.tree),
                        "order": condition.order,
                        "lhs": condition.lhs.render("plain"),
                        "rhs": format_rational(condition.rhs),
                    }
                    for condition in conditions
                ],
            }
        )
    else:
        style = "latex" if args.format == "latex" else "plain"
        for condition in conditions:
            print(condition.render(style))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    _require_order(args.max_order, "--max-order")
    required = args.require_order if args.require_order is not None else args.max_order
    _require(required >= 1, "--require-order must be >= 1")
    _require(
        required <= args.max_order, "--require-order cannot exceed --max-order"
    )
    _require(args.tol >= 0, "--tol must be >= 0")
    tableau = load_tableau(Path(args.tableau).read_text())
    report = verify_order(tableau, args.max_order, mode=args.mode, tol=args.tol)
    if args.format == "json":
        _emit_json({"schema": SCHEMA, **report.to_mapping()})
    else:
        print(report.render_text())
    return 0 if report.achieved_order >= required else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    _require(0 <= args.p <= _ORACLE_DEGREE_CAP, "--p must be between 0 and 6")
    field = load_field(Path(args.field).read_text())
    point = parse_point(args.x0, field.dim)

    flow_trees = flow_series_trees(field, point, args.p)
    flow_picard = flow_series_picard(field, point, args.p)
    flow_split = flow_trees.first_difference(flow_picard)

    tableau = None
    discrete_trees = discrete_direct = None
    discrete_split = None
    if args.tableau is not None:
        tableau = load_tableau(Path(args.tableau).read_text())
        discrete_trees = rk_series_trees(tableau, field, point, args.p)
        discrete_direct = rk_series_direct(tableau, field, point, args.p)
        discrete_split = discrete_trees.first_difference(discrete_direct)

    agree = flow_split is None and discrete_split is None

    if args.format == "json":
        document = {
            "schema": SCHEMA,
            "field": args.field,
            "dim": field.dim,
            "x0": [format_rational(x) for x in point],
            "degree": args.p,
            "flow": {
                "trees": flow_trees.to_mapping(),
                "picard": flow_picard.to_mapping(),
                "agree": flow_split is None,
                "first_difference": flow_split,
            },
        }
        if tableau is not None:
            document["discrete"] = {
                "tableau": tableau.name,
                "trees": discrete_trees.to_mapping(),
                "direct": discrete_direct.to_mapping(),
                "agree": discrete_split is None,
                "first_difference": discrete_split,
            }
            document["flow_vs_discrete_first_difference"] = (
                flow_trees.first_difference(discrete_trees)
            )
        _emit_json(document)
        return 0 if agree else 1

    # The whole report is built before any of it is printed: a value too
    # big to format then leaves stdout empty on exit 2.
    point_text = ", ".join(format_rational(x) for x in point)
    lines = [
        f"field: {args.field} (dim {field.dim})",
        f"x0: ({point_text})",
        f"degree: {args.p}",
        "flow series:",
        flow_trees.render_text(),
        "flow trees vs picard: "
        + ("agree" if flow_split is None else f"MISMATCH at degree {flow_split}"),
    ]
    if tableau is not None:
        kind = "explicit" if tableau.explicit else "implicit"
        name = tableau.name or "(unnamed)"
        versus_flow = flow_trees.first_difference(discrete_trees)
        lines += [
            f"tableau: {name} ({tableau.stages} stages, {kind})",
            "discrete series:",
            discrete_trees.render_text(),
            "discrete trees vs direct: "
            + ("agree" if discrete_split is None else f"MISMATCH at degree {discrete_split}"),
            (
                f"flow vs discrete: no difference through degree {args.p}"
                if versus_flow is None
                else f"flow vs discrete: first difference at degree {versus_flow}"
            ),
        ]
    print("\n".join(lines))
    return 0 if agree else 1


_COMMANDS = {
    "trees": _cmd_trees,
    "count": _cmd_count,
    "conditions": _cmd_conditions,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        parsed = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the diagnostic
        return int(exc.code or 0)
    try:
        return _COMMANDS[parsed.subcommand](parsed)
    except (TableauError, FieldError, FieldSyntaxError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
