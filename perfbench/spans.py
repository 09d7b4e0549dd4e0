"""Spans and counts recorded around the program's public calls.

The tracer never edits the program's files: install() swaps the names
that butcher_kit.cli uses to reach the library, and the verify and oracle
functions the oracle jobs call through their modules, for timed wrappers;
uninstall() puts the originals back.

Where a library function calls another layer internally (verify_order and
all_order_conditions enumerate the forest, the tree routes of the oracle
evaluate factors, weights and elementary differentials), the inner work
is timed again after the job, with the same arguments, and recorded as an
"estimated" child of the outer span.  The outer span's self time is then
its duration minus those children, an estimate.  That re-timing runs
outside the job's timed window.

Calls that happen once per tree (format_tree, tree_factorial, rendering)
are folded into one record per job, name and parent, with a call count.
"""

from __future__ import annotations

import time
import traceback
from collections import defaultdict

import butcher_kit.cli as cli
from butcher_kit import algebra, oracle, trees, verify


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = defaultdict(int)
        self.job: str | None = None
        self._stack: list[dict] = []
        self._folded: dict[tuple, dict] = {}
        self._deferred: list = []
        self.missing: list[str] = []  # jobs whose after-job work failed
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _record(self, name: str, start: float, end: float, parent, estimated=False) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "job": self.job,
            "parent": parent,
            "start": start,
            "end": end,
            "busy": end - start,
            "calls": 1,
            "estimated": estimated,
        }
        self.spans.append(span)
        return span

    def _parent(self):
        return self._stack[-1]["id"] if self._stack else None

    def spanned(self, name: str, fn, after=None):
        """Wrap fn in a span; after(span, args, result) runs post-job."""

        def wrapper(*args, **kwargs):
            span = self._record(name, time.perf_counter(), 0.0, self._parent())
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end"] = time.perf_counter()
                span["busy"] = span["end"] - span["start"]
            if after is not None:
                self._deferred.append(lambda: after(span, args, result))
            return result

        return wrapper

    def folded(self, name: str, fn):
        """Wrap a per-tree call: one record per (job, name, parent)."""

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                key = (self.job, name, self._parent())
                record = self._folded.get(key)
                if record is None:
                    record = self._record(name, start, end, key[2])
                    self._folded[key] = record
                else:
                    record["end"] = end
                    record["busy"] += end - start
                    record["calls"] += 1

        return wrapper

    def inner(self, name: str, parent: dict, fn, *args):
        """Time fn(*args) again, outside the job, as an estimated child."""
        start = time.perf_counter()
        result = fn(*args)
        self._record(name, start, time.perf_counter(), parent["id"], estimated=True)
        return result

    def run_deferred(self) -> str | None:
        """Run the current job's after-job work: a failure message or None.

        On a failure the job's estimated spans and counts are dropped, so
        its outer self times read as whole calls, and the job is listed in
        `missing`.
        """
        pending, self._deferred = self._deferred, []
        first = len(self.spans)
        counts, maxima = dict(self.counts), dict(self.maxima)
        try:
            for task in pending:
                task()
        except Exception:
            del self.spans[first:]
            self.counts = defaultdict(float, counts)
            self.maxima = defaultdict(int, maxima)
            self.missing.append(self.job)
            return traceback.format_exc(limit=8)
        return None

    # -- patching ------------------------------------------------------

    def _swap(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        spanned, folded = self.spanned, self.folded
        plan = {
            "main": spanned("cli.main", cli.main),
            "build_parser": folded("cli.parse", self._timed_parser(cli.build_parser)),
            "enumerate_by_leaf": spanned("trees.enumerate", cli.enumerate_by_leaf, self._after_enumerate),
            "format_tree": folded("trees.format", cli.format_tree),
            "tree_factorial": folded("trees.factors", cli.tree_factorial),
            "format_rational": folded("algebra.render", cli.format_rational),
            "render_generic": folded("conditions.render_generic", cli.render_generic),
            "all_order_conditions": spanned(
                "conditions.all_order_conditions", cli.all_order_conditions, self._after_conditions
            ),
        }
        for attr, wrapper in plan.items():
            self._swap(cli, attr, wrapper)
        library = (
            (verify, "load_tableau", "verify.load", None),
            (verify, "verify_order", "verify.order", self._after_verify),
            (oracle, "load_field", "oracle.load", None),
            (oracle, "parse_point", "oracle.load", None),
            (oracle, "flow_series_trees", "oracle.flow_trees", self._after_flow_trees),
            (oracle, "flow_series_picard", "oracle.flow_picard", None),
            (oracle, "rk_series_trees", "oracle.rk_trees", self._after_rk_trees),
            (oracle, "rk_series_direct", "oracle.rk_direct", None),
        )
        for module, attr, name, after in library:
            wrapper = spanned(name, getattr(module, attr), after)
            self._swap(cli, attr, wrapper)
            self._swap(module, attr, wrapper)
        self._swap(algebra.CoeffPolynomial, "render", folded("algebra.render", algebra.CoeffPolynomial.render))
        for attr in ("render_text", "to_mapping"):
            self._swap(verify.OrderReport, attr, folded("verify.report", getattr(verify.OrderReport, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _timed_parser(self, build):
        def build_timed():
            parser = build()
            parser.parse_args = self.folded("cli.parse", parser.parse_args)
            return parser

        return build_timed

    # -- inner work and counts, run after each job ---------------------

    def _forest(self, span, max_order: int):
        forest = self.inner("trees.enumerate", span, trees.enumerate_by_leaf, max_order)
        self.counts["trees.enumerated"] += forest.total()
        return forest

    def _factors(self, span, tree_list, *functions) -> None:
        def evaluate():
            for tree in tree_list:
                for function in functions:
                    function(tree)

        self.inner("trees.factors", span, evaluate)

    def _after_enumerate(self, span, args, forest) -> None:
        self.counts["trees.enumerated"] += forest.total()

    def _after_conditions(self, span, args, conditions) -> None:
        forest = self._forest(span, args[0])
        self._factors(span, forest, trees.tree_factorial)
        self.counts["conditions.attempted"] += forest.total()
        self.counts["conditions.emitted"] += len(conditions)
        for condition in conditions:
            terms = condition.lhs.sorted_terms()
            self.counts["algebra.terms_total"] += len(terms)
            self.maxima["algebra.terms_max"] = max(self.maxima["algebra.terms_max"], len(terms))
            for _, coeff in terms:
                bits = max(coeff.numerator.bit_length(), coeff.denominator.bit_length())
                if bits > self.maxima["algebra.coeff_bits_max"]:
                    self.maxima["algebra.coeff_bits_max"] = bits

    def _after_verify(self, span, args, report) -> None:
        self._forest(span, args[1])
        self._factors(span, [entry.tree for entry in report.residuals], trees.tree_factorial)
        self.counts["verify.trees_checked"] += len(report.residuals)
        for entry in report.residuals:
            weight = entry.weight
            bits = max(weight.numerator.bit_length(), weight.denominator.bit_length())
            self.maxima["verify.weight_bits_max"] = max(self.maxima["verify.weight_bits_max"], bits)

    def _after_flow_trees(self, span, args, series) -> None:
        field, point, degree = args
        forest = list(self._forest(span, degree))
        self._factors(span, forest, trees.alpha, trees.tree_factorial)
        self._differentials(span, field, point, forest)

    def _after_rk_trees(self, span, args, series) -> None:
        tableau, field, point, degree = args
        forest = list(self._forest(span, degree))
        self._factors(span, forest, trees.alpha)
        weights = self.inner(
            "verify.weight", span, lambda: [verify.weight_value(tableau, tree) for tree in forest]
        )
        nonzero = [tree for tree, weight in zip(forest, weights) if weight and trees.alpha(tree)]
        self.counts["oracle.trees_attempted"] += len(forest)
        self.counts["oracle.trees_nonzero"] += len(nonzero)
        self._differentials(span, field, point, nonzero)

    def _differentials(self, span, field, point, tree_list) -> None:
        def evaluate():
            memo: dict = {}
            for tree in tree_list:
                oracle.elementary_differential(field, tree, point, memo)

        self.inner("oracle.differential", span, evaluate)

    # -- summaries -----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Busy time minus the busy time of direct children, per span id."""
        child_busy: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_busy[span["parent"]] += span["busy"]
        return {span["id"]: span["busy"] - child_busy[span["id"]] for span in self.spans}

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: summed busy time and summed self time."""
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"busy": 0.0, "self": 0.0, "calls": 0})
        for span in self.spans:
            entry = out[span["name"]]
            entry["busy"] += span["busy"]
            entry["self"] += selfs[span["id"]]
            entry["calls"] += span["calls"]
        return dict(out)
