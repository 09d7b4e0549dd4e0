"""End-to-end acceptance checks, one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines; every
comparison is exact (Fraction or integer equality), and the two runtime
bounds are wall-clock.
"""

import math
import random
import time
from fractions import Fraction

from helpers import (
    BUTCHER6_SAMPLES,
    butcher6,
    explicit_euler,
    implicit_midpoint,
    rk4,
    trees_by_grafting,
)

from butcher_kit.algebra import format_rational
from butcher_kit.conditions import GenerationFlags, all_order_conditions
from butcher_kit.oracle import (
    PolyVectorField,
    flow_series_picard,
    flow_series_trees,
    rk_series_direct,
    rk_series_trees,
)
from butcher_kit.trees import alpha, enumerate_by_leaf, parse_tree, tree_factorial
from butcher_kit.verify import verify_order, weight_value

F = Fraction


def _report(number: int, description: str, passed: bool) -> None:
    marker = "PASS" if passed else "FAIL"
    print(f"{marker} criterion {number}: {description}")
    assert passed, f"criterion {number}: {description}"


# Seeded sample of small polynomial fields, dim 2, total degree <= 2.
_EXPONENTS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _sample_fields(count: int, seed: int = 20260822):
    rng = random.Random(seed)
    samples = []
    for _ in range(count):
        components = []
        for _ in range(2):
            terms = {}
            for exponents in _EXPONENTS:
                if rng.random() < 0.6:
                    terms[exponents] = F(rng.randint(-3, 3), rng.randint(1, 4))
            if not any(terms.values()):
                terms[(1, 0)] = F(1)
            components.append(terms)
        field = PolyVectorField(2, tuple(components))
        point = tuple(F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(2))
        samples.append((field, point))
    return samples


def test_criterion_01_tree_counts():
    start = time.monotonic()
    forest = enumerate_by_leaf(10)
    counts = forest.counts()
    elapsed = time.monotonic() - start
    ok = (
        counts == (1, 1, 2, 4, 9, 20, 48, 115, 286, 719)
        and forest.total() == 1205
        and elapsed < 10.0
    )
    _report(
        1,
        f"orders 1..10 count {counts} with total {forest.total()} "
        f"in {elapsed:.2f}s",
        ok,
    )


def test_criterion_02_enumeration_cross_oracle():
    ok = tuple(enumerate_by_leaf(8).groups()) == trees_by_grafting(8)
    _report(2, "canonical enumeration and leaf grafting agree for p <= 8", ok)


def test_criterion_03_worked_example_triple():
    tree = parse_tree("[[[[]],[[]],[]],[]]")
    ok = (
        tree.order == 8
        and tree_factorial(tree) == 192
        and alpha(tree) == F(1, 2)
    )
    _report(
        3,
        f"worked tree has order {tree.order}, factorial {tree_factorial(tree)}, "
        f"alpha {format_rational(alpha(tree))}",
        ok,
    )


def test_criterion_04_classical_condition_block():
    flags = GenerationFlags(explicit=True, substitute_c=True)
    conditions = all_order_conditions(4, 4, flags)
    rendered = {
        f"{condition.lhs.render('plain')} == {format_rational(condition.rhs)}"
        for condition in conditions
    }
    golden = {
        "b[1] + b[2] + b[3] + b[4] == 1",
        "b[2]*c[2] + b[3]*c[3] + b[4]*c[4] == 1/2",
        "b[2]*c[2]^2 + b[3]*c[3]^2 + b[4]*c[4]^2 == 1/3",
        "b[3]*c[2]*a[3,2] + b[4]*c[2]*a[4,2] + b[4]*c[3]*a[4,3] == 1/6",
        "b[2]*c[2]^3 + b[3]*c[3]^3 + b[4]*c[4]^3 == 1/4",
        "b[3]*c[2]*c[3]*a[3,2] + b[4]*c[2]*c[4]*a[4,2] + b[4]*c[3]*c[4]*a[4,3] == 1/8",
        "b[3]*c[2]^2*a[3,2] + b[4]*c[2]^2*a[4,2] + b[4]*c[3]^2*a[4,3] == 1/12",
        "b[4]*c[2]*a[3,2]*a[4,3] == 1/24",
    }
    rhs_values = sorted(format_rational(condition.rhs) for condition in conditions)
    ok = rendered == golden and rhs_values == sorted(
        ["1", "1/2", "1/6", "1/24", "1/12", "1/3", "1/8", "1/4"]
    )
    _report(4, "explicit 4-stage conditions through order 4 match the golden block", ok)


def test_criterion_05_rk4_order_and_bushy_residual():
    tableau = rk4()
    report = verify_order(tableau, 5)
    bushy = parse_tree("[[],[],[],[]]")
    direct_sum = sum(
        (tableau.b[i] * tableau.c[i] ** 4 for i in range(4)), F(0)
    )
    bushy_weight = tableau.elementary_weights().weight(bushy)
    ok = (
        report.achieved_order == 4
        and bushy_weight - F(1, tree_factorial(bushy)) == F(1, 120)
        and weight_value(tableau, bushy) == direct_sum
        and direct_sum - F(1, 5) == F(1, 120)
        and any(
            entry.tree == bushy and not entry.passed and entry.residual == F(1, 120)
            for entry in report.residuals
        )
    )
    _report(5, "classical RK4 achieves exactly order 4; bushy residual 1/120", ok)


def test_criterion_06_butcher_family_order_5():
    start = time.monotonic()
    ok = len(set(BUTCHER6_SAMPLES)) == 3 and all(u != 0 for u, _ in BUTCHER6_SAMPLES)
    for u, v in BUTCHER6_SAMPLES:
        report = verify_order(butcher6(u, v), 6)
        ok = ok and report.achieved_order == 5
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _report(
        6,
        f"6-stage family reaches exactly order 5 at three (u, v) in {elapsed:.2f}s",
        ok,
    )


def test_criterion_07_flow_series_routes_agree():
    samples = _sample_fields(20)
    ok = len(samples) >= 20
    for field, point in samples:
        if flow_series_trees(field, point, 5) != flow_series_picard(field, point, 5):
            ok = False
    _report(7, "tree and Picard flow series agree exactly through tau^5 on 20 fields", ok)


def test_criterion_08_discrete_series_routes_agree():
    samples = _sample_fields(20)
    tableaus = (
        explicit_euler(),
        implicit_midpoint(),
        rk4(),
        butcher6(*BUTCHER6_SAMPLES[0]),
    )
    ok = True
    for field, point in samples:
        for tableau in tableaus:
            trees = rk_series_trees(tableau, field, point, 5)
            direct = rk_series_direct(tableau, field, point, 5)
            if trees != direct:
                ok = False
    _report(
        8,
        "tree and fixed-point discrete series agree exactly through tau^5 "
        "for all four tableaus",
        ok,
    )


def test_criterion_09_flow_vs_discrete_split_at_order_plus_one():
    samples = _sample_fields(6, seed=20260825)
    ok = True
    for tableau, order in (
        (explicit_euler(), 1),
        (implicit_midpoint(), 2),
        (rk4(), 4),
        (butcher6(F(2, 5), F(1, 3)), 5),
    ):
        witnessed = False
        for field, point in samples:
            flow = flow_series_trees(field, point, order + 1)
            discrete = rk_series_trees(tableau, field, point, order + 1)
            split = flow.first_difference(discrete)
            if split is not None and split <= order:
                ok = False  # would contradict the achieved order
            if split == order + 1:
                witnessed = True
        ok = ok and witnessed
    _report(
        9,
        "each tableau matches the flow through its order and splits at the "
        "next degree on a sampled field",
        ok,
    )


def test_criterion_10_labeling_identity():
    forest = enumerate_by_leaf(10)
    ok = True
    for q in range(1, 11):
        total = sum(
            (
                alpha(tree) * math.factorial(q) / tree_factorial(tree)
                for tree in forest.trees_of_order(q)
            ),
            F(0),
        )
        if total != math.factorial(q - 1):
            ok = False
    _report(10, "sum of alpha * q!/factorial over order q equals (q-1)! for q <= 10", ok)
