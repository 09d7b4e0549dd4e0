"""Seeded inputs for the benchmark: tableau and field documents, job lists.

Everything here is a pure function of the seed, so the same seed gives the
same job list.  The program under test sees only the generated argv and the
JSON documents written by write_documents().

Tableaus of known exact order:
  * extrapolated explicit Euler over k distinct step numbers is an explicit
    RK method of exact order k; over 1..k it has 1 + k(k-1)/2 stages
    (Hairer, Norsett and Wanner I, section II.9);
  * butcher6(u, v), the two-parameter family of 6-stage order-5 methods
    (u nonzero);
  * kutta4(u, v), the two-node family of 4-stage order-4 methods, and rk4.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

F = Fraction

# OEIS A000081: number of rooted trees with n nodes, n = 1..12.
A000081 = (1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766)

# Canonical order of the `conditions` flag families; digests.json is keyed
# by the argv these produce.
CONDITION_FAMILIES = (
    ("--explicit", "--subst-c"),
    ("--explicit",),
    ("--subst-c",),
    (),
)
CONDITION_FORMATS = ("text", "latex", "json")


def extrapolated_euler(steps) -> dict:
    """Aitken-Neville extrapolation of explicit Euler over the step numbers.

    Sequence j takes n_j Euler steps of size h/n_j; it shares the first
    stage f(y0) with every other sequence and adds n_j - 1 stages of its
    own.  The extrapolation weights come from interpolating in h_j = 1/n_j
    at h = 0: gamma_j = prod over i != j of n_j / (n_j - n_i).  With k
    distinct step numbers the method has exact order k.
    """
    steps = tuple(steps)
    stages = 1 + sum(n - 1 for n in steps)
    a = [[F(0)] * stages for _ in range(stages)]
    b = [F(0)] * stages
    next_stage = 1
    for n in steps:
        gamma = math.prod(F(n, n - other) for other in steps if other != n)
        own = list(range(next_stage, next_stage + n - 1))
        next_stage += n - 1
        chain = [0] + own  # stages whose slopes this sequence sums, in step order
        for m, stage in enumerate(own, start=1):
            for earlier in chain[:m]:
                a[stage][earlier] = F(1, n)
        for stage in chain:
            b[stage] += gamma / n
    return _tableau_document(f"extrapolated euler n={','.join(map(str, steps))}", a, b)


def step_numbers(k: int, extra: int) -> list[tuple[int, ...]]:
    """Every set of k distinct step numbers summing to k(k+1)/2 + extra.

    They all give 1 + k(k-1)/2 + extra stages; extra = 0 is 1..k.
    """
    target = k * (k + 1) // 2 + extra
    return [c for c in itertools.combinations(range(1, k + extra + 1), k) if sum(c) == target]


def butcher6(u: Fraction, v: Fraction) -> dict:
    """The classical 6-stage order-5 family; u must be nonzero."""
    if u == 0:
        raise ValueError("u must be nonzero")
    z = F(0)
    a = [
        [z, z, z, z, z, z],
        [u, z, z, z, z, z],
        [(-1 + 8 * u) / (32 * u), 1 / (32 * u), z, z, z, z],
        [(-1 + 4 * u + 2 * v - 8 * u * v) / (8 * u), (1 - 2 * v) / (8 * u), v, z, z, z],
        [
            3 * (1 - 3 * u - v + 4 * u * v) / (16 * u),
            3 * (-1 + v) / (16 * u),
            -F(3, 4) * (-1 + v),
            F(9, 16),
            z,
            z,
        ],
        [
            (-7 + 22 * u + 6 * v - 24 * u * v) / (14 * u),
            (7 - 6 * v) / (14 * u),
            F(12, 7) * v,
            -F(12, 7),
            F(8, 7),
            z,
        ],
    ]
    b = [F(7, 90), z, F(16, 45), F(2, 15), F(16, 45), F(7, 90)]
    c = [z, u, F(1, 4), F(1, 2), F(3, 4), F(1)]
    return _tableau_document(f"butcher6 u={u} v={v}", a, b, c)


def rk4() -> dict:
    h = F(1, 2)
    a = [[0, 0, 0, 0], [h, 0, 0, 0], [0, h, 0, 0], [0, 0, 1, 0]]
    return _tableau_document("rk4", a, [F(1, 6), F(1, 3), F(1, 3), F(1, 6)])


def kutta4(u: Fraction, v: Fraction) -> dict:
    """The 4-stage order-4 family with nodes 0, u, v, 1 (Hairer, Norsett and
    Wanner I, section II.1, case I): u, v distinct, neither 0 nor 1, u not
    1/2, and 6uv - 4(u + v) + 3 nonzero.  u, v = 1/3, 2/3 is the 3/8 rule."""
    d = 6 * u * v - 4 * (u + v) + 3
    b = [
        F(1, 2) + (1 - 2 * (u + v)) / (12 * u * v),
        (2 * v - 1) / (12 * u * (v - u) * (1 - u)),
        (1 - 2 * u) / (12 * v * (v - u) * (1 - v)),
        F(1, 2) + (2 * (u + v) - 3) / (12 * (1 - u) * (1 - v)),
    ]
    a32 = v * (v - u) / (2 * u * (1 - 2 * u))
    a42 = (1 - u) * (u + v - 1 - (2 * v - 1) ** 2) / (2 * u * (v - u) * d)
    a43 = (1 - 2 * u) * (1 - u) * (1 - v) / (v * (v - u) * d)
    z = F(0)
    a = [[z] * 4, [u, z, z, z], [v - a32, a32, z, z], [1 - a42 - a43, a42, a43, z]]
    return _tableau_document(f"kutta4 u={u} v={v}", a, b, [z, u, v, F(1)])


# kutta4 members of the oracle workload's p=8 class.
_ORACLE_KUTTA4 = (
    (F(1, 4), F(3, 4)),
    (F(1, 5), F(4, 5)),
    (F(2, 5), F(3, 5)),
    (F(1, 3), F(1, 2)),
    (F(1, 6), F(5, 6)),
    (F(3, 4), F(1, 4)),
)
# Node pairs of kutta4 the forest workload draws from.
_NODES = (F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(1, 5), F(2, 5), F(3, 5), F(4, 5), F(1, 6), F(5, 6))
KUTTA4_PAIRS = tuple(
    (u, v)
    for u, v in itertools.permutations(_NODES + (F(1, 2),), 2)
    if u != F(1, 2) and 6 * u * v - 4 * (u + v) + 3 != 0
)


def _tableau_document(name, a, b, c=None) -> dict:
    document = {
        "name": name,
        "stages": len(b),
        "A": [[str(F(x)) for x in row] for row in a],
        "b": [str(F(x)) for x in b],
    }
    if c is not None:
        document["c"] = [str(F(x)) for x in c]
    return document


# Small rationals only: bit growth with the seed stays modest, so the cost
# of a job moves little from seed to seed.
_SIMPLE = (F(1), F(2), F(3), F(1, 2), F(1, 3), F(2, 3), F(3, 2), F(1, 4), F(3, 4))


# The oracle's cold subset runs on this field at these points, whatever the
# seed.
FIXED_FIELD = {"dim": 2, "components": ["-x1^3 + 1/2*x1*x2 + x2 - 1", "x1^2*x2 - 2/3*x1^2 + 3/2*x2 + 2"]}
FIXED_X0 = ("1/2,-1", "-1,1/2", "1/3,2")


def _small_rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    if not nonzero and rng.random() < 0.1:
        return F(0)
    return rng.choice((1, -1)) * rng.choice(_SIMPLE)


# The monomials of the oracle's fields, one term of each degree 0..3 per
# component.  Which elementary differentials vanish, and so most of a job's
# cost, follows from them.  Some monomial sets make the cost swing with the
# coefficients; over six seeds of coefficients the cost of one job on these
# varied by 3-5% (standard deviation over mean).
FIELD_MONOMIALS = {
    2: (
        ((3, 0), (0, 2), (1, 0), (0, 0)),
        ((0, 3), (1, 1), (0, 1), (0, 0)),
    ),
    3: (
        ((1, 0, 2), (2, 0, 0), (1, 0, 0), (0, 0, 0)),
        ((2, 0, 1), (1, 0, 1), (0, 0, 1), (0, 0, 0)),
        ((1, 1, 1), (2, 0, 0), (0, 1, 0), (0, 0, 0)),
    ),
}


def random_field(rng: random.Random, dim: int) -> tuple[dict, str]:
    """A field on FIELD_MONOMIALS[dim] with seeded nonzero coefficients, and x0 text."""
    components = [
        _component_text({exponents: _small_rational(rng, nonzero=True) for exponents in monomials})
        for monomials in FIELD_MONOMIALS[dim]
    ]
    x0 = ",".join(str(_small_rational(rng, nonzero=True)) for _ in range(dim))
    return {"dim": dim, "components": components}, x0


def _component_text(terms: dict) -> str:
    pieces = []
    for exponents, coeff in sorted(terms.items(), reverse=True):
        factors = [str(abs(coeff))] if abs(coeff) != 1 or not any(exponents) else []
        for index, power in enumerate(exponents, start=1):
            if power:
                factors.append(f"x{index}" + (f"^{power}" if power > 1 else ""))
        sign = "-" if coeff < 0 else "+"
        pieces.append((sign, "*".join(factors)))
    text = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def _distinct_butcher6(rng: random.Random, count: int) -> list[tuple[Fraction, Fraction]]:
    pairs: list[tuple[Fraction, Fraction]] = []
    while len(pairs) < count:
        pair = (_small_rational(rng, nonzero=True), _small_rational(rng))
        if pair not in pairs:
            pairs.append(pair)
    return pairs


_FULL_A_CELLS = {(4, 3), (4, 4), (4, 5), (4, 6), (5, 3), (5, 4), (6, 3)}
# --subst-c makes full A a few times cheaper, so it goes further.
_FULL_A_SUBST_C_CELLS = _FULL_A_CELLS | {(5, 5), (5, 6), (6, 4), (6, 5)}
# The seven heaviest cells, 0.13-0.4 s; p90 falls among the two of about
# 0.18 s.
_TAIL_CELLS = {
    (6, 3, ()),
    (6, 5, ("--subst-c",)),
    (5, 4, ()),
    (6, 6, ("--explicit",)),
    (6, 4, ("--subst-c",)),
    (4, 6, ()),
    (5, 6, ("--subst-c",)),
}


def argv_key(argv: list[str]) -> str:
    """How digests.json names an argv."""
    return " ".join(argv)


def conditions_argv(order: int, stages: int, family: tuple, fmt: str) -> list[str]:
    return ["conditions", "--order", str(order), "--stages", str(stages), *family, "--format", fmt]


def conditions_space() -> list[tuple[int, int, tuple]]:
    """Every (order, stages, family) the conditions workload draws from.

    Full A stops at order 5 with 4 stages and order 6 with 3 stages
    (thousands of terms), and with --subst-c at order 5 with 6 stages and
    order 6 with 5 stages.  Larger full-A jobs run for a second or more, and
    on a host whose speed changes within a second their times spread by
    +-30% from run to run however they are normalised.
    """
    cells = []
    for order in (4, 5, 6):
        for stages in (3, 4, 5, 6):
            for family in CONDITION_FAMILIES:
                if "--explicit" not in family:
                    allowed = _FULL_A_SUBST_C_CELLS if "--subst-c" in family else _FULL_A_CELLS
                    if (order, stages) not in allowed:
                        continue
                cells.append((order, stages, family))
    return cells


def forest_argvs() -> list[list[str]]:
    """Every CLI argv the forest workload draws from, except verify jobs."""
    argvs = [["count", "--order", str(p)] for p in (11, 12)]
    argvs += [["trees", "--order", str(p), "--format", f] for p in (9, 10) for f in ("bracket", "json")]
    argvs += [
        ["conditions", "--order", str(p), "--generic", "--format", f]
        for p in (8, 9, 10)
        for f in ("text", "json")
    ]
    return argvs


def job_list(workload: str, seed: int) -> tuple[list[dict], dict[str, dict]]:
    """One pass of the workload: (jobs, documents by file name).

    No two jobs of a pass make the same library call: each conditions cell,
    each tableau and each field occurs once.  Each job carries what its
    output check needs under "expect".
    """
    rng = random.Random(f"{workload}:{seed}")
    documents: dict[str, dict] = {}
    jobs: list[dict] = []

    def cli(argv, cold=False, **expect):
        jobs.append({"kind": "cli", "argv": argv, "cold": cold, "expect": expect})

    if workload == "conditions":
        # Every cell once, in a seeded format: the mix of polynomial sizes is
        # the same for every seed.  The cold subset has fixed formats, so it
        # is the same argv for every seed.  So do the heaviest cells: the
        # size of a full-A job's output, and so its time, depends on the
        # format, and these cells decide p90.
        for index, (order, stages, family) in enumerate(conditions_space()):
            cold = index % 3 == 0
            if cold:
                fmt = CONDITION_FORMATS[index // 3 % 3]
            elif (order, stages, family) in _TAIL_CELLS:
                fmt = "text"
            else:
                fmt = rng.choice(CONDITION_FORMATS)
            cli(conditions_argv(order, stages, family, fmt), cold=cold, exit=0, digest=True)
    elif workload == "verify":
        # Extrapolated Euler over step-number sets with 0-3 stages more than
        # 1..k, the seed picking among the sets of equal size: four per k,
        # six for k=5.  Class sizes put p50 inside the k=5 jobs and p90
        # inside the k=7 jobs.  The cold subset uses fixed tableaus, modes
        # and formats, so it is the same every seed: three jobs of unlike
        # cost, so that its median falls inside the middle job's times.
        cold_slots = {(4, 0): ("exact", "text"), (5, 0): ("exact", "text")}
        for k in (4, 5, 6, 7):
            extras = (0, 1, 2, 2, 3, 3) if k == 5 else (0, 1, 2, 3)
            for extra in sorted(set(extras)):
                sets = rng.sample(step_numbers(k, extra), extras.count(extra))
                for steps in sets:
                    name = f"euler_{'_'.join(map(str, steps))}.json"
                    documents[name] = extrapolated_euler(steps)
                    _verify_job(cli, rng, name, k, cold_slots.get((k, extra)))
        for index, (u, v) in enumerate(_distinct_butcher6(rng, 4)):
            name = f"butcher6_{index}.json"
            documents[name] = butcher6(u, v)
            _verify_job(cli, rng, name, 5, None)
        documents["rk4.json"] = rk4()
        _verify_job(cli, rng, "rk4.json", 4, ("exact", "text"))
    elif workload == "oracle":
        # Every job has its own tableau, fixed for every seed, and its own
        # seeded field.  Three cost classes: p=9 in dimension 3 (~1.1 s, 3
        # of 13 jobs: p90 falls among them), p=8 in dimension 3 (~0.45 s, 6
        # jobs: p50 falls among them) and p=7 jobs.  The first two classes
        # use 4-stage tableaus, which cost about the same whichever member
        # of the family they are.  The three cold jobs use a fixed field at
        # three fixed points, so the cold subset is the same every seed.
        plan = [
            (rk4(), 3, 9),
            (extrapolated_euler((1, 2, 3)), 3, 9),
            (kutta4(F(1, 3), F(2, 3)), 3, 9),
            *((kutta4(u, v), 3, 8) for u, v in _ORACLE_KUTTA4),
            (butcher6(F(1, 3), F(1, 2)), 2, 7),
        ]
        for tableau, dim, degree in plan:
            slot = len(jobs)
            documents[f"field{slot}.json"], x0 = random_field(rng, dim)
            documents[f"tableau{slot}.json"] = tableau
            jobs.append(_oracle_job(f"field{slot}.json", x0, f"tableau{slot}.json", degree, cold=False))
        documents["fixed_field.json"] = FIXED_FIELD
        cold_tableaus = (butcher6(F(2, 5), F(1, 3)), extrapolated_euler((1, 2, 4)), extrapolated_euler((1, 2, 3, 4)))
        for index, (tableau, x0) in enumerate(zip(cold_tableaus, FIXED_X0)):
            documents[f"cold{index}.json"] = tableau
            jobs.append(_oracle_job("fixed_field.json", x0, f"cold{index}.json", 7, cold=True))
    elif workload == "forest":
        cold_argvs = (
            ["count", "--order", "11"],
            ["trees", "--order", "9", "--format", "bracket"],
            ["conditions", "--order", "9", "--generic", "--format", "text"],
            ["conditions", "--order", "10", "--generic", "--format", "json"],
        )
        for argv in forest_argvs():
            if argv[0] == "count":
                cli(argv, cold=argv in cold_argvs, exit=0, counts=A000081[: int(argv[2])])
            else:
                cli(argv, cold=argv in cold_argvs, exit=0, digest=True)
        # verify enumerates the whole forest but fails at order 5, so it
        # evaluates little: exit 1 is the expected outcome.  Each job checks
        # its own 4-stage order-4 tableau: rk4, the 3/8 rule and kutta4 with
        # nodes 1/4, 3/4 (the cold subset), then seeded kutta4 members.  Ten
        # order-10 and eight order-11 jobs put p50 and p90 inside those two
        # classes.
        fixed = [(F(1, 3), F(2, 3)), (F(1, 4), F(3, 4))]
        seeded = rng.sample([pair for pair in KUTTA4_PAIRS if pair not in fixed], 15)
        for index, max_order in enumerate([10] * 10 + [11] * 8):
            name = f"order4_{index}.json"
            documents[name] = rk4() if index == 0 else kutta4(*(fixed + seeded)[index - 1])
            cold = index < 3  # fixed mode and format: the cold subset is the same every seed
            if cold:
                mode, fmt = ("exact", "float")[index % 2], ("text", "json")[index % 2]
            else:
                mode, fmt = rng.choice(("exact", "float")), rng.choice(("text", "json"))
            argv = ["verify", name, "--max-order", str(max_order), "--mode", mode, "--format", fmt]
            cli(argv, cold=cold, exit=1, achieved=4)
    else:
        raise ValueError(f"unknown workload: {workload!r}")
    rng.shuffle(jobs)
    for index, job in enumerate(jobs):
        job["id"] = f"{workload}-{index}"
    return jobs, documents


def _oracle_job(field: str, x0: str, tableau: str, degree: int, cold: bool) -> dict:
    return {
        "kind": "oracle",
        "field": field,
        "x0": x0,
        "tableau": tableau,
        "p": degree,
        "cold": cold,
        "expect": {"agree": True},
    }


def _verify_job(cli, rng: random.Random, name: str, order: int, fixed: tuple | None) -> None:
    """One verify job of the tableau; fixed is (mode, format) for the cold subset."""
    mode, fmt = fixed or (rng.choice(("exact", "float")), rng.choice(("text", "json")))
    argv = [
        "verify", name, "--max-order", str(order + 1), "--require-order", str(order),
        "--mode", mode, "--format", fmt,
    ]
    cli(argv, cold=fixed is not None, exit=0, achieved=order)


def write_documents(documents: dict[str, dict], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, document in documents.items():
        (directory / name).write_text(json.dumps(document, indent=1) + "\n")
