"""Running one job and checking its output.

A job is a CLI argv handed to butcher_kit.cli.main with stdout captured, or
an oracle job that loads its documents and compares both series routes
through the library (the CLI caps --p at 6).  run_job never raises for a
failure of the program: an unexpected exit code, an exception or a wrong
output comes back as a message, and the caller counts it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import time
import traceback
from pathlib import Path

import butcher_kit.cli
from butcher_kit import oracle, verify

from gen import argv_key

_HERE = Path(__file__).resolve().parent
DIGESTS = json.loads((_HERE / "digests.json").read_text())

def resolve_argv(argv: list[str], docs: Path) -> list[str]:
    return [str(docs / arg) if arg.endswith(".json") else arg for arg in argv]


def run_job(job: dict, docs: Path) -> tuple[float, str | None, int]:
    """Run one job: (wall seconds, failure message or None, output bytes)."""
    start = time.perf_counter()
    try:
        if job["kind"] == "oracle":
            failure = _oracle_job(job, docs)
            size = 0
            elapsed = time.perf_counter() - start
        else:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = butcher_kit.cli.main(resolve_argv(job["argv"], docs))
            elapsed = time.perf_counter() - start
            text = out.getvalue()
            size = len(text.encode())
            failure = check_cli(job, code, text, err.getvalue())
    except Exception:  # one bad job must not end the pass
        return time.perf_counter() - start, traceback.format_exc(limit=8), 0
    return elapsed, failure, size


def _oracle_job(job: dict, docs: Path) -> str | None:
    # Module attributes, not imported names: the tracer swaps them.
    field = oracle.load_field((docs / job["field"]).read_text())
    point = oracle.parse_point(job["x0"], field.dim)
    tableau = verify.load_tableau((docs / job["tableau"]).read_text())
    p = job["p"]
    flow = oracle.flow_series_trees(field, point, p), oracle.flow_series_picard(field, point, p)
    step = oracle.rk_series_trees(tableau, field, point, p), oracle.rk_series_direct(tableau, field, point, p)
    for label, (trees, other) in (("flow", flow), ("rk", step)):
        if trees.degree != p or trees.coeffs != other.coeffs:
            return f"{label} routes disagree at degree {trees.first_difference(other)}"
    return None


_ACHIEVED = re.compile(r"^achieved order: (\d+)$", re.MULTILINE)
_COUNT = re.compile(r"^order (\d+): (\d+)$")


def check_cli(job: dict, code: int, out: str, err: str) -> str | None:
    expect = job["expect"]
    if code != expect["exit"]:
        return f"exit {code}, expected {expect['exit']}: {err.strip()[:300]}"
    if expect.get("digest"):
        key = argv_key(job["argv"])
        recorded = DIGESTS.get(key)
        if recorded is None:
            return f"no recorded digest for {key!r}"
        if hashlib.sha256(out.encode()).hexdigest() != recorded:
            return "stdout differs from the recorded digest"
    if "achieved" in expect:
        if "--format" in job["argv"] and job["argv"][job["argv"].index("--format") + 1] == "json":
            achieved = json.loads(out)["achieved_order"]
        else:
            found = _ACHIEVED.search(out)
            achieved = int(found.group(1)) if found else None
        if achieved != expect["achieved"]:
            return f"achieved order {achieved}, expected {expect['achieved']}"
    if "counts" in expect:
        return _check_counts(out, expect["counts"])
    return None


def _check_counts(out: str, counts: list[int]) -> str | None:
    lines = out.splitlines()
    if len(lines) != len(counts) + 1:
        return f"count printed {len(lines)} lines, expected {len(counts) + 1}"
    for q, (line, want) in enumerate(zip(lines, counts), start=1):
        found = _COUNT.fullmatch(line)
        if not found or int(found.group(1)) != q or int(found.group(2)) != want:
            return f"count line {line!r}, expected 'order {q}: {want}' (OEIS A000081)"
    if lines[-1] != f"total: {sum(counts)}":
        return f"count total line {lines[-1]!r}, expected 'total: {sum(counts)}'"
    return None
