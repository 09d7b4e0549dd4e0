"""Record tests/corpus.json: what the CLI prints for each argv of ARGVS.

    PYTHONPATH=src python tests/record_corpus.py

Run it only for an intended change of output, and list each entry that
changes in CHANGES.md.  Each argv runs in process through
butcher_kit.cli.main, with COLUMNS=80, from a directory that holds the
fixtures and the documents write_inputs adds, so a path prints as its bare
name.  The corpus maps each argv, joined as a shell quotes it, to
[exit code, SHA-256 of stdout, SHA-256 of stderr].  Where argparse writes
the output (help, usage and parse errors), whose text differs across
Python versions, both digests are null: tests/test_corpus.py holds those
argvs to the full parser instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

from butcher_kit import cli

TESTS = Path(__file__).parent
CORPUS = TESTS / "corpus.json"

_LIMIT = sys.get_int_max_str_digits()
# Documents written beside the fixtures, besides rk4 without its name
# (unnamed.json): two values too long for Python to print or read, and
# documents the readers refuse.
_DOCUMENTS = {
    "long_entry.json": {"stages": 1, "A": [["1/" + "9" * _LIMIT]], "b": ["1"]},
    "long_literal.json": '{"stages": 1, "A": [["0"]], "b": [' + "1" * (_LIMIT + 1) + "]}",
    "x1_400.json": {"dim": 1, "components": ["x1^400"]},
    "x1_401.json": {"dim": 1, "components": ["x1^401"]},
    "gap_field.json": {"dim": 1, "components": ["x1 2"]},
    "wide_field.json": {"dim": 101, "components": ["x1"]},
    "no_A.json": {"stages": 1, "b": ["1"]},
    "ragged.json": {"stages": 2, "A": [["0"]], "b": ["1", "0"]},
    "float_entry.json": {"stages": 1, "A": [[0.5]], "b": ["1"]},
    "empty.json": "",
    "list.json": "[1, 2]",
}


def write_inputs(directory: Path) -> None:
    """Copy the fixtures into directory and write the documents beside them."""
    for path in (TESTS / "fixtures").glob("*.json"):
        shutil.copyfile(path, directory / path.name)
    unnamed = json.loads((TESTS / "fixtures" / "rk4.json").read_text())
    del unnamed["name"]
    (directory / "unnamed.json").write_text(json.dumps(unnamed))
    for name, document in _DOCUMENTS.items():
        text = document if isinstance(document, str) else json.dumps(document)
        (directory / name).write_text(text)


def outputs(argv: list[str], entry=cli.main) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of entry(argv), by default cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(argv)
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def argparse_writes(argv: list[str]) -> bool:
    """Whether the full parser exits on argv, printing argparse's own text."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.build_parser().parse_args(cli._join_points(argv))
    except SystemExit:
        return True
    return False


TABLEAUS = (
    "explicit_euler.json",
    "implicit_midpoint.json",
    "rk4.json",
    "extrapolated_euler_123.json",
    "butcher6_u2-5_v1-3.json",
    "unnamed.json",
)
# Each field fixture with a point of its dimension.
FIELDS = {
    "linear1d.json": "1",
    "quad1d.json": "-2/3",
    "rotation2d.json": "1,0",
    "mixed2d.json": "1/2,-1",
    "wide6d.json": "1/2,-2/3,3/2,-1,1/3,2",
    "tree_field6.json": ",".join(["0"] * 37),
}
_FLAG_SETS = ("", "--explicit", "--subst-c", "--explicit --subst-c")


def _over_the_size_cap() -> list[str]:
    """For each flag set and order, the fewest stages the size cap refuses."""
    cells = []
    for flags in _FLAG_SETS:
        generation = cli.GenerationFlags(
            explicit="--explicit" in flags, substitute_c="--subst-c" in flags
        )
        for order in range(2, cli._ORDER_CAP + 1):
            for stages in range(1, cli._STAGES_CAP + 1):
                size, cap = cli._condition_size(order, stages, generation)
                if size > cap:
                    cells.append(f"conditions --order {order} --stages {stages} {flags}")
                    break
    return cells


def _argvs() -> list[list[str]]:
    """Each argv, written as one line of words: no argument holds a space."""
    lines: list[str] = []
    add = lines.append
    # count and trees, with the order refusals on either side of the range.
    for order in (-1, 0, *range(1, cli._ORDER_CAP + 1), 15):
        add(f"count --order {order}")
    for order in (0, *range(1, 10), 15):
        for fmt in ("", "--format bracket", "--format json"):
            add(f"trees --order {order} {fmt}")

    # conditions: generic, concrete in every flag set and format, and the
    # refusals, the size cap's edge included.
    for order in range(1, 10):
        for fmt in ("", "--format text", "--format json"):
            add(f"conditions --order {order} --generic {fmt}")
    for flag in ("--stages 2", "--explicit", "--subst-c", "--format latex"):
        add(f"conditions --order 3 --generic {flag}")
    for order in range(1, 6):
        for stages in range(1, 4):
            for flags in _FLAG_SETS:
                for fmt in ("text", "latex", "json"):
                    add(f"conditions --order {order} --stages {stages} {flags} --format {fmt}")
    add("conditions --order 6 --stages 3 --explicit")
    add("conditions --order 3")
    for cell in ("1 --stages -1", "1 --stages 0", "1 --stages 101", "0 --stages 2", "15 --stages 2"):
        add(f"conditions --order {cell}")
    add("conditions --order 15 --generic")
    lines += _over_the_size_cap()
    # Cells just under the size cap or at the stage cap, where one runs in
    # a fraction of a second.
    for cell in (
        "--order 9 --stages 2",
        "--order 12 --stages 3 --explicit",
        "--order 10 --stages 2 --subst-c",
        "--order 1 --stages 100",
        "--order 3 --stages 100 --subst-c",
        "--order 3 --stages 100 --explicit --subst-c",
    ):
        add(f"conditions {cell}")

    # verify: every tableau, mode and format up to the order it first fails.
    for tableau in TABLEAUS:
        top = 7 if tableau.startswith("butcher6") else 5
        for order in range(1, top + 1):
            for mode in ("exact", "float"):
                for fmt in ("text", "json"):
                    add(f"verify {tableau} --max-order {order} --mode {mode} --format {fmt}")
    add("verify rk4.json --max-order 5")
    for require in (1, 4, 5):
        add(f"verify rk4.json --max-order 5 --require-order {require}")
    for tol in ("0", "0.5", "1e-12", "1e300"):
        add(f"verify extrapolated_euler_123.json --max-order 4 --mode float --tol {tol}")
    for fmt in ("text", "json"):
        add(f"verify long_entry.json --max-order 2 --format {fmt}")
    for refused in (
        "rk4.json --max-order 0",
        "rk4.json --max-order 15",
        "rk4.json --max-order 5 --require-order 0",
        "rk4.json --max-order 5 --require-order 6",
        "rk4.json --max-order 3 --mode float --tol nan",
        "rk4.json --max-order 3 --mode float --tol inf --format json",
        "rk4.json --max-order 3 --mode float --tol -1",
        "no-such.json --max-order 3",
        "rotation2d.json --max-order 3",
        "long_literal.json --max-order 1",
        "no_A.json --max-order 1",
        "ragged.json --max-order 1",
        "float_entry.json --max-order 1",
        "empty.json --max-order 1",
        "list.json --max-order 1",
    ):
        add(f"verify {refused}")

    # oracle: every field with and without each tableau, in both formats.
    for field, point in FIELDS.items():
        degrees = (2, 6) if field == "tree_field6.json" else (0, 1, 3, 6)
        with_tableau = 6 if field in ("tree_field6.json", "wide6d.json") else 4
        for fmt in ("text", "json"):
            for degree in degrees:
                add(f"oracle {field} --x0 {point} --p {degree} --format {fmt}")
            for tableau in TABLEAUS:
                add(f"oracle {field} --x0 {point} --p {with_tableau} --tableau {tableau} --format {fmt}")
    for fmt in ("text", "json"):
        add(f"oracle x1_400.json --x0 1/{10**30} --p 6 --tableau rk4.json --format {fmt}")
    for refused in (
        "rotation2d.json --x0 1,0 --p 7",
        "rotation2d.json --x0 1,0 --p -1",
        "rotation2d.json --x0 1 --p 2",
        "rotation2d.json --x0 1,x --p 2",
        "rotation2d.json --x0 1/0,1 --p 2",
        f"linear1d.json --x0 1/{10**100} --p 2",
        "linear1d.json --x0 1 --p 2 --tableau no_A.json",
        "no-such.json --x0 1 --p 2",
        "rk4.json --x0 1 --p 2",
        "x1_401.json --x0 1 --p 2",
        "gap_field.json --x0 1 --p 2",
        "wide_field.json --x0 1 --p 2",
        "empty.json --x0 1 --p 2",
        "list.json --x0 1 --p 2",
    ):
        add(f"oracle {refused}")

    # Spellings the option table reads, and those it defers to argparse:
    # abbreviations, repeats, values that start with "-", stray words,
    # help, and every usage error.
    lines += [
        "count --order=3",
        "trees --format=json --order 3",
        "conditions --explicit --order 4 --subst-c --stages=2 --format latex",
        "verify --max-order=3 --tol=0.5 rk4.json --mode float --require-order 2",
        "oracle --p 2 --tableau rk4.json --x0=-1,0 rotation2d.json --format=json",
        "oracle quad1d.json --x0 -2/3 --p 2",
        "oracle rotation2d.json --x -1,0 --p 2",
        "count --ord 3",
        "trees --ord 3",
        "count --order 3 --order 4",
        "count --order -3",
        "conditions --order 3 --generic --generic",
        "conditions --order 3 --explicit=1",
        "verify rk4.json --max-order 3 --tol=nan",
        "verify rk4.json --max-order 3 --mode float --tol -1e-3",
        "count -- --order 3",
        "count --order",
        "count",
        "count --order 3 x",
        "count --order x",
        "trees --order 3 extra",
        "trees --order 3 --format xml",
        "verify --max-order 3",
        "verify rk4.json rk4.json --max-order 3",
        "oracle linear1d.json --x0 --p 2",
        "--order 3 count",
        "frobnicate",
        "-h",
        "--help",
        "",
        *(f"{name} -h" for name in cli._COMMANDS),
    ]
    return [line.split() for line in lines]


ARGVS = _argvs()


def record() -> dict[str, list]:
    """The corpus of ARGVS as the package at hand prints it."""
    corpus: dict[str, list] = {}
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(Path(directory))
        here = os.getcwd()
        os.chdir(directory)
        try:
            for argv in ARGVS:
                key = shlex.join(argv)
                if key in corpus:
                    raise SystemExit(f"argv listed twice: {key}")
                code, out, err = outputs(argv)
                if argparse_writes(argv):
                    corpus[key] = [code, None, None]
                else:
                    corpus[key] = [code, digest(out), digest(err)]
        finally:
            os.chdir(here)
    return corpus


def main() -> None:
    os.environ["COLUMNS"] = "80"
    corpus = record()
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in corpus.items()]
    CORPUS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(corpus)} argvs written to {CORPUS.relative_to(TESTS.parent)}")


if __name__ == "__main__":
    main()
