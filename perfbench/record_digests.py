"""Record SHA-256 digests of every conditions/trees stdout the workloads use.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/record_digests.py

It overwrites perfbench/digests.json.  Later commits must reproduce these
bytes exactly, so re-record only when an output change is intended.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import gen

from butcher_kit.cli import main


def main_record() -> None:
    argvs = [
        gen.conditions_argv(order, stages, family, fmt)
        for order, stages, family in gen.conditions_space()
        for fmt in gen.CONDITION_FORMATS
    ]
    argvs += [argv for argv in gen.forest_argvs() if argv[0] != "count"]
    digests = {}
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        digests[gen.argv_key(argv)] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    path = Path(__file__).resolve().parent / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {path}")


if __name__ == "__main__":
    main_record()
