"""The package's public surface.

butcher_kit exports exactly the names its modules list in __all__, each
the module's own object, so a change to the surface edits one list.  The
oracle's names are served on first use, and only the oracle subcommand
loads the oracle.  Its eight records keep the contract of a frozen
dataclass, and importing the CLI loads neither dataclasses nor inspect,
and no run loads typing.
README's Python example runs as written, and its table from the paper to
the code names the package's own callables.
"""

import copy
import json
import os
import pickle
import re
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import butcher_kit
import butcher_kit.cli as cli
from butcher_kit import algebra, conditions, oracle, trees, verify
from butcher_kit.algebra import CoeffPolynomial
from butcher_kit.trees import RootedTree

SRC = os.path.dirname(os.path.dirname(butcher_kit.__file__))
ROOT = Path(__file__).parents[1]
FIXTURES = ROOT / "tests" / "fixtures"

MODULES = (algebra, conditions, oracle, trees, verify)


def test_package_exports_exactly_the_modules_all():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared)), "a name is listed by two modules"
    assert sorted(butcher_kit.__all__) == sorted(declared)
    # Through dir and getattr: the oracle's names are not in vars() until
    # asked for.
    public = {
        name
        for name in dir(butcher_kit)
        if not name.startswith("_") and not isinstance(getattr(butcher_kit, name), types.ModuleType)
    }
    assert public == set(declared)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(butcher_kit, name) is getattr(module, name), name


def test_lazy_names_are_the_oracles_all():
    assert butcher_kit._ORACLE_NAMES == tuple(oracle.__all__)


def test_dir_lists_every_exported_name_and_the_oracle():
    listed = set(dir(butcher_kit))
    assert set(butcher_kit.__all__) <= listed
    assert {"algebra", "conditions", "oracle", "trees", "verify"} <= listed


def test_unknown_attributes_still_raise():
    for module in (butcher_kit, cli):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            module.no_such_name
        assert not hasattr(module, "no_such_name")
    with pytest.raises(ImportError):
        from butcher_kit import no_such_name  # noqa: F401


# perfbench/spans.py reads and patches these names on cli.
TRACED_ORACLE_NAMES = (
    "load_field",
    "parse_point",
    "flow_series_trees",
    "flow_series_picard",
    "rk_series_trees",
    "rk_series_direct",
)


@pytest.mark.parametrize("name", TRACED_ORACLE_NAMES)
def test_cli_serves_the_traced_oracle_names(name):
    assert getattr(cli, name) is getattr(oracle, name)


def _fresh(probe, *args, cwd=None):
    """Run probe in a new `python -S` interpreter that imports the package
    from src/ (-S keeps site's own imports out of sys.modules): its stdout."""
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe, *map(str, args)],
        env={**os.environ, "PYTHONPATH": SRC}, cwd=cwd,
        capture_output=True, text=True, check=True, timeout=60,
    )
    return result.stdout


def test_star_import_in_a_fresh_interpreter():
    probe = (
        "import json, sys\n"
        "import butcher_kit\n"
        "loaded_by_import = 'butcher_kit.oracle' in sys.modules\n"
        "from butcher_kit import *\n"
        "from butcher_kit import algebra, conditions, oracle, trees, verify\n"
        "owner = {n: m for m in (algebra, conditions, oracle, trees, verify) for n in m.__all__}\n"
        "bound = [n for n in butcher_kit.__all__ if globals().get(n) is getattr(owner[n], n)]\n"
        "print(json.dumps([loaded_by_import, bound]))\n"
    )
    loaded_by_import, bound = json.loads(_fresh(probe))
    assert not loaded_by_import
    assert bound == butcher_kit.__all__


def test_oracle_records_unpickle_in_a_fresh_interpreter():
    # Unpickling imports butcher_kit.oracle by its name, loaded or not.
    field = oracle.load_field('{"dim": 2, "components": ["x2", "-x1"]}')
    series = oracle.flow_series_trees(field, (Fraction(1), Fraction(0)), 2)
    probe = (
        "import pickle, sys\n"
        "import butcher_kit\n"
        "field, series = pickle.loads(bytes.fromhex(sys.argv[1]))\n"
        "print(repr(field))\n"
        "print(series.render_text())\n"
    )
    out = _fresh(probe, pickle.dumps((field, series)).hex())
    assert out == f"{field!r}\n{series.render_text()}\n"


# The package's frozen records, each with its fields in constructor order,
# one value per field, and the fields a constructor may omit with their
# defaults.  Values are given in canonical form, so each is read back as is.
_LEAF = RootedTree()
_CHAIN2 = RootedTree((_LEAF,))
_ENTRY = (_CHAIN2, 2, Fraction(1), Fraction(1, 2), Fraction(1, 2), False)
RECORDS = [
    (algebra.CoeffVar, {"kind": "b", "i": 2, "j": None}, {"j": None}),
    (conditions.GenerationFlags, {"explicit": True, "substitute_c": False},
     {"explicit": False, "substitute_c": False}),
    (
        conditions.OrderCondition,
        {"tree": _CHAIN2, "lhs": CoeffPolynomial.variable(algebra.b_var(1)), "rhs": Fraction(1, 2)},
        {},
    ),
    (
        oracle.PolyVectorField,
        {"dim": 2, "components": ((((0, 1), Fraction(1)),), (((1, 0), Fraction(-1)),))},
        {},
    ),
    (oracle.TauSeries, {"coeffs": ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))}, {}),
    (
        verify.ButcherTableau,
        {"name": "midpoint", "a": ((Fraction(1, 2),),), "b": (Fraction(1),), "c": (Fraction(1, 2),)},
        {},
    ),
    (
        verify.ResidualEntry,
        dict(zip(("tree", "order", "weight", "rhs", "residual", "passed"), _ENTRY)),
        {},
    ),
    (
        verify.OrderReport,
        {
            "tableau_name": "midpoint",
            "stages": 1,
            "explicit": False,
            "row_sum_consistent": True,
            "mode": "float",
            "tolerance": 1e-12,
            "requested_order": 2,
            "achieved_order": 1,
            "residuals": (verify.ResidualEntry(*_ENTRY),),
        },
        {},
    ),
]


@pytest.mark.parametrize("cls,fields,defaults", RECORDS, ids=[row[0].__name__ for row in RECORDS])
def test_record_contract(cls, fields, defaults):
    record = cls(*fields.values())
    assert cls(**fields) == record
    for name, value in fields.items():
        assert getattr(record, name) == value
        assert vars(record)[name] == value
    if defaults:
        required = [value for name, value in fields.items() if name not in defaults]
        for bare in (cls(*required), cls(**{n: v for n, v in fields.items() if n not in defaults})):
            for name, value in defaults.items():
                assert getattr(bare, name) == value

    twin = cls(*fields.values())
    assert twin == record and not twin != record and hash(twin) == hash(record)
    # Equal field values in any other class are not equal.
    assert record != tuple(fields.values())
    assert record != types.SimpleNamespace(**fields)

    for name in (*fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == twin

    for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(copied) is cls
        assert copied == record and hash(copied) == hash(record)

    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({shown})"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Each CLI run pays for its import: the records are plain classes, so
    # that dataclasses, and the inspect, ast and dis it pulls in, stay out.
    probe = "import sys, butcher_kit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert _fresh(probe) == "[]\n"


def test_cli_runs_never_load_typing():
    # Annotations name collections.abc's classes, and a run-time check uses
    # them too, so typing (and the re it imports) is never paid for: not
    # by the import, by count, nor by any other subcommand's run.
    probe = """
import contextlib, io, json, sys
loaded = ["typing" in sys.modules]
import butcher_kit.cli as cli
loaded.append("typing" in sys.modules)
runs = [
    ["count", "--order", "5"],
    ["trees", "--order", "4"],
    ["conditions", "--order", "3", "--stages", "2"],
    ["verify", "rk4.json", "--max-order", "5"],
    ["oracle", "rotation2d.json", "--x0", "1,0", "--p", "4", "--tableau", "rk4.json"],
]
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
    loaded.append("typing" in sys.modules)
print(json.dumps([codes, loaded]))
"""
    codes, loaded = json.loads(_fresh(probe, cwd=FIXTURES))
    assert codes == [0, 0, 0, 1, 0]
    assert loaded == [False] * 7


def test_cli_runs_load_argparse_only_for_help():
    # A run spelled as the option table reads it needs no argparse, nor
    # the gettext and locale that argparse's first parser loads; -h still
    # goes to argparse, which prints its help.
    probe = """
import contextlib, io, json, sys
import butcher_kit.cli as cli
runs = [
    ["count", "--order", "5"],
    ["trees", "--order", "4", "--format", "json"],
    ["conditions", "--order", "3", "--stages", "2", "--explicit"],
    ["verify", "rk4.json", "--max-order", "5", "--require-order", "4"],
]
parsers = ("argparse", "gettext", "locale")
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
loaded = sorted(set(parsers) & set(sys.modules))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes.append(cli.main(["count", "-h"]))
print(json.dumps([codes, loaded, "argparse" in sys.modules, out.getvalue()]))
"""
    codes, loaded, help_loaded, help_text = json.loads(_fresh(probe, cwd=FIXTURES).splitlines()[-1])
    assert (codes, loaded, help_loaded) == ([0, 0, 0, 0, 0], [], True)
    assert help_text.startswith("usage: butcher-kit count [-h] --order P\n")


def test_only_the_oracle_subcommand_loads_the_oracle():
    # Every other subcommand runs without the oracle, the package's largest
    # module; the oracle subcommand loads it and prints the golden report.
    probe = """
import contextlib, io, json, sys
import butcher_kit.cli as cli
loaded = ["butcher_kit.oracle" in sys.modules]
runs = [
    ["count", "--order", "5"],
    ["trees", "--order", "4"],
    ["conditions", "--order", "3", "--stages", "2"],
    ["conditions", "--order", "4", "--generic", "--format", "json"],
    ["verify", "rk4.json", "--max-order", "5"],
    ["oracle", "rotation2d.json", "--x0", "1,0", "--p", "5"],
]
results = []
for argv in runs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    results.append((code, len(out.getvalue())))
    loaded.append("butcher_kit.oracle" in sys.modules)
print(json.dumps([loaded, results, out.getvalue()]))
"""
    loaded, results, report = json.loads(_fresh(probe, cwd=FIXTURES).splitlines()[-1])
    assert loaded == [False] * 6 + [True]
    assert [code for code, _ in results] == [0, 0, 0, 0, 1, 0]
    assert all(size for _, size in results)
    assert report == (ROOT / "tests" / "golden" / "oracle_rotation2d.txt").read_text()


def test_readme_paper_table_names_resolve():
    # README's table from the paper's objects to the code: every row names
    # the package's code, and every name there is a callable of the package.
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## From the paper to the code\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")][2:]
    assert len(rows) == 7
    for row in rows:
        names = re.findall(r"`butcher_kit((?:\.\w+)+)`", row)
        assert names, row
        for name in names:
            found = butcher_kit
            for attr in name.split(".")[1:]:
                found = getattr(found, attr)
            assert callable(found), name


def test_readme_python_runs(tmp_path):
    # README's Python blocks, run in order in a fresh interpreter, from a
    # directory whose tableau.json is the rk4 fixture and whose field.json
    # is the rotation2d one.
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert blocks
    shutil.copy(FIXTURES / "rk4.json", tmp_path / "tableau.json")
    shutil.copy(FIXTURES / "rotation2d.json", tmp_path / "field.json")
    out = _fresh("\n".join(blocks), cwd=tmp_path)
    # The values its comments give, and rk4's order.
    assert out.startswith("4 8 1\nTrue\nb[2]*a[2,1]\n")
    assert out.endswith("\n4\n(Fraction(-1, 2), Fraction(0, 1))\n")
