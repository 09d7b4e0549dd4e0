"""The package's public surface.

butcher_kit exports exactly the names its modules list in __all__, each
the module's own object, so a change to the surface edits one list.  Its
eight records keep the contract of a frozen dataclass, and importing the
CLI loads neither dataclasses nor inspect.
"""

import copy
import os
import pickle
import subprocess
import sys
import types
from fractions import Fraction

import pytest

import butcher_kit
from butcher_kit import algebra, conditions, oracle, trees, verify
from butcher_kit.algebra import CoeffPolynomial
from butcher_kit.trees import RootedTree

SRC = os.path.dirname(os.path.dirname(butcher_kit.__file__))

MODULES = (algebra, conditions, oracle, trees, verify)


def test_package_exports_exactly_the_modules_all():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared)), "a name is listed by two modules"
    assert sorted(butcher_kit.__all__) == sorted(declared)
    public = {
        name
        for name, value in vars(butcher_kit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(declared)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(butcher_kit, name) is getattr(module, name), name


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
    # -S keeps site's own imports out of the answer.
    probe = "import sys, butcher_kit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert result.stdout == "[]\n"
