"""The package's public surface.

butcher_kit exports exactly the names its modules list in __all__, each
the module's own object, so a change to the surface edits one list.
"""

import types

import butcher_kit
from butcher_kit import algebra, conditions, oracle, trees, verify

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
