"""Fixtures shared by the test modules."""

import pytest

from butcher_kit import trees


@pytest.fixture
def fresh_forest(monkeypatch):
    """An empty forest in place of the process's one, for one test.

    The forest is shared by every call in a process, so a test that counts
    the trees a call builds must start from an empty forest, whatever the
    tests before it grew.  Tree ids stay valid: they belong to the
    process's one id space, which is not swapped.
    """
    forest = trees._Forest()
    monkeypatch.setattr(trees, "_FOREST", forest)
    return forest
