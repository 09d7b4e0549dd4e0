"""Exact-arithmetic toolkit for Runge-Kutta order theory.

Rooted-tree enumeration with exact coefficients (trees), rational
coefficient polynomials (algebra), order-condition generation (conditions),
Butcher-tableau order verification (verify), and Taylor-expansion oracles
that cross-check the tree formulas against direct iteration (oracle).
A command line front end lives in cli.

The package exports exactly the names in its modules' __all__ lists.  The
oracle, its largest module, loads on first use: importing the package (or
the CLI) leaves it out until the oracle or one of its names is asked for.
"""

from . import algebra, conditions, trees, verify
from .algebra import *  # noqa: F401,F403
from .conditions import *  # noqa: F401,F403
from .trees import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

# oracle.__all__, which a test holds equal to this list: the names the
# package, and cli, serve from the oracle on first use (PEP 562).
_ORACLE_NAMES = (
    "FieldError",
    "FieldSyntaxError",
    "PolyVectorField",
    "load_field",
    "parse_point",
    "TauSeries",
    "elementary_differential",
    "flow_series_trees",
    "flow_series_picard",
    "rk_series_trees",
    "rk_series_direct",
)

__all__ = [
    *algebra.__all__,
    *conditions.__all__,
    *_ORACLE_NAMES,
    *trees.__all__,
    *verify.__all__,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """The oracle module and its names, imported when first asked for."""
    if name == "oracle" or name in _ORACLE_NAMES:
        from importlib import import_module

        oracle = import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "oracle", *_ORACLE_NAMES})
