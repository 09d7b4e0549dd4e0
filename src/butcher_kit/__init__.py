"""Exact-arithmetic toolkit for Runge-Kutta order theory.

Rooted-tree enumeration with exact coefficients (trees), rational
coefficient polynomials (algebra), order-condition generation (conditions),
Butcher-tableau order verification (verify), and Taylor-expansion oracles
that cross-check the tree formulas against direct iteration (oracle).
A command line front end lives in cli.

The package exports exactly the names in its modules' __all__ lists.
"""

from . import algebra, conditions, oracle, trees, verify
from .algebra import *  # noqa: F401,F403
from .conditions import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .trees import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__all__ = [
    *algebra.__all__,
    *conditions.__all__,
    *oracle.__all__,
    *trees.__all__,
    *verify.__all__,
]

__version__ = "0.1.0"
