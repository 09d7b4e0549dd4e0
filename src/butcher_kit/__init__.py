"""Exact-arithmetic toolkit for Runge-Kutta order theory.

Rooted-tree enumeration with exact coefficients (trees), rational
coefficient polynomials (algebra), order-condition generation (conditions),
Butcher-tableau order verification (verify), and Taylor-expansion oracles
that cross-check the tree formulas against direct iteration (oracle).
A command line front end lives in cli.
"""

from .algebra import (
    CoeffPolynomial,
    CoeffVar,
    a_var,
    b_var,
    c_var,
    format_rational,
    parse_rational,
    poly_sum,
)
from .conditions import (
    GenerationFlags,
    OrderCondition,
    all_order_conditions,
    render_generic,
    symbolic_weights,
)
from .oracle import (
    FieldError,
    FieldSyntaxError,
    PolyVectorField,
    StatePolynomial,
    TauSeries,
    elementary_differential,
    flow_series_picard,
    flow_series_trees,
    load_field,
    parse_point,
    rk_series_direct,
    rk_series_trees,
    stage_series_direct,
    stage_series_trees,
)
from .trees import (
    RootedTree,
    TreesByOrder,
    TreeSyntaxError,
    alpha,
    enumerate_by_leaf,
    format_tree,
    grow_by_leaf,
    parse_tree,
    sigma,
    symmetry_delta,
    tree_factorial,
)
from .verify import (
    ButcherTableau,
    OrderReport,
    ResidualEntry,
    TableauError,
    load_tableau,
    verify_order,
    weight_value,
)

__version__ = "0.1.0"
