"""blocksieve: admissibility engine for coalgebra block systems.

The package decides, by exact integer search, whether a block-dimension table
compatible with every proved necessary condition for finite-dimensional Hopf
algebras can exist at a given (dimension, group order), and extracts block
systems from explicit coalgebras over the rationals via the coradical
filtration.

`import blocksieve` loads the core only: `blocks`, `rules` and `solver`, which
is all that checking, bounding and solving need.  The analyzer stack
(`coalgebra`, `linalg`, `analyzer`) and the `oracle` load on first use: the
first access to one of their public names, or to the submodule itself,
imports the module that defines it and binds that module's public names in
the package (PEP 562).  `from blocksieve import analyze` works as before.
"""

from importlib import import_module as _import_module

from .blocks import (
    FEASIBLE,
    INFEASIBLE,
    MAX_BLOCK_LEVEL,
    NON_COSEMISIMPLE,
    NSP,
    PLAIN,
    BlockIndex,
    BlockSystem,
    BlockSystemParseError,
    Certificate,
    ModeFlags,
    parse_block_system,
    pointed_levels,
    serialize_block_system,
    total_dim,
    transpose,
)
from .rules import RULE_ANCHORS, RULE_NAMES, RULE_ORDER, RuleViolation, check, explain
from .solver import (
    BoundsError,
    FeasibilityProblem,
    GridBounds,
    SearchCapExceeded,
    admissible_group_orders,
    basic_block_dim,
    lower_bound,
    minimal_form,
    scan,
    solve,
)

# Public names of the modules loaded on first use, by module.
_LAZY = {
    "oracle": ("OracleCapError", "oracle_enumerate", "oracle_solve"),
    "coalgebra": (
        "Algebra", "Coalgebra", "CoalgebraParseError", "change_basis", "dual_algebra",
        "parse_coalgebra", "serialize_coalgebra", "tensor_product", "validate",
    ),
    "analyzer": (
        "AnalysisResult", "CoalgebraInvalidError", "CoalgebraTooLargeError",
        "FiltrationChain", "MAX_ANALYZE_DIM", "NonSplitCoradicalError", "SimpleComponent",
        "analyze", "coradical_filtration", "q_table", "radical", "simple_components",
    ),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}
_SUBMODULES = ("coalgebra", "linalg", "analyzer", "oracle")

__version__ = "0.1.0"

__all__ = [
    "FEASIBLE", "INFEASIBLE", "NSP", "NON_COSEMISIMPLE", "PLAIN",
    "BlockIndex", "BlockSystem", "BlockSystemParseError", "Certificate",
    "MAX_BLOCK_LEVEL", "ModeFlags", "parse_block_system", "pointed_levels",
    "serialize_block_system", "total_dim", "transpose",
    "RULE_ANCHORS", "RULE_NAMES", "RULE_ORDER", "RuleViolation", "check", "explain",
    "BoundsError", "FeasibilityProblem", "GridBounds", "SearchCapExceeded",
    "admissible_group_orders", "basic_block_dim", "lower_bound", "minimal_form",
    "scan", "solve",
    "OracleCapError", "oracle_enumerate", "oracle_solve",
    "Algebra", "Coalgebra", "CoalgebraParseError", "change_basis", "dual_algebra",
    "parse_coalgebra", "serialize_coalgebra", "tensor_product", "validate",
    "AnalysisResult", "CoalgebraInvalidError", "CoalgebraTooLargeError",
    "FiltrationChain", "MAX_ANALYZE_DIM",
    "NonSplitCoradicalError", "SimpleComponent", "analyze",
    "coradical_filtration", "q_table", "radical", "simple_components",
]


def __getattr__(name):
    if name in _SUBMODULES:
        # importing a submodule binds it as a package attribute
        return _import_module(f"{__name__}.{name}")
    owner = _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{owner}")
    globals().update((n, getattr(module, n)) for n in _LAZY[owner])
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(_OWNER) | set(_SUBMODULES))
