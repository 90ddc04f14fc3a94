"""blocksieve: admissibility engine for coalgebra block systems.

The package decides, by exact integer search, whether a block-dimension table
compatible with every proved necessary condition for finite-dimensional Hopf
algebras can exist at a given (dimension, group order), and extracts block
systems from explicit coalgebras over the rationals via the coradical
filtration.
"""

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
from .oracle import OracleCapError, oracle_enumerate, oracle_solve
from .coalgebra import (
    Algebra,
    Coalgebra,
    CoalgebraParseError,
    change_basis,
    dual_algebra,
    parse_coalgebra,
    serialize_coalgebra,
    tensor_product,
    validate,
)
from .analyzer import (
    AnalysisResult,
    CoalgebraInvalidError,
    CoalgebraTooLargeError,
    FiltrationChain,
    MAX_ANALYZE_DIM,
    NonSplitCoradicalError,
    SimpleComponent,
    analyze,
    coradical_filtration,
    q_table,
    radical,
    simple_components,
)

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
