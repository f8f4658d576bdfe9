"""Multiplicative-function toolkit: dense evaluation, Dirichlet quotient
algebra, pretentious distances, degree-d symmetric structure, and desk-scale
growth diagnostics."""

from .core import (
    COMPLETELY_MULTIPLICATIVE,
    DEGREE_D_COMPOSITE,
    GENERAL_MULTIPLICATIVE,
    TABULATED,
    FunctionSpec,
    PartialSumSeries,
    SieveIndex,
    ValueTable,
    build_sieve,
    evaluate,
    geometric_checkpoints,
    mean_square_sum,
    partial_sums,
)
from .errors import (
    DegenerateFitError,
    InvalidArgumentError,
    LimitError,
    OutOfRangeError,
    PretenseError,
    ResourceError,
    RuleError,
)

__version__ = "0.1.0"
