"""Numerical laboratory for reduced amalgamated free product C*-algebras."""

from .algebra import (
    AlgebraWithExpectation,
    CenteredElement,
    MatrixStarAlgebra,
    center,
    diagonal_base,
    diagonal_in_matn,
    function_algebra_with_state,
    scalar_base,
    scalars_in_matn,
    star_algebra,
    validate_expectation,
)
from .errors import (
    AmalgamError,
    CapacityError,
    ConfigError,
    HypothesisError,
    StructureError,
    TruncationError,
)
from .fock import FockBasisLabel, FockContext, FockOperator, build_fock
from .gns import GnsModule, ModuleVector, build_gns, inner_product
from .shift import (
    Mixture,
    ShiftExperiment,
    decay_curve,
    shift_word,
)
from .words import (
    NormReport,
    Word,
    WordFamily,
    family_operator,
    haagerup_upper,
    ladder_identity_residuals,
    norm_lower,
    word_operator,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraWithExpectation",
    "AmalgamError",
    "CapacityError",
    "CenteredElement",
    "ConfigError",
    "FockBasisLabel",
    "FockContext",
    "FockOperator",
    "GnsModule",
    "HypothesisError",
    "MatrixStarAlgebra",
    "Mixture",
    "ModuleVector",
    "NormReport",
    "ShiftExperiment",
    "StructureError",
    "TruncationError",
    "Word",
    "WordFamily",
    "build_fock",
    "build_gns",
    "center",
    "decay_curve",
    "diagonal_base",
    "diagonal_in_matn",
    "family_operator",
    "function_algebra_with_state",
    "haagerup_upper",
    "inner_product",
    "ladder_identity_residuals",
    "norm_lower",
    "scalar_base",
    "scalars_in_matn",
    "shift_word",
    "star_algebra",
    "validate_expectation",
    "word_operator",
]
