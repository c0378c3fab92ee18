"""Constant-rank subspaces of matrices over small finite fields.

The package builds finite fields up to order 2^16, dense matrices over
them, and spans of matrices; decides whether every nonzero element of a
span has one fixed rank; constructs dimension-n witnesses from the
multiplication action of an extension field; checks the kernel-image
containment and the annihilating-pair counting identity on concrete
instances; and searches small parameter boxes exhaustively for
constant-rank subspaces, with an independent brute-force census as the
oracle.  The `constrank` console script exposes the same operations.
"""

from .errors import (
    BudgetExceeded,
    ConstrankError,
    DimensionMismatch,
    DivisionByZero,
    EmptyInput,
    InternalVerificationFailed,
    NonPrimeCharacteristic,
    NotConstantRank,
    OrderTooLarge,
    ParseError,
    ReducibleModulus,
    ShapeMismatch,
    ShapeViolation,
    UsageError,
    ZeroSpan,
    ZeroVector,
)
from .field import MAX_ORDER, FieldSpec, make_field, parse_field_descriptor
from .matrix import MatGF, member_of_span, parse_matrix
from .subspace import (
    DEFAULT_ENUMERATION_BUDGET,
    RankProfile,
    SubspaceBasis,
    enumerate_elements,
    is_constant_rank,
    make_subspace,
    parse_subspace,
    rank_profile,
)
from .analysis import (
    CountingReport,
    GeneralBoundReport,
    ImageOfKernelReport,
    KernelBoundReport,
    KernelSlice,
    check_general_bound,
    check_image_of_kernel,
    check_kernel_bound,
    counting_report,
    kernel_slice,
    qadic_valuation,
)
from .construct import regular_representation, truncated_construction
from .search import (
    DEFAULT_CENSUS_BUDGET,
    DEFAULT_NODE_BUDGET,
    SearchOutcome,
    SearchStatus,
    brute_force_census,
    gaussian_binomial,
    search_constant_rank,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "ConstrankError",
    "CountingReport",
    "DEFAULT_CENSUS_BUDGET",
    "DEFAULT_ENUMERATION_BUDGET",
    "DEFAULT_NODE_BUDGET",
    "DimensionMismatch",
    "DivisionByZero",
    "EmptyInput",
    "FieldSpec",
    "GeneralBoundReport",
    "ImageOfKernelReport",
    "InternalVerificationFailed",
    "KernelBoundReport",
    "KernelSlice",
    "MAX_ORDER",
    "MatGF",
    "NonPrimeCharacteristic",
    "NotConstantRank",
    "OrderTooLarge",
    "ParseError",
    "RankProfile",
    "ReducibleModulus",
    "SearchOutcome",
    "SearchStatus",
    "ShapeMismatch",
    "ShapeViolation",
    "SubspaceBasis",
    "UsageError",
    "ZeroSpan",
    "ZeroVector",
    "brute_force_census",
    "check_general_bound",
    "check_image_of_kernel",
    "check_kernel_bound",
    "counting_report",
    "enumerate_elements",
    "gaussian_binomial",
    "is_constant_rank",
    "kernel_slice",
    "make_field",
    "make_subspace",
    "member_of_span",
    "parse_field_descriptor",
    "parse_matrix",
    "parse_subspace",
    "qadic_valuation",
    "rank_profile",
    "regular_representation",
    "search_constant_rank",
    "truncated_construction",
    "__version__",
]
