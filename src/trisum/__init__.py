"""Constructive witnesses and exhaustive verification for sums of triangular numbers."""

from .core_arith import (
    MAX_INPUT,
    ConstructionFailed,
    Quad1,
    Quad2,
    check_nat,
    eval_quad,
)
from .theorem1 import fallback_count, represent_thm1, reset_fallback_count
from .theorem2 import branch_counts, represent_thm2, reset_branch_counts
from .verifier import (
    FORMS,
    BudgetExceeded,
    RangeReport,
    brute_quad,
    verify_range,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_INPUT",
    "ConstructionFailed",
    "Quad1",
    "Quad2",
    "check_nat",
    "eval_quad",
    "fallback_count",
    "represent_thm1",
    "reset_fallback_count",
    "branch_counts",
    "represent_thm2",
    "reset_branch_counts",
    "FORMS",
    "BudgetExceeded",
    "RangeReport",
    "brute_quad",
    "verify_range",
    "__version__",
]
