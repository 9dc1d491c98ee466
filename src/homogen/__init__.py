"""Synthetic program-synthesis datasets with salient-variable homogenization.

Two sample domains (Karel grid-world tasks and mod-10 calculator
expressions), a rejection-based homogenizer that evens out user-declared
salient variables, and diagnostics for uniformity and sampling cost.
"""

from .homogenizer import (
    BudgetExhaustedError,
    CountTable,
    DomainViolationError,
    HomogenizerConfig,
    HomogenizerRun,
    SalientSpec,
    expected_tries_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExhaustedError",
    "CountTable",
    "DomainViolationError",
    "HomogenizerConfig",
    "HomogenizerRun",
    "SalientSpec",
    "expected_tries_bound",
    "__version__",
]
