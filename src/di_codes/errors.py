"""Exception types shared across the package.

Plain ValueError is used for ordinary domain errors (bad lengths, letters out
of range, malformed pmfs). The classes below mark conditions callers may want
to branch on: exhausted enumeration/size budgets, infeasible cost constraints,
degenerate typical sets, and failed constructions.
"""

from decimal import Decimal


class DiCodesError(Exception):
    """Base class for package-specific errors."""


class BudgetError(DiCodesError):
    """An enumeration, size, or memory budget would be exceeded.

    The message always names the budget and the offending quantity.
    """


# Builds (DMC codebooks, Gaussian packings, discretized channels) and sweeps
# are refused before they allocate when their peak could pass this many bytes.
_MAX_BUILD_BYTES = 2**32


def _refuse_over_budget(need: int | float, what: str) -> None:
    """BudgetError when ``need``, the bytes ``what`` can take at its peak, passes _MAX_BUILD_BYTES."""
    if need > _MAX_BUILD_BYTES:  # Decimal formats integers past the float range too
        raise BudgetError(f"memory budget of {_MAX_BUILD_BYTES} bytes exceeded: {what} can take {Decimal(need):.4g} bytes")


class InfeasibleConstraintError(DiCodesError, ValueError):
    """No input distribution can satisfy the cost constraint."""


class DegenerateTypicalitySetError(DiCodesError):
    """A conditional typical set is empty where a ratio is required."""


class ConstructionError(DiCodesError):
    """A codebook construction produced no usable code.

    Carries the construction report (when one exists) as ``report``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
