"""Exception types shared across the package.

Plain ValueError is used for ordinary domain errors (bad lengths, letters out
of range, malformed pmfs). The classes below mark conditions callers may want
to branch on: exhausted enumeration/size budgets, infeasible cost constraints,
degenerate typical sets, and failed constructions.
"""


class DiCodesError(Exception):
    """Base class for package-specific errors."""


class BudgetError(DiCodesError):
    """An enumeration, size, or memory budget would be exceeded.

    The message always names the budget and the offending quantity.
    """


# Builds (DMC codebooks, Gaussian packings, discretized channels) are refused
# before they allocate when their peak could pass this many bytes.
_MAX_BUILD_BYTES = 2**32


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
