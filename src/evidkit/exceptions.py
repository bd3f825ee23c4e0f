"""Exception types shared across the toolkit."""

__all__ = [
    "EvidkitError",
    "NumericFailure",
    "ConvergenceFailure",
    "AccuracyFailure",
    "CurvatureFailure",
    "DegeneracyFailure",
    "SelectionFailure",
    "DataError",
    "UsageError",
]


class EvidkitError(Exception):
    """Base class for all toolkit errors."""


class NumericFailure(EvidkitError):
    """Non-finite arithmetic, or a positive-definite factorization failed.

    ``row`` is set when the failure belongs to one row of a stacked evaluation.
    """

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class ConvergenceFailure(EvidkitError):
    """Optimizer exhausted its iteration budget without meeting tolerances.

    Carries the best iterate seen so far so the caller can inspect or
    restart from it.
    """

    def __init__(self, message, best_theta=None, best_value=None):
        super().__init__(message)
        self.best_theta = best_theta
        self.best_value = best_value


class AccuracyFailure(EvidkitError):
    """A quadrature error estimate exceeded the caller's tolerance.

    ``value`` and ``coarse_value`` hold the fine- and half-resolution
    results that produced the estimate.
    """

    def __init__(self, message, value=None, coarse_value=None, err_estimate=None):
        super().__init__(message)
        self.value = value
        self.coarse_value = coarse_value
        self.err_estimate = err_estimate


class CurvatureFailure(EvidkitError):
    """Hessian at the fitted point is not positive definite (saddle or ridge)."""


class DegeneracyFailure(EvidkitError):
    """Importance weights collapsed; ``ess`` holds the effective sample size."""

    def __init__(self, message, ess=None):
        super().__init__(message)
        self.ess = ess


class SelectionFailure(EvidkitError):
    """Evidence evaluation failed for a model-set member.

    ``index`` is the failing member; ``replicate`` is set when the failure
    happened inside a Monte Carlo replicate.
    """

    def __init__(self, message, index=None, replicate=None):
        super().__init__(message)
        self.index = index
        self.replicate = replicate


class DataError(EvidkitError):
    """Malformed input data file."""


class UsageError(EvidkitError):
    """Invalid command-line arguments."""
