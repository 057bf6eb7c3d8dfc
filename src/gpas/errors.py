"""Exception hierarchy for runtime conditions.

Plain parameter-domain violations raise ValueError; the classes here cover
conditions that arise mid-run and that callers may want to catch and handle
individually.
"""


class GpasError(Exception):
    """Base class for package-specific runtime errors."""


class BudgetExceededError(GpasError):
    """A count source hit its draw budget before the run could finish.

    This is the guard against sources whose mean is (close to) zero, where a
    sequential stopping rule would otherwise never accumulate enough arrivals
    to terminate.
    """


class CalibrationError(GpasError):
    """The search for the calibrated arrival index failed.

    Raised when no index below the configured cap reaches the target failure
    probability, or when the failure probability is found to be non-monotone
    over the probed range (the search relies on monotonicity).
    """


class IterationCapError(GpasError):
    """A nested-family descent exceeded its step cap."""


class SizeExceededError(GpasError):
    """A graph is too large for exact enumeration."""
