"""Argument-domain rules and the exception hierarchy for runtime conditions.

Plain parameter-domain violations raise ValueError.  The generic rules live
here, each stated once, as the private ``_check_*`` functions below: an open
unit interval, a failure probability in (2^-54, 1) whose coverage
1 - delta is below 1.0 as a float, a positive or a nonnegative finite real,
an integer at or above a bound (seeds and stream ids also below 2^64), and a
Poisson mean, a nonnegative finite real at most :data:`POISSON_MEAN_MAX`,
numpy's limit.
Every message names the argument, the rule and the value.  Every module
applies these rules to its own arguments, and the CLI's float options apply
the same functions and report their message as a usage error.  A check that
belongs to one function stays in that function.

The classes here cover conditions that arise mid-run and that callers may
want to catch and handle individually.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "POISSON_MEAN_MAX",
    "GpasError",
    "BudgetExceededError",
    "CalibrationError",
    "IterationCapError",
    "SizeExceededError",
]

# The largest mean numpy's Poisson sampler accepts: int64 max less ten of its
# square roots, so a count stays in int64.  numpy raises above it.
POISSON_MEAN_MAX = float(2**63 - 1 - 10 * math.sqrt(2**63 - 1))


def _check_unit_interval(name: str, value: float) -> None:
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {value!r}")


def _check_coverage_delta(name: str, value: float) -> None:
    # a failure probability whose interval coverage 1 - value is below 1.0:
    # at or below 2**-54 the float 1 - value rounds to 1.0
    _check_unit_interval(name, value)
    if not 1.0 - value < 1.0:
        raise ValueError(
            f"{name} must exceed 2**-54, so that the coverage 1 - {name} is below 1.0, "
            f"got {value!r}"
        )


def _check_positive_finite(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be a positive finite real, got {value!r}")


def _check_nonnegative_finite(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be a nonnegative finite real, got {value!r}")


def _check_integer(name: str, value: int, minimum: int, limit: float = math.inf) -> None:
    # an int or numpy integer in [minimum, limit); a seed's limit is 2**64
    if not (isinstance(value, (int, np.integer)) and minimum <= value < limit):
        span = f">= {minimum}" if limit == math.inf else f"in [{minimum}, {limit})"
        raise ValueError(f"{name} must be an integer {span}, got {value!r}")


def _check_poisson_mean(name: str, value: float) -> None:
    _check_nonnegative_finite(name, value)
    if value > POISSON_MEAN_MAX:
        raise ValueError(
            f"{name} must be at most {POISSON_MEAN_MAX!r}, numpy's Poisson limit, got {value!r}"
        )


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
    probability, when the failure probability cannot be evaluated at a
    probed index (a Gamma tail that does not converge), or when it is found
    to be non-monotone over the probed range (the search relies on
    monotonicity).
    """


class IterationCapError(GpasError):
    """A nested-family descent exceeded its step cap."""


class SizeExceededError(GpasError):
    """A graph is too large for exact enumeration."""
