"""Normalizing-constant ratio estimation over a nested Gibbs family.

A Gibbs family Z(beta) = sum_x exp(beta * H(x)) with H >= 0 shrinks as beta
decreases, forming a nested family of weighted sets.  One descent
(:func:`tpa_run`) walks beta downward from ``beta_outer`` by
beta <- beta + ln(U)/H(X), with X ~ Gibbs(beta) drawn afresh each step: in
log-partition coordinates those steps are the points of a unit-rate Poisson
process descending from ln Z(beta_outer), so the number of steps landing
above ``beta_inner`` is exactly Poisson with mean

    r = ln( Z(beta_outer) / Z(beta_inner) ).

That makes a descent a drop-in count: ``PoissonSource(partial(tpa_run,
family, rng))`` feeds the exact Poisson-mean machinery in :mod:`gpas.core`
one descent per count.  :func:`two_phase_scheme` composes the two: a
first phase pins r roughly, a second phase re-estimates it at the precision
needed so that exp(r_hat) lands within a factor (1 +- epsilon) of the true
ratio; by the union bound both phases succeed with probability at least
1 - delta.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import partial

from .core import (
    DEFAULT_SOURCE_BUDGET,
    ConfidenceInterval,
    GpasResult,
    PoissonSource,
    confidence_interval,
    exact_gpas,
)
from .errors import (
    BudgetExceededError,
    CalibrationError,
    IterationCapError,
    _check_coverage_delta,
    _check_positive_finite,
    _check_unit_interval,
)
from .numerics import RngStream

__all__ = [
    "NestedGibbsFamily",
    "TpaReport",
    "tpa_run",
    "phase2_epsilon",
    "two_phase_from_source",
    "two_phase_scheme",
]

DEFAULT_STEP_CAP = 1_000_000

# The phase-2 precision formula exceeds 1 when the phase-1 estimate is below
# ln(1 + epsilon); clamping below 1 keeps calibration well-posed and only
# ever tightens phase 2.
_EPSILON2_CEILING = 1.0 - 1e-9


class NestedGibbsFamily(ABC):
    """A beta-indexed Gibbs family exposed through samples of H(X).

    The descent update depends on the sampled state only through its
    Hamiltonian, so implementations need not produce full states: they
    return a draw of H(X) for X ~ Gibbs(beta), a nonnegative real (an int
    will do) confined to a fixed finite range [0, H_max].  ``beta_outer`` is
    the start (target) parameter and ``beta_inner`` the end (reference)
    parameter, with beta_inner < beta_outer.

    Instances must be safe for concurrent read-only use after construction;
    all per-run mutable state lives in the caller's stream.
    """

    beta_outer: float
    beta_inner: float

    @abstractmethod
    def sample_hamiltonian(self, beta: float, rng: RngStream) -> float:
        """One draw of H(X) with X ~ Gibbs(beta)."""


def tpa_run(family: NestedGibbsFamily, rng: RngStream) -> int:
    """One descent; the count is Poisson(ln(Z(beta_outer)/Z(beta_inner))).

    Starting at ``beta_outer``, each step draws H at the current beta and
    moves to beta + ln(U)/H with U uniform; when H = 0 the step lands at
    minus infinity.  Returns the number of steps whose updated beta stays
    strictly above ``beta_inner``: the 0-based index of the step that ends
    the descent, at or below it.  Each step takes U from the stream's
    ``uniforms`` iterator, so ``rng`` is any stream that provides one and
    that ``family.sample_hamiltonian`` accepts.

    Raises:
        ValueError: if the family's beta ordering is invalid or it produces
            a negative or non-finite Hamiltonian.
        IterationCapError: if all :data:`DEFAULT_STEP_CAP` steps (read at
            call time) stay above ``beta_inner``, so a descent returns at
            most ``DEFAULT_STEP_CAP - 1``.
    """
    if not family.beta_inner < family.beta_outer:
        raise ValueError(
            f"beta_inner must be below beta_outer, got "
            f"[{family.beta_inner!r}, {family.beta_outer!r}]"
        )
    beta = family.beta_outer
    beta_inner = family.beta_inner
    # bound once: a descent runs these on every step
    sample_hamiltonian = family.sample_hamiltonian
    next_uniform = rng.uniforms.__next__
    log, inf = math.log, math.inf
    # the loop index is the count: every earlier step stayed above beta_inner
    for count in range(DEFAULT_STEP_CAP):
        # a family may return an int level; the float checks and step below
        # run about 5% faster per descent on a float
        h = float(sample_hamiltonian(beta, rng))
        if not 0.0 <= h < inf:  # also false for NaN
            raise ValueError(f"family produced an invalid Hamiltonian {h!r}")
        u = next_uniform()
        if h == 0.0 or u == 0.0:
            return count  # step lands at -inf
        beta += log(u) / h
        if beta <= beta_inner:
            return count
    raise IterationCapError(f"descent did not finish within {DEFAULT_STEP_CAP} steps")


@dataclass(frozen=True)
class TpaReport:
    """End-to-end result of the two-phase ratio scheme.

    ``ratio_estimate = exp(r_hat2)`` and ``total_tpa_calls`` is the sum of
    counts consumed by both phases.  ``ci`` is the phase-2 exact interval
    for r mapped through exp, at coverage 1 - delta.  An exponential beyond
    the float range (an argument above ln(DBL_MAX), about 709.78) is inf,
    the IEEE result, in the ratio and in either endpoint.
    """

    r_hat1: float
    r_hat2: float
    epsilon2: float
    ratio_estimate: float
    ci: ConfidenceInterval
    total_tpa_calls: int


def _exp(x: float) -> float:
    # math.exp raises OverflowError where IEEE arithmetic gives inf
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def phase2_epsilon(epsilon: float, r_hat1: float) -> float:
    """Phase-2 precision target ln(1 + epsilon) * (1 - epsilon) / r_hat1.

    This is the log-to-ratio precision transfer.  If
    |r_hat/r - 1| <= ln(1 + epsilon)/r then exp(r_hat)/exp(r) lies in
    [1/(1 + epsilon), 1 + epsilon], a subset of [1 - epsilon, 1 + epsilon];
    ln(1 + epsilon) is the binding side, smaller in magnitude than
    ln(1 - epsilon).  A successful phase 1 guarantees
    r <= r_hat1 / (1 - epsilon), so applying the rule at that worst case
    keeps the final ratio within epsilon.  Clamped just below 1 so
    calibration stays well-posed for very small phase-1 estimates.
    ``gpas validate`` certifies this function at both ends of phase 1's
    success interval, the clamp included.
    """
    _check_unit_interval("epsilon", epsilon)
    _check_positive_finite("r_hat1", r_hat1)
    return min(math.log1p(epsilon) * (1.0 - epsilon) / r_hat1, _EPSILON2_CEILING)


def two_phase_from_source(
    source: PoissonSource,
    epsilon: float,
    delta: float,
    rng: RngStream,
) -> TpaReport:
    """Two-phase (epsilon, delta)-approximation of exp(r) from Poisson(r) counts.

    Both phases draw from ``source``.  A budget and a charge belong to one
    run, so each phase may draw up to ``source.max_calls`` counts, the total
    is the sum of the phases' ``draws_used``, and ``source.call_count`` is
    phase 2's charge afterwards.  Phase 1 estimates r to within epsilon at
    confidence delta/2; phase 2 re-estimates it at the transferred precision
    :func:`phase2_epsilon` and confidence delta/2.  By the union bound,
    exp(r_hat2) is within a factor (1 +- epsilon) of exp(r) with probability
    at least 1 - delta.

    Raises:
        ValueError: if epsilon is outside (0, 1), or delta outside
            (2^-54, 1), where the interval's coverage 1 - delta rounds to 1.
        BudgetExceededError: if either phase exhausts its draw budget; the
            message names the phase, and for phase 2 the counts phase 1 drew.
        CalibrationError: if no index up to the cap reaches a phase's
            precision; the message names the phase.  Phase 2's k grows
            like r_hat1^2: at epsilon 0.2 and delta 0.01 it passes
            :data:`~gpas.core.DEFAULT_K_CAP` whenever r_hat1 exceeds 164.3
            (a bisection on ``calibrate(phase2_epsilon(0.2, r_hat1),
            0.005)``), so K24 (log-ratio 260.1) raises.
        IterationCapError: if a descent the source runs exceeds its step
            cap; the message names the phase.
    """
    _check_unit_interval("epsilon", epsilon)
    _check_coverage_delta("delta", delta)

    def phase(number: int, eps: float, drawn_before: str = "") -> GpasResult:
        # a descent's mean is the log-ratio, so name the phase, not a mean of 0
        try:
            return exact_gpas(source, eps, delta / 2.0, rng)
        except BudgetExceededError as exc:
            raise BudgetExceededError(
                f"phase {number} of 2 exhausted its budget of {source.max_calls} "
                f"draws{drawn_before}"
            ) from exc
        except (CalibrationError, IterationCapError) as exc:
            raise type(exc)(f"phase {number} of 2: {exc}") from exc

    first = phase(1, epsilon)
    eps2 = phase2_epsilon(epsilon, first.mu_hat)
    second = phase(2, eps2, f" (phase 1 drew {first.draws_used})")
    log_ci = confidence_interval(second, 1.0 - delta)
    ci = ConfidenceInterval(
        lower=_exp(log_ci.lower),
        upper=_exp(log_ci.upper),
        coverage=log_ci.coverage,
    )
    return TpaReport(
        r_hat1=first.mu_hat,
        r_hat2=second.mu_hat,
        epsilon2=eps2,
        ratio_estimate=_exp(second.mu_hat),
        ci=ci,
        total_tpa_calls=first.draws_used + second.draws_used,
    )


def two_phase_scheme(
    family: NestedGibbsFamily,
    epsilon: float,
    delta: float,
    rng: RngStream,
    max_calls: int = DEFAULT_SOURCE_BUDGET,
) -> TpaReport:
    """Two-phase ratio approximation driven by descents on ``family``.

    One descent is one count; ``max_calls`` is each phase's descent budget.
    """
    source = PoissonSource(partial(tpa_run, family, rng), max_calls=max_calls)
    return two_phase_from_source(source, epsilon, delta, rng)
