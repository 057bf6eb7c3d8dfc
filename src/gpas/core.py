"""Sequential Poisson-mean estimation with an exactly known error law.

The estimator consumes a stream of iid Poisson(mu) counts, reading them as
the interval occupancy numbers of a rate-mu Poisson point process on
[0, inf): the i-th count is the number of process points in [i, i+1).  Once
the cumulative count reaches a chosen index k, the position of the k-th
point inside its interval is recovered exactly from the order statistics of
uniforms (a Beta draw), giving the k-th arrival time T'.  The estimate is

    mu_hat = (k - 1) / T'.

Because mu * T' ~ Gamma(k, 1) no matter what mu is, the relative error
mu_hat / mu - 1 has a fixed, mu-free distribution: mu_hat is inverse-gamma
with shape k and scale (k - 1) mu, unbiased, with standard deviation
mu / sqrt(k - 2).  Three consequences are implemented here:

* ``failure_probability`` evaluates P(|mu_hat/mu - 1| > eps) in closed form
  from the Gamma CDF;
* ``calibrate``/``exact_gpas`` pick k (with a randomized tie-break between
  k and k - 1) so that the failure probability equals a requested delta
  exactly, not merely at most;
* ``confidence_interval`` turns one run into an interval with exact
  coverage by dividing Gamma points, each from its own tail, by T'.

The counts come from a :class:`PoissonSource`: a zero-argument ``draw``
callable with a draw budget.  The budget and the charge belong to one run:
each run may draw up to ``max_calls`` counts, and ``call_count`` holds the
counts its last run drew.  The expected number of counts consumed by a run
is at most 1 + k / mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from scipy.special import gammainccinv, ndtri

from .errors import (
    BudgetExceededError,
    CalibrationError,
    _check_integer,
    _check_poisson_mean,
    _check_unit_interval,
)
from .numerics import (
    RngStream,
    _reg_upper_gamma,
    gamma_quantile,
    reg_lower_gamma,
    sample_bernoulli,
    sample_beta,
    sample_poisson,
)

__all__ = [
    "DEFAULT_K_CAP",
    "DEFAULT_SOURCE_BUDGET",
    "PoissonSource",
    "SyntheticPoissonSource",
    "GpasResult",
    "Calibration",
    "ConfidenceInterval",
    "gpas",
    "failure_probability",
    "calibrate",
    "exact_gpas",
    "confidence_interval",
]

DEFAULT_SOURCE_BUDGET = 1_000_000
# Largest arrival index calibrate searches up to unless told otherwise.
DEFAULT_K_CAP = 10_000_000

# Tolerance for the monotonicity assertion during calibration search; float
# noise between nearly equal failure probabilities must not trip it.
_MONOTONE_SLACK = 1e-12

# {delta: k - guess} of the last calibration calibrate computed: at a fixed
# delta the minimal k sits a nearly constant distance above the normal guess
_last_offset: dict[float, float] = {}


class PoissonSource:
    """Stream of iid nonnegative integer counts with a common unknown mean.

    ``draw`` is a zero-argument callable that returns the next count.  The
    source adds ``max_calls``, the budget of counts one run may draw, and
    ``call_count``, the counts its last run drew; :func:`gpas`, the only
    consumer, calls ``draw``, stops at the budget and sets ``call_count``
    when it stops.  Each run starts with the whole budget.  The budget is
    the guard against a mean of (nearly) zero, where a sequential stopping
    rule would never accumulate enough arrivals to terminate.

    A source is single-owner state: one estimator run at a time.
    """

    def __init__(self, draw: Callable[[], int], max_calls: int = DEFAULT_SOURCE_BUDGET) -> None:
        _check_integer("max_calls", max_calls, 1)
        self.draw = draw
        self.max_calls = max_calls
        self.call_count = 0


class SyntheticPoissonSource(PoissonSource):
    """Source of exact Poisson(mu) counts from a caller-owned stream.

    ``draw`` is ``sample_poisson`` bound to the stream and mu.  A mean above
    :data:`~gpas.numerics.POISSON_MEAN_MAX`, which numpy cannot draw from,
    is rejected here rather than at the first draw.
    """

    def __init__(
        self,
        mu: float,
        rng: RngStream,
        max_calls: int = DEFAULT_SOURCE_BUDGET,
    ) -> None:
        _check_poisson_mean("mu", mu)
        super().__init__(partial(sample_poisson, rng, mu), max_calls=max_calls)


@dataclass(frozen=True)
class GpasResult:
    """One estimator run.

    ``t_prime`` is the k-th arrival time of the embedded point process,
    ``mu_hat = (k - 1) / t_prime`` the estimate, and ``draws_used`` the
    number of counts consumed (equal to ceil(t_prime) whenever t_prime is
    not an integer, which is almost surely).
    """

    k: int
    t_prime: float
    mu_hat: float
    draws_used: int


@dataclass(frozen=True)
class Calibration:
    """Arrival index calibrated to a target failure probability.

    ``k`` is the minimal index (at least 3) whose failure probability
    ``f_k`` is at most ``delta``; running with k - 1 instead with
    probability ``p`` makes the overall failure probability exactly delta:
    p * f_km1 + (1 - p) * f_k = delta.
    """

    epsilon: float
    delta: float
    k: int
    p: float
    f_k: float
    f_km1: float


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    coverage: float


def gpas(source: PoissonSource, k: int, rng: RngStream) -> GpasResult:
    """Estimate the source mean from the k-th arrival of the point process.

    Counts are drawn one interval at a time.  When the interval holding the
    k-th point is reached, that interval's points are uniform on it given
    their number, so the position of the k-th point is the (k - A)-th order
    statistic of T uniforms: interval start plus a
    Beta(k - A, T - (k - A) + 1) draw, where A is the number of points in
    earlier intervals and T this interval's count.

    The returned ``mu_hat`` is distributed inverse-gamma with shape ``k``
    and scale ``(k - 1) mu``; the expected number of draws is at most
    1 + k / mu.  The run draws at most ``source.max_calls`` counts and sets
    ``source.call_count`` to the number drawn, also when it raises: the
    budget when it runs out, and the counts before a draw that raises.

    Raises:
        ValueError: if ``k`` is not an integer >= 2 (the estimate's mean
            exists only for k > 1).
        BudgetExceededError: if the source budget runs out first.
    """
    _check_integer("k", k, 2)
    # the budget bounds the loop, so a count costs only the draw, a sum and
    # one test; call_count is set once, however the run ends
    draw = source.draw
    arrivals = 0
    drawn = 0  # counts drawn so far; a draw that raises is not among them
    try:
        for drawn in range(source.max_calls):
            count = draw()
            arrivals += count
            if arrivals >= k:
                break
        else:
            drawn = source.max_calls
            raise BudgetExceededError(
                f"count source exhausted its budget of {source.max_calls} draws "
                "(is the mean 0, or the budget too small?)"
            )
        drawn += 1
    finally:
        source.call_count = drawn
    # the k-th point is the within-th of the last interval's count points
    within = k - (arrivals - count)
    a, b = within, count - within + 1
    assert a >= 1 and b >= 1, "beta parameters must be >= 1 by construction"
    t_prime = drawn - 1 + sample_beta(rng, a, b)
    mu_hat = (k - 1) / t_prime
    return GpasResult(k=k, t_prime=t_prime, mu_hat=mu_hat, draws_used=drawn)


def failure_probability(k: int, epsilon: float) -> float:
    """Exact P(|mu_hat_k / mu - 1| > epsilon), independent of mu.

    Since mu * T' ~ Gamma(k, 1) and mu_hat = (k - 1)/T', the failure event
    is {G <= 1/(1 + eps)} union {G > 1/(1 - eps)} for G ~ Gamma(k, k - 1),
    so the probability is a sum of two exact Gamma tail values.  The upper
    tail is evaluated directly, not as one minus the CDF, so it keeps its
    relative precision when it is far below machine epsilon.
    """
    _check_integer("k", k, 2)
    _check_unit_interval("epsilon", epsilon)
    k = int(k)
    rate = float(k - 1)
    low_tail = reg_lower_gamma(k, rate / (1.0 + epsilon))
    high_tail = _reg_upper_gamma(k, rate / (1.0 - epsilon))
    return low_tail + high_tail


def calibrate(epsilon: float, delta: float, k_cap: int = DEFAULT_K_CAP) -> Calibration:
    """Find the minimal k >= 3 whose failure probability is at most delta.

    mu * T' ~ Gamma(k, 1), so by the central limit theorem the minimal k is
    close to g = (z_{1-delta/2} / eps)^2.  The search probes
    max(3, ceil(g)), or k_cap if that is smaller, steps up or down from
    there, by max(1, start // 64) at first and doubling, until the crossing
    of delta is bracketed, then bisects: about a dozen probes of
    :func:`failure_probability` anywhere in the (eps, delta) domain.

    The offset k - g of the last calibration computed is remembered with its
    delta.  At a fixed delta it barely moves with eps (between 13.4 and 14.5
    at delta = 0.005 for eps from 0.005 to 0.2), so a later calibration at
    the same delta starts at max(3, ceil(g + offset) - 1) with a first step
    of 1, if g + offset is below k_cap.  The offset already holds the last
    search's rounding up to an integer k, so while the real crossing stays
    the same distance above g, ceil(g + offset) is the minimal k or one
    above it, and the start one below is k - 1 or k: the search brackets
    the crossing with its second probe and probes only the two tails that p
    needs.  Both phases of a two-phase run calibrate at delta / 2, so after
    a process's first calibration each phase starts from the other's offset
    and probes twice, phase 1 at k = 211 and 210 for eps 0.2, delta 0.005.
    Either start changes which indices are probed, never the k, p or tail
    values found.  The offset is the only state kept between calls, and a
    calibration that raises records none.

    The failure probability is nonincreasing in k over any sensible range;
    monotonicity is asserted over every probed index rather than assumed
    globally.  The mixing probability p makes the randomized k / k - 1
    choice fail with probability exactly delta.  In the corner where even
    k = 2 already beats delta, no exact mixture exists and p is clamped to
    1 (always use k - 1 = 2; strictly conservative).

    Raises:
        ValueError: on parameters outside (0, 1), or a k_cap that is not
            an integer >= 3.
        CalibrationError: if no k <= k_cap suffices, or monotonicity fails.
            The upward bracket is not capped; once its lower end reaches
            k_cap the search stops, and otherwise the error names the
            minimal k, found above k_cap.  Also if the failure probability
            at a probed k raises ArithmeticError (a Gamma tail that does
            not converge); the error names k and epsilon.
    """
    _check_unit_interval("epsilon", epsilon)
    _check_unit_interval("delta", delta)
    _check_integer("k_cap", k_cap, 3)

    probes: dict[int, float] = {}

    def f(k: int) -> float:
        if k not in probes:
            try:
                probes[k] = failure_probability(k, epsilon)
            except ArithmeticError as exc:
                raise CalibrationError(
                    f"failure probability at k={k}, epsilon={epsilon} not found: {exc}"
                ) from exc
        return probes[k]

    # a guess beyond k_cap (infinite once delta / 2 underflows, or once
    # |z| / epsilon passes about 1.34e154, where float ** raises) starts at
    # k_cap, so no probe runs far past the cap
    try:
        guess = (float(ndtri(0.5 * delta)) / epsilon) ** 2
    except OverflowError:
        guess = math.inf
    offset = _last_offset.get(delta)
    if offset is not None and guess + offset < k_cap:
        start = max(3, math.ceil(guess + offset) - 1)
        step = 1
    else:
        start = max(3, math.ceil(guess)) if guess < k_cap else k_cap
        step = max(1, start >> 6)
    lo = hi = start
    if f(start) > delta:
        # invariant f(lo) > delta; ends with f(hi) <= delta
        while f(hi) > delta:
            lo = hi
            if lo >= k_cap:
                raise CalibrationError(
                    f"no k <= {k_cap} reaches failure probability {delta} "
                    f"at epsilon={epsilon}"
                )
            hi += step
            step *= 2
    else:
        # invariant f(hi) <= delta; ends with f(lo) > delta or hi == 3
        while hi > 3:
            lo = max(3, hi - step)
            if f(lo) > delta:
                break
            hi = lo
            step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f(mid) <= delta:
            hi = mid
        else:
            lo = mid
    k_star = hi
    if k_star > k_cap:
        raise CalibrationError(
            f"the minimal k for failure probability {delta} at "
            f"epsilon={epsilon} is {k_star}, above k_cap={k_cap}"
        )

    f_k = f(k_star)
    f_km1 = f(k_star - 1)

    ks = sorted(probes)
    for k_a, k_b in zip(ks, ks[1:]):
        if probes[k_b] > probes[k_a] + _MONOTONE_SLACK:
            raise CalibrationError(
                f"failure probability is not monotone between k={k_a} "
                f"({probes[k_a]}) and k={k_b} ({probes[k_b]})"
            )

    if f_km1 <= delta:
        p = 1.0
    else:
        p = (delta - f_k) / (f_km1 - f_k)
    _last_offset.clear()
    _last_offset[delta] = k_star - guess
    return Calibration(
        epsilon=epsilon, delta=delta, k=k_star, p=p, f_k=f_k, f_km1=f_km1
    )


def exact_gpas(
    source: PoissonSource,
    epsilon: float,
    delta: float,
    rng: RngStream,
) -> GpasResult:
    """Run the estimator with failure probability exactly delta.

    Calibrates k for (epsilon, delta), decrements it by one with the
    calibrated tie-break probability, and runs :func:`gpas` with the chosen
    index, so P(|mu_hat/mu - 1| > epsilon) = delta exactly.
    """
    cal = calibrate(epsilon, delta)
    k = cal.k - 1 if sample_bernoulli(rng, cal.p) else cal.k
    return gpas(source, k, rng)


def confidence_interval(result: GpasResult, coverage: float) -> ConfidenceInterval:
    """Exact equal-tailed interval for the source mean from one run.

    mu * t_prime ~ Gamma(k, 1) regardless of mu, so dividing by t_prime the
    Gamma(k, 1) points with lower tail (1 - coverage)/2 and with upper tail
    (1 - coverage)/2 yields an interval containing mu with probability
    exactly ``coverage``.  Each endpoint comes from its own tail: the lower
    one is :func:`~gpas.numerics.gamma_quantile` at the tail, the upper one
    ``scipy.special.gammainccinv`` at the tail.  The quantile at 1 - tail
    would round the tail to the float spacing below 1 (1.1e-16), and no
    such level is left for a tail of 2^-54.  Both endpoints stay within
    1e-14 relative of mpmath for k from 2 to 1.5e6 and tails from 2^-54 to
    0.25 (``test_confidence_interval_endpoints_against_mpmath``).
    """
    _check_unit_interval("coverage", coverage)
    tail = 0.5 * (1.0 - coverage)
    lower = gamma_quantile(result.k, tail) / result.t_prime
    upper = float(gammainccinv(result.k, tail)) / result.t_prime
    return ConfidenceInterval(lower=lower, upper=upper, coverage=coverage)
