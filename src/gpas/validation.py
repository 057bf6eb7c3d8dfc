"""Statistical property checks shared by the validate command and the tests.

Each check replays a documented distributional property of the estimator
stack at a fixed seed and reports a :class:`PropertyResult`: the
Gamma-arrival law of the estimator, scale-freeness of its relative error,
unbiasedness, the running-time bound, exactness of the calibrated failure
probability, interval coverage, Poisson-ness of the nested-family descent,
the log-to-ratio precision transfer, and the end-to-end two-phase guarantee.
The checks are the single definition of these properties: ``gpas validate``
runs them through :func:`run_all`, and the unit tests and acceptance criteria
call them at their own n and seed and assert that they pass.  A check's
model parameters are constants in its body; only
:func:`check_distribution_law` also takes ``mu`` and ``k``, which the
full-grid test of the arrival law sets.

Every replicate loop, here and in the CLI, runs through one engine,
:func:`replicate`: replicate i draws from ``RngStream(seed, stream_offset +
i)`` and no other stream, so replicates are independent and parallelize
trivially, and the stream addressing lives in one place.  Numeric callers
collect its results with ``np.fromiter``, so no loop keeps one Python object
per replicate.  The module also holds the fixed-sample Chernoff-calibrated
baseline used as the comparison arm for call-count benchmarks.

Every check runs through one rule, :func:`_check`: below the replicates it
needs (:data:`MIN_REPLICATES`, or more for a rare event) it is skipped and
passes, with no statistic or threshold; otherwise it measures and reports
its verdict.  A check states only its model constants, what it measures and
how it compares.  Each test rule is stated once.  The KS statistics and the
chi-square test are scipy's; the exactness, coverage and two-phase checks
share one binomial-frequency rule.  ``scipy.stats`` is loaded on first use,
so importing this module, and through it the CLI, does not pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np
from scipy.special import chndtr, kolmogi

from .core import (
    SyntheticPoissonSource,
    confidence_interval,
    exact_gpas,
    gpas,
)
from .ising import IsingGibbsFamily, LatticeGraph, build_histogram, log_partition_function
from .errors import _check_nonnegative_finite, _check_positive_finite, _check_unit_interval
from .numerics import RngStream, sample_poisson
from .tpa import (
    phase2_epsilon,
    relative_error_transfer,
    tpa_run,
    two_phase_from_source,
)

__all__ = [
    "KS_SIGNIFICANCE",
    "PropertyResult",
    "ks_critical_value",
    "poisson_chi_square_pvalue",
    "replicate",
    "replicate_gpas",
    "replicate_two_phase",
    "chernoff_tail_bound",
    "chernoff_total_mean",
    "chernoff_fixed_sample_size",
    "chernoff_two_phase_calls",
    "run_all",
]

KS_SIGNIFICANCE = 0.001
CHI_SQUARE_SIGNIFICANCE = 0.001

# Stochastic checks below this many replicates have no statistical power and
# are reported as skipped rather than pass/fail.
MIN_REPLICATES = 100

T = TypeVar("T")

# what a check measures: (passed, statistic, threshold, detail)
_Verdict = tuple[bool, float, float, str]

# one record per replicate: the harnesses return the fields as array views
_GPAS_RUN = np.dtype([("t_prime", np.float64), ("draws", np.int64)])
_TWO_PHASE_RUN = np.dtype([("ratio", np.float64), ("calls", np.int64)])


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of one property check."""

    name: str
    passed: bool
    skipped: bool
    statistic: float | None
    threshold: float | None
    detail: str


# ---------------------------------------------------------------------------
# Test-statistic helpers
# ---------------------------------------------------------------------------


def _stats():
    """``scipy.stats``, imported on first use.

    It roughly doubles the package's import cost, so importing this module,
    and through it the CLI, does not load it.
    """
    from scipy import stats

    return stats


def ks_critical_value(n: int, m: int | None = None) -> float:
    """Asymptotic Kolmogorov-Smirnov critical value at :data:`KS_SIGNIFICANCE`.

    One-sample for ``m is None``; otherwise the two-sample value for sizes
    (n, m).
    """
    scale = math.sqrt((n + m) / (n * m)) if m is not None else 1.0 / math.sqrt(n)
    return float(kolmogi(KS_SIGNIFICANCE)) * scale


def poisson_chi_square_pvalue(counts: Sequence[int], mean: float) -> float:
    """Chi-square goodness-of-fit p-value of integer counts vs Poisson(mean).

    Bins are pooled from both ends until every expected count is at least 5;
    scipy's test of the pooled bins treats the mean as known, so degrees of
    freedom are bins - 1.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = counts.size
    top = int(counts.max()) + 1
    observed = np.bincount(counts, minlength=top + 1).astype(np.float64)
    stats = _stats()
    pmf = stats.poisson.pmf(np.arange(top), mean)
    expected = np.append(pmf, stats.poisson.sf(top - 1, mean)) * n

    # pool the sparse tails inward so the chi-square approximation is valid
    obs_bins: list[float] = []
    exp_bins: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            obs_bins.append(acc_o)
            exp_bins.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0 and exp_bins:
        obs_bins[-1] += acc_o
        exp_bins[-1] += acc_e
    if len(exp_bins) < 2:
        raise ValueError("not enough occupied bins for a chi-square fit")
    return float(stats.chisquare(obs_bins, exp_bins).pvalue)


# ---------------------------------------------------------------------------
# Replicate engine and harnesses (one stream id per replicate)
# ---------------------------------------------------------------------------


def replicate(
    run: Callable[[RngStream], T], replicates: int, seed: int, stream_offset: int = 0
) -> Iterator[T]:
    """Yield ``run(RngStream(seed, stream_offset + i))`` for each replicate i."""
    for i in range(replicates):
        yield run(RngStream(seed, stream_offset + i))


def replicate_gpas(
    mu: float, k: int, replicates: int, seed: int, stream_offset: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Run the estimator ``replicates`` times; returns (t_primes, draws)."""

    def run(rng: RngStream) -> tuple[float, int]:
        result = gpas(SyntheticPoissonSource(mu, rng), k, rng)
        return result.t_prime, result.draws_used

    runs = np.fromiter(
        replicate(run, replicates, seed, stream_offset), dtype=_GPAS_RUN, count=replicates
    )
    return runs["t_prime"], runs["draws"]


def replicate_two_phase(
    mu: float,
    epsilon: float,
    delta: float,
    replicates: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Two-phase scheme on a synthetic Poisson(mu) source (descent bypassed).

    Returns (ratio_estimates, total_calls).
    """

    def run(rng: RngStream) -> tuple[float, int]:
        report = two_phase_from_source(SyntheticPoissonSource(mu, rng), epsilon, delta, rng)
        return report.ratio_estimate, report.total_tpa_calls

    runs = np.fromiter(
        replicate(run, replicates, seed), dtype=_TWO_PHASE_RUN, count=replicates
    )
    return runs["ratio"], runs["calls"]


# ---------------------------------------------------------------------------
# Fixed-sample Chernoff-calibrated comparison arm
# ---------------------------------------------------------------------------


def chernoff_tail_bound(total_mean: float, epsilon: float) -> float:
    """Two-sided Chernoff bound on P(|S/lam - 1| > eps) for S ~ Poisson(lam).

    exp(-lam h(eps)) + exp(-lam h(-eps)) with h(a) = (1+a)ln(1+a) - a.
    """
    _check_nonnegative_finite("total_mean", total_mean)
    _check_unit_interval("epsilon", epsilon)
    total_mean = float(total_mean)
    upper = (1.0 + epsilon) * math.log1p(epsilon) - epsilon
    lower = (1.0 - epsilon) * math.log1p(-epsilon) + epsilon
    return math.exp(-total_mean * upper) + math.exp(-total_mean * lower)


def chernoff_total_mean(epsilon: float, delta: float) -> float:
    """Minimal total expected count lam with the Chernoff bound at most delta."""
    _check_unit_interval("delta", delta)
    lo, hi = 0.0, 1.0
    while chernoff_tail_bound(hi, epsilon) > delta:
        hi *= 2.0
        if hi > 1e18:
            raise ArithmeticError("Chernoff target is unreachable")
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if chernoff_tail_bound(mid, epsilon) <= delta:
            hi = mid
        else:
            lo = mid
    return hi


def chernoff_fixed_sample_size(mu: float, epsilon: float, delta: float) -> int:
    """Draws of Poisson(mu) a fixed-sample mean needs per the Chernoff bound."""
    _check_positive_finite("mu", mu)
    return math.ceil(chernoff_total_mean(epsilon, delta) / mu)


def chernoff_two_phase_calls(
    mu: float, epsilon: float, delta: float, replicates: int, seed: int
) -> np.ndarray:
    """Call counts of the fixed-sample comparison arm, per replicate.

    The arm mirrors the two-phase structure but sizes each phase with the
    Chernoff bound instead of exact calibration: phase 1 takes the minimal
    fixed n1 for (epsilon, delta/2) sized at the *true* mean (an oracle aid
    the sequential scheme does not get, biasing the comparison against it),
    estimates r by the sample mean, and phase 2 takes the Chernoff-minimal
    n2 for the transferred precision sized at that estimate.
    """
    n1 = chernoff_fixed_sample_size(mu, epsilon, delta / 2.0)

    def run(rng: RngStream) -> int:
        # the sum of n1 iid Poisson(mu) pilot counts is exactly Poisson(n1 mu)
        r_hat1 = sample_poisson(rng, mu * n1) / n1
        if r_hat1 <= 0.0:
            r_hat1 = 1.0 / n1  # all-zero pilot: size phase 2 at the resolution floor
        eps2 = phase2_epsilon(epsilon, r_hat1)
        return n1 + chernoff_fixed_sample_size(r_hat1, eps2, delta / 2.0)

    return np.fromiter(
        replicate(run, replicates, seed), dtype=np.int64, count=replicates
    )


# ---------------------------------------------------------------------------
# Property checks
# ---------------------------------------------------------------------------


def _check(
    name: str,
    needed: int,
    replicates: int,
    measure: Callable[[], _Verdict],
) -> PropertyResult:
    """The one rule of every check: skip below ``needed`` replicates, else measure.

    Below ``needed`` the check is skipped: it passes, with no statistic or
    threshold, so an underpowered check never fails the suite.  Otherwise
    ``measure()`` runs the replicates and returns (passed, statistic,
    threshold, detail).
    """
    if replicates < needed:
        detail = f"insufficient replicates: needs >= {needed}, got {replicates}"
        return PropertyResult(name, True, True, None, None, detail)
    passed, statistic, threshold, detail = measure()
    return PropertyResult(name, passed, False, statistic, threshold, detail)


def _binomial_frequency(
    name: str,
    target: float,
    replicates: int,
    frequency: Callable[[], float],
    detail: str,
    one_sided: bool = False,
) -> PropertyResult:
    """The rule of every check on the frequency of an event of probability target.

    The check needs max(MIN_REPLICATES, ceil(30 / p)) replicates, p the
    rarer outcome's probability, so that outcome is expected at least 30
    times.  p is taken from target as written, in exact arithmetic: the
    float 1 - 0.9 is 0.09999999999999998, which would ask for 301 replicates
    where the rule means 300.  ``frequency()`` runs the replicates, and its
    result must lie within 3 binomial sigma of target; one-sided, it must
    only not exceed target + 3 sigma, which is then the reported threshold.
    """
    from fractions import Fraction

    written = Fraction(repr(target))
    needed = max(MIN_REPLICATES, math.ceil(30 / min(written, 1 - written)))

    def measure() -> _Verdict:
        observed = frequency()
        band = 3.0 * math.sqrt(target * (1.0 - target) / replicates)
        if one_sided:
            return observed <= target + band, observed, target + band, detail
        return abs(observed - target) <= band, observed, band, detail

    return _check(name, needed, replicates, measure)


def check_distribution_law(
    replicates: int, seed: int, mu: float = 3.0, k: int = 100
) -> PropertyResult:
    """mu * T' matches Gamma(k, 1) by a KS test at the 0.001 level."""

    def measure() -> _Verdict:
        t_primes, _ = replicate_gpas(mu, k, replicates, seed)
        # the Gamma(k, 1) CDF at x is the chi-square(2k) CDF at 2x, from Boost
        gamma_cdf = lambda x: chndtr(2.0 * x, 2.0 * k, 0.0)
        statistic = float(_stats().kstest(mu * t_primes, gamma_cdf).statistic)
        threshold = ks_critical_value(replicates)
        detail = f"KS statistic vs Gamma({k}, 1) CDF over {replicates} replicates"
        return statistic < threshold, statistic, threshold, detail

    return _check(f"gpas_arrival_law(mu={mu}, k={k})", MIN_REPLICATES, replicates, measure)


def check_scale_free_error(replicates: int, seed: int) -> PropertyResult:
    """Relative-error samples at two very different means are KS-indistinguishable."""
    mu_low, mu_high, k = 0.5, 10.0, 100

    def measure() -> _Verdict:
        low_t, _ = replicate_gpas(mu_low, k, replicates, seed)
        high_t, _ = replicate_gpas(mu_high, k, replicates, seed, stream_offset=replicates)
        err_low = (k - 1) / (mu_low * low_t) - 1.0
        err_high = (k - 1) / (mu_high * high_t) - 1.0
        statistic = float(_stats().ks_2samp(err_low, err_high, method="asymp").statistic)
        threshold = ks_critical_value(replicates, replicates)
        detail = f"two-sample KS over {replicates} replicates per mean"
        return statistic < threshold, statistic, threshold, detail

    name = f"scale_free_relative_error(mu={mu_low} vs {mu_high}, k={k})"
    return _check(name, MIN_REPLICATES, replicates, measure)


def check_unbiasedness(replicates: int, seed: int) -> PropertyResult:
    """Empirical mean of mu_hat sits in the 3-sigma CLT band around mu."""
    mu, k = 3.0, 50

    def measure() -> _Verdict:
        t_primes, _ = replicate_gpas(mu, k, replicates, seed)
        deviation = abs(float(((k - 1) / t_primes).mean()) - mu)
        band = 3.0 * (mu / math.sqrt(k - 2)) / math.sqrt(replicates)
        detail = f"|mean(mu_hat) - mu| vs 3-sigma band over {replicates} replicates"
        return deviation <= band, deviation, band, detail

    return _check(f"unbiasedness(mu={mu}, k={k})", MIN_REPLICATES, replicates, measure)


def check_running_time(replicates: int, seed: int) -> PropertyResult:
    """Mean draws lie in [k/mu - 3se, 1 + k/mu + 3se]."""
    mu, k = 2.0, 50

    def measure() -> _Verdict:
        _, draws = replicate_gpas(mu, k, replicates, seed)
        mean = float(draws.mean())
        se = float(draws.std(ddof=1)) / math.sqrt(replicates)
        bound = 1.0 + k / mu
        passed = (k / mu - 3.0 * se) <= mean <= (bound + 3.0 * se)
        return passed, mean, bound, f"mean draws vs upper bound 1 + k/mu (se={se:.4f})"

    return _check(f"running_time_bound(mu={mu}, k={k})", MIN_REPLICATES, replicates, measure)


def check_exactness(replicates: int, seed: int) -> PropertyResult:
    """Calibrated failure frequency is delta to within 3 binomial sigma."""
    mu, epsilon, delta = 5.0, 0.3, 0.05

    def fails(rng: RngStream) -> bool:
        mu_hat = exact_gpas(SyntheticPoissonSource(mu, rng), epsilon, delta, rng).mu_hat
        return abs(mu_hat / mu - 1.0) > epsilon

    return _binomial_frequency(
        f"exact_failure_probability(eps={epsilon}, delta={delta}, mu={mu})",
        delta,
        replicates,
        lambda: sum(replicate(fails, replicates, seed)) / replicates,
        f"|failure frequency - delta| vs 3 binomial sigma over {replicates} runs",
    )


def check_coverage(replicates: int, seed: int) -> PropertyResult:
    """Exact intervals cover mu with the advertised frequency."""
    mu, k, coverage = 2.0, 200, 0.9

    def covers(rng: RngStream) -> bool:
        ci = confidence_interval(gpas(SyntheticPoissonSource(mu, rng), k, rng), coverage)
        return ci.lower <= mu <= ci.upper

    return _binomial_frequency(
        f"interval_coverage(mu={mu}, k={k}, coverage={coverage})",
        coverage,
        replicates,
        lambda: sum(replicate(covers, replicates, seed)) / replicates,
        f"|coverage frequency - {coverage}| vs 3 binomial sigma over {replicates} runs",
    )


def check_tpa_poissonness(replicates: int, seed: int) -> PropertyResult:
    """Descent counts on a small grid fit Poisson(r) with unit dispersion."""
    width, height = 2, 2

    def measure() -> _Verdict:
        hist = build_histogram(LatticeGraph.grid(width, height))
        family = IsingGibbsFamily(hist)
        r = log_partition_function(hist, family.beta_outer) - log_partition_function(
            hist, family.beta_inner
        )
        counts = np.fromiter(
            replicate(partial(tpa_run, family), replicates, seed),
            dtype=np.int64,
            count=replicates,
        )
        pvalue = poisson_chi_square_pvalue(counts, r)
        dispersion = float(counts.var(ddof=1) / counts.mean())
        # the [0.95, 1.05] window is calibrated for 1e5 descents; at smaller n
        # the dispersion estimator itself has sd ~ sqrt(2/n), so widen to 3 sigma
        window = max(0.05, 3.0 * math.sqrt(2.0 / replicates))
        passed = pvalue >= CHI_SQUARE_SIGNIFICANCE and abs(dispersion - 1.0) <= window
        detail = (
            f"chi-square fit vs Poisson({r:.4f}) plus dispersion "
            f"{dispersion:.4f} within {window:.4f} of 1 over {replicates} descents"
        )
        return passed, pvalue, CHI_SQUARE_SIGNIFICANCE, detail

    return _check(f"tpa_poisson_counts({width}x{height})", MIN_REPLICATES, replicates, measure)


def check_transfer_bounds() -> PropertyResult:
    """Boundary algebra of the log-to-ratio precision transfer (deterministic)."""

    def measure() -> _Verdict:
        worst = 0.0
        for r in (1.0, 5.0, 15.4):
            for epsilon in (0.1, 0.2):
                margin = relative_error_transfer(epsilon, r)
                for r_hat in (r * (1.0 + margin), r * (1.0 - margin)):
                    ratio_error = abs(math.exp(r_hat) / math.exp(r) - 1.0)
                    worst = max(worst, ratio_error - epsilon)
        detail = "max excess ratio error at transfer-boundary log estimates"
        return worst <= 1e-12, worst, 1e-12, detail

    return _check("relative_error_transfer", 0, 0, measure)


def check_two_phase_guarantee(replicates: int, seed: int) -> PropertyResult:
    """End-to-end ratio failure frequency at most delta (one-sided, 3 sigma)."""
    mu, epsilon, delta = 15.4, 0.2, 0.1

    def frequency() -> float:
        ratios, _ = replicate_two_phase(mu, epsilon, delta, replicates, seed)
        return float(np.mean(np.abs(ratios / math.exp(mu) - 1.0) > epsilon))

    return _binomial_frequency(
        f"two_phase_guarantee(eps={epsilon}, delta={delta}, mu={mu})",
        delta,
        replicates,
        frequency,
        f"failure frequency vs one-sided delta bound over {replicates} runs",
        one_sided=True,
    )


def run_all(replicates: int, seed: int) -> list[PropertyResult]:
    """Run the full property suite.

    ``replicates`` sizes every stochastic check directly, except the
    two-phase guarantee, whose per-replicate cost is thousands of draws and
    which is capped at 500 replicates.
    """
    return [
        check_distribution_law(replicates, seed),
        check_scale_free_error(replicates, seed),
        check_unbiasedness(replicates, seed),
        check_running_time(replicates, seed),
        check_exactness(replicates, seed),
        check_coverage(replicates, seed),
        check_tpa_poissonness(replicates, seed),
        check_transfer_bounds(),
        check_two_phase_guarantee(min(replicates, 500), seed),
    ]
