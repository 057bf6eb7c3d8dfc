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

``scipy.stats`` is imported only inside the two checks that use it
(:func:`poisson_chi_square_pvalue` and :func:`check_scale_free_error`), so
importing this module, and through it the CLI, does not pay for loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np
from scipy.special import kolmogi

from .core import (
    SyntheticPoissonSource,
    confidence_interval,
    exact_gpas,
    gpas,
)
from .ising import IsingGibbsFamily, LatticeGraph, build_histogram, log_partition_function
from .numerics import RngStream, reg_lower_gamma, sample_poisson
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
    "ks_statistic",
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


def ks_critical_value(n: int, m: int | None = None) -> float:
    """Asymptotic Kolmogorov-Smirnov critical value at :data:`KS_SIGNIFICANCE`.

    One-sample for ``m is None``; otherwise the two-sample value for sizes
    (n, m).
    """
    scale = math.sqrt((n + m) / (n * m)) if m is not None else 1.0 / math.sqrt(n)
    return float(kolmogi(KS_SIGNIFICANCE)) * scale


def ks_statistic(sample: Sequence[float], cdf: Callable[[float], float]) -> float:
    """One-sample KS statistic of ``sample`` against the given CDF."""
    ordered = np.sort(np.asarray(sample, dtype=np.float64))
    n = ordered.size
    cdf_values = np.array([cdf(x) for x in ordered])
    above = np.max(np.arange(1, n + 1) / n - cdf_values)
    below = np.max(cdf_values - np.arange(0, n) / n)
    return float(max(above, below))


def poisson_chi_square_pvalue(counts: Sequence[int], mean: float) -> float:
    """Chi-square goodness-of-fit p-value of integer counts vs Poisson(mean).

    Bins are pooled from both ends until every expected count is at least 5;
    the mean is treated as known, so degrees of freedom are bins - 1.
    """
    # imported here: scipy.stats roughly doubles the package's import cost
    from scipy import stats as _stats

    counts = np.asarray(counts, dtype=np.int64)
    n = counts.size
    top = int(counts.max()) + 1
    observed = np.bincount(counts, minlength=top + 1).astype(np.float64)
    pmf = _stats.poisson.pmf(np.arange(top), mean)
    expected = np.append(pmf, _stats.poisson.sf(top - 1, mean)) * n

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
    statistic = float(
        np.sum((np.array(obs_bins) - np.array(exp_bins)) ** 2 / np.array(exp_bins))
    )
    dof = len(exp_bins) - 1
    return float(_stats.chi2.sf(statistic, dof))


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
        report = two_phase_from_source(
            lambda: SyntheticPoissonSource(mu, rng), epsilon, delta, rng
        )
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
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie strictly inside (0, 1), got {epsilon!r}")
    upper = (1.0 + epsilon) * math.log1p(epsilon) - epsilon
    lower = (1.0 - epsilon) * math.log1p(-epsilon) + epsilon
    return math.exp(-total_mean * upper) + math.exp(-total_mean * lower)


def chernoff_total_mean(epsilon: float, delta: float) -> float:
    """Minimal total expected count lam with the Chernoff bound at most delta."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie strictly inside (0, 1), got {delta!r}")
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
    if not mu > 0.0:
        raise ValueError(f"mu must be positive, got {mu!r}")
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


def _underpowered(name: str, needed: int, got: int) -> PropertyResult:
    return PropertyResult(
        name=name,
        passed=True,
        skipped=True,
        statistic=None,
        threshold=None,
        detail=f"insufficient replicates: needs >= {needed}, got {got}",
    )


def check_distribution_law(
    replicates: int, seed: int, mu: float = 3.0, k: int = 100
) -> PropertyResult:
    """mu * T' matches Gamma(k, 1) by a KS test at the 0.001 level."""
    name = f"gpas_arrival_law(mu={mu}, k={k})"
    if replicates < MIN_REPLICATES:
        return _underpowered(name, MIN_REPLICATES, replicates)
    t_primes, _ = replicate_gpas(mu, k, replicates, seed)
    statistic = ks_statistic(mu * t_primes, lambda x: reg_lower_gamma(k, x))
    threshold = ks_critical_value(replicates)
    return PropertyResult(
        name=name,
        passed=statistic < threshold,
        skipped=False,
        statistic=statistic,
        threshold=threshold,
        detail=f"KS statistic vs Gamma({k}, 1) CDF over {replicates} replicates",
    )


def check_scale_free_error(replicates: int, seed: int) -> PropertyResult:
    """Relative-error samples at two very different means are KS-indistinguishable."""
    mu_low, mu_high, k = 0.5, 10.0, 100
    name = f"scale_free_relative_error(mu={mu_low} vs {mu_high}, k={k})"
    if replicates < MIN_REPLICATES:
        return _underpowered(name, MIN_REPLICATES, replicates)
    low_t, _ = replicate_gpas(mu_low, k, replicates, seed)
    high_t, _ = replicate_gpas(mu_high, k, replicates, seed, stream_offset=replicates)
    err_low = (k - 1) / (mu_low * low_t) - 1.0
    err_high = (k - 1) / (mu_high * high_t) - 1.0
    # imported here: scipy.stats roughly doubles the package's import cost
    from scipy import stats as _stats

    statistic = float(_stats.ks_2samp(err_low, err_high, method="asymp").statistic)
    threshold = ks_critical_value(replicates, replicates)
    return PropertyResult(
        name=name,
        passed=statistic < threshold,
        skipped=False,
        statistic=statistic,
        threshold=threshold,
        detail=f"two-sample KS over {replicates} replicates per mean",
    )


def check_unbiasedness(replicates: int, seed: int) -> PropertyResult:
    """Empirical mean of mu_hat sits in the 3-sigma CLT band around mu."""
    mu, k = 3.0, 50
    name = f"unbiasedness(mu={mu}, k={k})"
    if replicates < MIN_REPLICATES:
        return _underpowered(name, MIN_REPLICATES, replicates)
    t_primes, _ = replicate_gpas(mu, k, replicates, seed)
    mu_hats = (k - 1) / t_primes
    band = 3.0 * (mu / math.sqrt(k - 2)) / math.sqrt(replicates)
    deviation = abs(float(mu_hats.mean()) - mu)
    return PropertyResult(
        name=name,
        passed=deviation <= band,
        skipped=False,
        statistic=deviation,
        threshold=band,
        detail=f"|mean(mu_hat) - mu| vs 3-sigma band over {replicates} replicates",
    )


def check_running_time(replicates: int, seed: int) -> PropertyResult:
    """Mean draws lie in [k/mu - 3se, 1 + k/mu + 3se]."""
    mu, k = 2.0, 50
    name = f"running_time_bound(mu={mu}, k={k})"
    if replicates < MIN_REPLICATES:
        return _underpowered(name, MIN_REPLICATES, replicates)
    _, draws = replicate_gpas(mu, k, replicates, seed)
    mean = float(draws.mean())
    se = float(draws.std(ddof=1)) / math.sqrt(replicates)
    bound = 1.0 + k / mu
    passed = (k / mu - 3.0 * se) <= mean <= (bound + 3.0 * se)
    return PropertyResult(
        name=name,
        passed=passed,
        skipped=False,
        statistic=mean,
        threshold=bound,
        detail=f"mean draws vs upper bound 1 + k/mu (se={se:.4f})",
    )


def check_exactness(replicates: int, seed: int) -> PropertyResult:
    """Calibrated failure frequency is delta to within 3 binomial sigma."""
    mu, epsilon, delta = 5.0, 0.3, 0.05
    name = f"exact_failure_probability(eps={epsilon}, delta={delta}, mu={mu})"
    needed = max(MIN_REPLICATES, math.ceil(30.0 / delta))
    if replicates < needed:
        return _underpowered(name, needed, replicates)

    def run(rng: RngStream) -> float:
        return exact_gpas(SyntheticPoissonSource(mu, rng), epsilon, delta, rng).mu_hat

    mu_hats = np.fromiter(
        replicate(run, replicates, seed), dtype=np.float64, count=replicates
    )
    failures = np.abs(mu_hats / mu - 1.0) > epsilon
    frequency = float(failures.mean())
    band = 3.0 * math.sqrt(delta * (1.0 - delta) / replicates)
    return PropertyResult(
        name=name,
        passed=abs(frequency - delta) <= band,
        skipped=False,
        statistic=frequency,
        threshold=band,
        detail=f"|failure frequency - delta| vs 3 binomial sigma over {replicates} runs",
    )


def check_coverage(replicates: int, seed: int) -> PropertyResult:
    """Exact intervals cover mu with the advertised frequency."""
    mu, k, coverage = 2.0, 200, 0.9
    name = f"interval_coverage(mu={mu}, k={k}, coverage={coverage})"
    needed = max(MIN_REPLICATES, math.ceil(30.0 / (1.0 - coverage)))
    if replicates < needed:
        return _underpowered(name, needed, replicates)

    def covers(rng: RngStream) -> bool:
        ci = confidence_interval(gpas(SyntheticPoissonSource(mu, rng), k, rng), coverage)
        return ci.lower <= mu <= ci.upper

    frequency = sum(replicate(covers, replicates, seed)) / replicates
    band = 3.0 * math.sqrt(coverage * (1.0 - coverage) / replicates)
    return PropertyResult(
        name=name,
        passed=abs(frequency - coverage) <= band,
        skipped=False,
        statistic=frequency,
        threshold=band,
        detail=f"|coverage frequency - {coverage}| vs 3 binomial sigma over {replicates} runs",
    )


def check_tpa_poissonness(replicates: int, seed: int) -> PropertyResult:
    """Descent counts on a small grid fit Poisson(r) with unit dispersion."""
    width, height = 2, 2
    name = f"tpa_poisson_counts({width}x{height})"
    if replicates < MIN_REPLICATES:
        return _underpowered(name, MIN_REPLICATES, replicates)
    hist = build_histogram(LatticeGraph.grid(width, height))
    family = IsingGibbsFamily(hist)
    r = log_partition_function(hist, family.beta_outer) - log_partition_function(
        hist, family.beta_inner
    )
    counts = np.fromiter(
        replicate(partial(tpa_run, family), replicates, seed), dtype=np.int64, count=replicates
    )
    pvalue = poisson_chi_square_pvalue(counts, r)
    dispersion = float(counts.var(ddof=1) / counts.mean())
    # the [0.95, 1.05] window is calibrated for 1e5 descents; at smaller n
    # the dispersion estimator itself has sd ~ sqrt(2/n), so widen to 3 sigma
    window = max(0.05, 3.0 * math.sqrt(2.0 / replicates))
    passed = pvalue >= CHI_SQUARE_SIGNIFICANCE and abs(dispersion - 1.0) <= window
    return PropertyResult(
        name=name,
        passed=passed,
        skipped=False,
        statistic=pvalue,
        threshold=CHI_SQUARE_SIGNIFICANCE,
        detail=(
            f"chi-square fit vs Poisson({r:.4f}) plus dispersion "
            f"{dispersion:.4f} within {window:.4f} of 1 over {replicates} descents"
        ),
    )


def check_transfer_bounds() -> PropertyResult:
    """Boundary algebra of the log-to-ratio precision transfer (deterministic)."""
    name = "relative_error_transfer"
    worst = 0.0
    for r in (1.0, 5.0, 15.4):
        for epsilon in (0.1, 0.2):
            margin = relative_error_transfer(epsilon, r)
            for r_hat in (r * (1.0 + margin), r * (1.0 - margin)):
                ratio_error = abs(math.exp(r_hat) / math.exp(r) - 1.0)
                worst = max(worst, ratio_error - epsilon)
    passed = worst <= 1e-12
    return PropertyResult(
        name=name,
        passed=passed,
        skipped=False,
        statistic=worst,
        threshold=1e-12,
        detail="max excess ratio error at transfer-boundary log estimates",
    )


def check_two_phase_guarantee(replicates: int, seed: int) -> PropertyResult:
    """End-to-end ratio failure frequency at most delta (one-sided, 3 sigma)."""
    mu, epsilon, delta = 15.4, 0.2, 0.1
    name = f"two_phase_guarantee(eps={epsilon}, delta={delta}, mu={mu})"
    needed = max(MIN_REPLICATES, math.ceil(30.0 / delta))
    if replicates < needed:
        return _underpowered(name, needed, replicates)
    ratios, _ = replicate_two_phase(mu, epsilon, delta, replicates, seed)
    failures = np.abs(ratios / math.exp(mu) - 1.0) > epsilon
    frequency = float(failures.mean())
    limit = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / replicates)
    return PropertyResult(
        name=name,
        passed=frequency <= limit,
        skipped=False,
        statistic=frequency,
        threshold=limit,
        detail=f"failure frequency vs one-sided delta bound over {replicates} runs",
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
