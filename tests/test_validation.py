"""Property-suite plumbing and the fixed-sample comparison arm."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import chndtr

import gpas
from gpas.core import calibrate
from gpas.validation import (
    PropertyResult,
    chernoff_fixed_sample_size,
    chernoff_tail_bound,
    chernoff_total_mean,
    chernoff_two_phase_calls,
    check_coverage,
    check_distribution_law,
    check_exactness,
    check_running_time,
    check_scale_free_error,
    check_tpa_poissonness,
    check_transfer_bounds,
    check_two_phase_guarantee,
    check_unbiasedness,
    ks_critical_value,
    poisson_chi_square_pvalue,
    replicate,
    replicate_gpas,
    replicate_two_phase,
    run_all,
)

SEED = 505


def test_ks_critical_value_scales():
    # the 0.001-level Kolmogorov constant is 1.94947...
    assert ks_critical_value(10_000) == pytest.approx(0.0194947, abs=1e-6)
    assert ks_critical_value(10_000) == pytest.approx(
        ks_critical_value(40_000) * 2.0, rel=1e-12
    )
    two_sample = ks_critical_value(100, 100)
    assert two_sample == pytest.approx(ks_critical_value(50), rel=1e-12)


def test_poisson_chi_square_accepts_true_law_rejects_wrong_one():
    rng = np.random.default_rng(SEED)
    counts = rng.poisson(3.0, size=20_000)
    assert poisson_chi_square_pvalue(counts, 3.0) > 0.001
    assert poisson_chi_square_pvalue(counts, 4.0) < 1e-6


@pytest.mark.parametrize("mean", [150.0, 1000.0])
def test_poisson_chi_square_large_means(mean):
    # the pmf must not be built from factorials, which overflow a float
    rng = np.random.default_rng(SEED)
    assert poisson_chi_square_pvalue(rng.poisson(mean, size=20_000), mean) > 0.001
    shifted = rng.poisson(1.05 * mean, size=20_000)
    assert poisson_chi_square_pvalue(shifted, mean) < 1e-6


# Run in a fresh interpreter: importing the package and the CLI must not load
# scipy.stats, and the three checks that use it must load it on demand.
_LAZY_STATS_PROGRAM = """
import json, sys
import numpy as np
import gpas, gpas.cli
loaded_by_import = "scipy.stats" in sys.modules
from gpas.validation import (
    check_distribution_law, check_scale_free_error, poisson_chi_square_pvalue,
)
seed = int(sys.argv[1])
law = check_distribution_law(200, seed).statistic
loaded_by_law = "scipy.stats" in sys.modules
counts = np.minimum(np.random.default_rng(seed).poisson(3.0, size=2000), 6)
print(json.dumps({
    "loaded_by_import": loaded_by_import,
    "loaded_by_law": loaded_by_law,
    "law": law,
    "pvalue": poisson_chi_square_pvalue(counts, 3.0),
    "ks": check_scale_free_error(200, seed).statistic,
}))
"""


def test_scipy_stats_stays_off_the_import_path():
    from scipy import stats

    src = str(Path(gpas.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _LAZY_STATS_PROGRAM, str(SEED)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    got = json.loads(result.stdout)
    assert got["loaded_by_import"] is False
    assert got["loaded_by_law"] is True

    # the arrival-law check's statistic is scipy's one-sample KS statistic
    # against the Gamma(100, 1) CDF, at its default mu = 3
    t_primes, _ = replicate_gpas(3.0, 100, 200, SEED)
    gamma_cdf = lambda x: chndtr(2.0 * x, 200.0, 0.0)
    assert got["law"] == float(stats.kstest(3.0 * t_primes, gamma_cdf).statistic)

    # every bin of the clipped sample expects at least 5, so nothing is pooled
    counts = np.minimum(np.random.default_rng(SEED).poisson(3.0, size=2000), 6)
    assert counts.max() == 6
    observed = np.bincount(counts, minlength=8).astype(np.float64)
    expected = np.append(stats.poisson.pmf(np.arange(7), 3.0), stats.poisson.sf(6, 3.0)) * 2000
    assert expected.min() >= 5.0
    statistic = float(np.sum((observed - expected) ** 2 / expected))
    assert got["pvalue"] == float(stats.chi2.sf(statistic, 7))

    low_t, _ = replicate_gpas(0.5, 100, 200, SEED)
    high_t, _ = replicate_gpas(10.0, 100, 200, SEED, stream_offset=200)
    err_low = 99 / (0.5 * low_t) - 1.0
    err_high = 99 / (10.0 * high_t) - 1.0
    assert got["ks"] == float(stats.ks_2samp(err_low, err_high, method="asymp").statistic)


def test_transfer_bounds_check_is_deterministic_pass():
    result = check_transfer_bounds()
    assert result.passed and not result.skipped


def test_transfer_bounds_check_fails_without_the_one_minus_epsilon_factor(monkeypatch):
    # phase 2 sized at r_hat1 itself, not at phase 1's worst case
    # r_hat1 / (1 - eps), lets the ratio error pass epsilon
    import gpas.validation as validation_module

    def unguarded(epsilon, r_hat1):
        return min(math.log1p(epsilon) / r_hat1, 1.0 - 1e-9)

    monkeypatch.setattr(validation_module, "phase2_epsilon", unguarded)
    result = check_transfer_bounds()
    assert not result.passed
    assert result.statistic == pytest.approx(0.056, abs=5e-4)


@pytest.mark.parametrize(
    "check, needed",
    [(check_exactness, 600), (check_coverage, 300), (check_two_phase_guarantee, 300)],
)
def test_frequency_checks_run_from_the_count_they_state(check, needed):
    # the rarer outcome must be expected 30 times: 30 / 0.05 for the
    # exactness check, 30 / (1 - 0.9) for coverage (300, though the float
    # 1 - 0.9 is just below 0.1), 30 / 0.1 for the two-phase guarantee
    detail = check(1, SEED).detail
    match = re.fullmatch(r"insufficient replicates: needs >= (\d+), got 1", detail)
    assert match is not None
    assert int(match.group(1)) == needed
    below = check(needed - 1, SEED)
    assert below.skipped and below.passed
    assert below.detail == f"insufficient replicates: needs >= {needed}, got {needed - 1}"
    at = check(needed, SEED)
    assert not at.skipped
    assert at.passed
    assert f"over {needed} runs" in at.detail


# (check, replicates, the count it needs): the MIN_REPLICATES checks one below
# it, and the frequency checks far below theirs
_UNDERPOWERED_CASES = [
    (check_distribution_law, 10, 100),
    (check_exactness, 50, 600),
    (check_coverage, 50, 300),
    *((check, 99, 100) for check in (
        check_distribution_law,
        check_scale_free_error,
        check_unbiasedness,
        check_running_time,
        check_tpa_poissonness,
    )),
]


def test_underpowered_checks_are_skipped():
    # one rule skips every check: it passes (skipped checks do not fail the
    # suite), with no statistic or threshold, and says what it needs; one
    # replicate more and the check runs
    for check, replicates, needed in _UNDERPOWERED_CASES:
        result = check(replicates, SEED)
        case = (check.__name__, replicates)
        assert result.skipped and result.passed, case
        assert result.statistic is None and result.threshold is None, case
        assert result.detail == f"insufficient replicates: needs >= {needed}, got {replicates}"
        if replicates == needed - 1:
            ran = check(needed, SEED)
            assert not ran.skipped and ran.passed, case
            assert ran.statistic is not None and ran.threshold is not None, case


def test_run_all_passes_at_default_scale():
    results = run_all(1000, seed=0)
    assert all(isinstance(r, PropertyResult) for r in results)
    failures = [r for r in results if not r.passed]
    assert failures == []
    ran = [r for r in results if not r.skipped]
    assert len(ran) == len(results)  # 1000 replicates powers every check


@pytest.mark.slow
def test_run_all_seed_sweep():
    # five fixed seeds, all green at the 0.001-level thresholds
    for seed in range(5):
        results = run_all(600, seed=seed)
        assert all(r.passed for r in results), [r for r in results if not r.passed]


# ---------------------------------------------------------------------------
# Chernoff comparison arm
# ---------------------------------------------------------------------------


def test_chernoff_tail_bound_formula():
    eps, lam = 0.2, 100.0
    upper = (1.2 * math.log(1.2) - 0.2)
    lower = (0.8 * math.log(0.8) + 0.2)
    expected = math.exp(-lam * upper) + math.exp(-lam * lower)
    assert chernoff_tail_bound(lam, eps) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("total_mean", [-5.0, math.nan, math.inf])
def test_chernoff_tail_bound_domain_errors(total_mean):
    # a negative mean would give a "probability" above 1
    with pytest.raises(ValueError, match="total_mean must be a nonnegative finite real"):
        chernoff_tail_bound(total_mean, 0.2)


def test_chernoff_tail_bound_takes_a_numpy_unsigned_mean():
    # negating an np.uint64 mean would wrap around
    assert chernoff_tail_bound(np.uint64(100), 0.2) == chernoff_tail_bound(100.0, 0.2)


def test_chernoff_total_mean_is_boundary():
    lam = chernoff_total_mean(0.2, 0.01)
    assert chernoff_tail_bound(lam, 0.2) <= 0.01
    assert chernoff_tail_bound(lam * 0.999, 0.2) > 0.01


def test_chernoff_sample_size_rounds_up():
    lam = chernoff_total_mean(0.2, 0.01)
    assert chernoff_fixed_sample_size(5.0, 0.2, 0.01) == math.ceil(lam / 5.0)


@pytest.mark.parametrize("mu", [0.0, -1.0, math.inf, math.nan])
def test_chernoff_sample_size_domain_errors(mu):
    # an infinite mean used to size the arm at 0 draws
    with pytest.raises(ValueError, match="mu must be a positive finite real"):
        chernoff_fixed_sample_size(mu, 0.2, 0.01)


def test_chernoff_bound_is_looser_than_exact_calibration():
    # the whole point of exact calibration: fewer expected counts than the
    # Chernoff-sized fixed sample at the same target
    for epsilon, delta in ((0.2, 0.2), (0.2, 0.01), (0.1, 0.01)):
        exact_counts = calibrate(epsilon, delta).k
        chernoff_counts = chernoff_total_mean(epsilon, delta)
        assert exact_counts < chernoff_counts


def test_replicate_runs_one_stream_per_replicate():
    keys = list(replicate(lambda rng: (rng.seed, rng.stream_id), 3, SEED, 7))
    assert keys == [(SEED, 7), (SEED, 8), (SEED, 9)]
    assert list(replicate(lambda rng: rng.stream_id, 0, SEED)) == []


def test_replicate_gpas_matches_scalar_runs():
    # replicate i of a harness is the scalar run on stream (seed, offset + i)
    t_primes, draws = replicate_gpas(2.5, 40, 4, SEED, stream_offset=10)
    for i in range(4):
        rng = gpas.RngStream(SEED, 10 + i)
        result = gpas.gpas(gpas.SyntheticPoissonSource(2.5, rng), 40, rng)
        assert (t_primes[i], draws[i]) == (result.t_prime, result.draws_used)


def test_comparison_arm_needs_more_calls_than_scheme():
    mu, epsilon, delta, n = 5.0, 0.2, 0.2, 40
    _, scheme_totals = replicate_two_phase(mu, epsilon, delta, n, SEED)
    arm_totals = chernoff_two_phase_calls(mu, epsilon, delta, n, SEED)
    assert scheme_totals.mean() < arm_totals.mean()


@pytest.mark.parametrize(
    "seed, expected",
    [
        (0, [7737, 8610, 8976, 8526, 9202]),
        (1, [8216, 8695, 7653, 9427, 8272]),
        (2, [9540, 9145, 8920, 8244, 8807]),
    ],
)
def test_comparison_arm_totals_pinned(seed, expected):
    # pins the arm's stream ids: replicate i draws its pilot from (seed, i)
    assert chernoff_two_phase_calls(15.4, 0.2, 0.01, 5, seed).tolist() == expected
