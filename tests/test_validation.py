"""Property-suite plumbing and the fixed-sample comparison arm."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    check_transfer_bounds,
    ks_critical_value,
    ks_statistic,
    poisson_chi_square_pvalue,
    replicate,
    replicate_gpas,
    replicate_two_phase,
    run_all,
)

SEED = 505


def test_ks_statistic_matches_scipy():
    from scipy.stats import kstest

    rng = np.random.default_rng(SEED)
    sample = rng.exponential(size=500)
    ours = ks_statistic(sample, lambda x: 1.0 - math.exp(-x))
    theirs = kstest(sample, lambda x: 1.0 - np.exp(-x)).statistic
    assert ours == pytest.approx(theirs, abs=1e-12)


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
# scipy.stats, and the two checks that use it must load it on demand.
_LAZY_STATS_PROGRAM = """
import json, sys
import numpy as np
import gpas, gpas.cli
loaded_by_import = "scipy.stats" in sys.modules
from gpas.validation import check_scale_free_error, poisson_chi_square_pvalue
seed = int(sys.argv[1])
counts = np.minimum(np.random.default_rng(seed).poisson(3.0, size=2000), 6)
print(json.dumps({
    "loaded_by_import": loaded_by_import,
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


def test_underpowered_checks_are_skipped():
    for result in (
        check_distribution_law(10, SEED),
        check_exactness(50, SEED),
        check_coverage(50, SEED),
    ):
        assert result.skipped
        assert result.passed  # skipped checks do not fail the suite
        assert "insufficient replicates" in result.detail


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


def test_chernoff_total_mean_is_boundary():
    lam = chernoff_total_mean(0.2, 0.01)
    assert chernoff_tail_bound(lam, 0.2) <= 0.01
    assert chernoff_tail_bound(lam * 0.999, 0.2) > 0.01


def test_chernoff_sample_size_rounds_up():
    lam = chernoff_total_mean(0.2, 0.01)
    assert chernoff_fixed_sample_size(5.0, 0.2, 0.01) == math.ceil(lam / 5.0)


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
        (0, [7991, 9202, 9202, 8667, 8582]),
        (1, [8413, 9765, 8413, 8892, 9286]),
        (2, [8667, 8751, 8948, 8610, 8667]),
    ],
)
def test_comparison_arm_totals_pinned(seed, expected):
    # pins the arm's stream ids: replicate i draws its pilot from (seed, i)
    assert chernoff_two_phase_calls(15.4, 0.2, 0.01, 5, seed).tolist() == expected
