"""Estimator mechanics, exact calibration, and the error-law contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri, pdtr

import gpas.core as core_module
from gpas.core import (
    _MONOTONE_SLACK,
    Calibration,
    GpasResult,
    PoissonSource,
    SyntheticPoissonSource,
    calibrate,
    confidence_interval,
    exact_gpas,
    failure_probability,
    gpas,
)
from gpas.errors import BudgetExceededError, CalibrationError
from gpas.numerics import (
    POISSON_MEAN_MAX,
    RngStream,
    gamma_quantile,
    reg_lower_gamma,
    sample_poisson,
)
from gpas.validation import (
    check_coverage,
    check_distribution_law,
    check_running_time,
    check_scale_free_error,
    check_unbiasedness,
    replicate_gpas,
    replicate_two_phase,
)

SEED = 202

# Frozen from a verified run (seed 20260810, stream 0; mu=1, epsilon=0.2,
# delta=0.1).  The counts and the Beta draw come from numpy's generators, so the
# pin holds within one numpy version.
GOLDEN_EXACT_GPAS = GpasResult(
    k=67,
    t_prime=63.31712964126344,
    mu_hat=1.0423719516967513,
    draws_used=64,
)


def scripted_source(counts):
    """Replays a fixed count sequence; for exercising the loop mechanics."""
    return PoissonSource(iter(counts).__next__)


# ---------------------------------------------------------------------------
# gpas loop mechanics
# ---------------------------------------------------------------------------


def test_gpas_first_interval_success():
    # first count is 5 with k=2: the run ends inside interval 0, so T' is a
    # Beta(2, 4) draw in (0, 1) and mu_hat = 1/T' > 1
    result = gpas(scripted_source([5]), 2, RngStream(SEED))
    assert result.draws_used == 1
    assert 0.0 < result.t_prime < 1.0
    assert result.mu_hat == 1.0 / result.t_prime
    assert result.mu_hat > 1.0


def test_gpas_later_interval_uses_pre_increment_position():
    # counts 0, 1, 3 with k=3: the third point arrives in the third interval,
    # so T' lands in (2, 3) and three draws were consumed
    result = gpas(scripted_source([0, 1, 3]), 3, RngStream(SEED))
    assert result.draws_used == 3
    assert 2.0 < result.t_prime < 3.0


def test_gpas_result_identities():
    rng = RngStream(SEED, 1)
    source = SyntheticPoissonSource(4.0, rng)
    result = gpas(source, 25, rng)
    assert result.mu_hat * result.t_prime == pytest.approx(result.k - 1, rel=1e-12)
    assert result.draws_used == math.ceil(result.t_prime)
    assert result.draws_used == source.call_count


def test_gpas_rejects_k_below_two():
    with pytest.raises(ValueError):
        gpas(scripted_source([5]), 1, RngStream(SEED))


@pytest.mark.parametrize("k", [50.5, 3.0, "3"])
def test_gpas_rejects_non_integer_k_up_front(k):
    # before any count is drawn, not deep inside the Beta sampler
    source = scripted_source([5])
    with pytest.raises(ValueError, match="k must be an integer >= 2"):
        gpas(source, k, RngStream(SEED))
    assert source.call_count == 0


def test_gpas_accepts_numpy_integer_k():
    expected = gpas(scripted_source([0, 1, 3]), 3, RngStream(SEED))
    assert gpas(scripted_source([0, 1, 3]), np.int64(3), RngStream(SEED)) == expected


def test_gpas_budget_guards_zero_mean():
    rng = RngStream(SEED, 2)
    source = SyntheticPoissonSource(0.0, rng, max_calls=500)
    with pytest.raises(BudgetExceededError):
        gpas(source, 5, rng)
    assert source.call_count == 500


def test_source_call_count_increments_by_one():
    # gpas charges one call per count it draws, and call_count holds the last
    # run's charge, not a running total: counts 3 | 0, 7
    source = scripted_source([3, 0, 7])
    assert source.call_count == 0
    assert gpas(source, 2, RngStream(SEED)).draws_used == 1
    assert source.call_count == 1
    assert gpas(source, 5, RngStream(SEED)).draws_used == 2
    assert source.call_count == 2


def test_gpas_budget_and_charge_belong_to_one_run():
    # a budget of 3 covers each of two runs of 3 and 2 counts, though not
    # their sum; each run's charge replaces the last, and a third run that
    # needs more stops at the budget
    drawn = []
    counts = iter([0, 1, 3] + [1, 4] + [0, 0, 0, 0])

    def draw():
        drawn.append(next(counts))
        return drawn[-1]

    source = PoissonSource(draw, max_calls=3)
    first = gpas(source, 3, RngStream(SEED))
    assert first.draws_used == source.call_count == 3
    second = gpas(source, 5, RngStream(SEED))
    assert second.draws_used == source.call_count == 2
    with pytest.raises(BudgetExceededError, match="budget of 3 draws"):
        gpas(source, 2, RngStream(SEED))
    assert source.call_count == 3
    assert len(drawn) == 3 + 2 + 3


@pytest.mark.parametrize("counts,k", [([0, 5], 2), ([0, 1, 3], 3), ([2, 0, 0, 1, 4], 4)])
def test_gpas_budget_boundary(counts, k):
    # a budget of exactly the counts the run needs suffices and is charged in
    # full; a budget one count smaller draws it all and raises before the
    # count that would have ended the run
    needed = len(counts)
    source = scripted_source(counts)
    source.max_calls = needed
    result = gpas(source, k, RngStream(SEED))
    assert result.draws_used == source.call_count == needed
    assert needed - 1 < result.t_prime < needed

    drawn = []

    def draw():
        drawn.append(counts[len(drawn)])
        return drawn[-1]

    short = PoissonSource(draw, max_calls=needed - 1)
    with pytest.raises(BudgetExceededError, match=f"budget of {needed - 1} draws"):
        gpas(short, k, RngStream(SEED))
    assert short.call_count == needed - 1
    assert drawn == counts[:-1]


def test_gpas_charges_what_it_drew_when_the_source_fails():
    # a count source that raises mid-run (a descent past its step cap, say)
    # leaves call_count at the counts drawn before it
    counts = iter([0, 1, 0])

    def draw():
        count = next(counts, None)
        if count is None:
            raise RuntimeError("source failed")
        return count

    source = PoissonSource(draw)
    with pytest.raises(RuntimeError, match="source failed"):
        gpas(source, 5, RngStream(SEED))
    assert source.call_count == 3


@pytest.mark.parametrize("max_calls", [0, -1, 2.5, math.inf, "10", 10.0])
def test_source_rejects_non_integer_or_nonpositive_budget(max_calls):
    # 2.5 would act as 3 and inf would remove the budget
    with pytest.raises(ValueError, match="max_calls must be an integer >= 1"):
        SyntheticPoissonSource(1.0, RngStream(SEED), max_calls=max_calls)


def test_synthetic_source_takes_means_up_to_numpys_poisson_limit():
    # numpy's limit, int64 max less ten of its square roots, is accepted and
    # drawn from; the next float up fails when the source is built, not at
    # its first draw
    assert POISSON_MEAN_MAX == 9.223372006484771e18
    rng = RngStream(SEED, 8)
    source = SyntheticPoissonSource(POISSON_MEAN_MAX, rng)
    assert source.draw() > 0
    above = math.nextafter(POISSON_MEAN_MAX, math.inf)
    with pytest.raises(ValueError, match="Poisson limit"):
        SyntheticPoissonSource(above, RngStream(SEED, 8))


def test_sample_poisson_states_the_poisson_limit_itself():
    # the source's message, raised before the stream changes: the counts
    # buffered at another mean are neither dropped nor redrawn
    above = math.nextafter(POISSON_MEAN_MAX, math.inf)
    with pytest.raises(ValueError) as from_source:
        SyntheticPoissonSource(above, RngStream(SEED, 8))
    rng, fresh = RngStream(SEED, 8), RngStream(SEED, 8)
    first = sample_poisson(rng, 2.0)
    with pytest.raises(ValueError) as from_sampler:
        sample_poisson(rng, above)
    assert str(from_sampler.value) == str(from_source.value)
    assert [first, sample_poisson(rng, 2.0)] == [sample_poisson(fresh, 2.0) for _ in range(2)]


def test_source_accepts_numpy_integer_budget():
    rng = RngStream(SEED, 6)
    source = SyntheticPoissonSource(0.0, rng, max_calls=np.int64(7))
    with pytest.raises(BudgetExceededError, match="budget of 7 draws"):
        gpas(source, 5, rng)
    assert source.call_count == 7


def test_synthetic_source_draws_one_poisson_count_per_charged_count(monkeypatch):
    # each count gpas charges is one call of core's sample_poisson, looked up
    # when the source is built; the counts and the estimate are unchanged
    def run():
        rng = RngStream(SEED, 7)
        source = SyntheticPoissonSource(3.0, rng)
        return exact_gpas(source, 0.2, 0.1, rng), source.call_count

    expected = run()
    calls = []

    def counted(rng, mu):
        calls.append(mu)
        return sample_poisson(rng, mu)

    monkeypatch.setattr(core_module, "sample_poisson", counted)
    result, charged = run()
    assert (result, charged) == expected
    assert len(calls) == charged == result.draws_used
    assert set(calls) == {3.0}


def test_gpas_deterministic_under_fixed_seed():
    def run():
        rng = RngStream(SEED, 3)
        return gpas(SyntheticPoissonSource(2.5, rng), 40, rng)

    assert run() == run()


def _mean_draws_oracle(mu, k):
    # draws = ceil(T') with T' ~ Gamma(k, rate mu), so P(draws > j) =
    # P(Poisson(mu j) <= k - 1); sum the series for the mean and second moment
    j = np.arange(int(k / mu + 60.0 * math.sqrt(k) / mu + 60.0))
    survival = pdtr(k - 1, mu * j)
    assert survival[-1] < 1e-30
    mean = float(survival.sum())
    return mean, float(((2 * j + 1) * survival).sum()) - mean**2


@pytest.mark.slow
@pytest.mark.parametrize("mu,k", [(1.0, 100), (15.4, 200), (0.3, 10)])
def test_gpas_mean_draws_match_exact_law(mu, k):
    # two-sided against the exact mean, unlike check_running_time's
    # bracket [k/mu, 1 + k/mu]; the oracle uses scipy, not gpas.numerics
    n = 20_000
    rng = RngStream(SEED, 7)
    draws = np.empty(n)
    for i in range(n):
        source = SyntheticPoissonSource(mu, rng)
        draws[i] = gpas(source, k, rng).draws_used
        assert source.call_count == draws[i]
    mean, variance = _mean_draws_oracle(mu, k)
    assert abs(draws.mean() - mean) <= 3.0 * math.sqrt(variance / n), (draws.mean(), mean)
    assert k / mu <= mean <= 1.0 + k / mu


def test_gpas_running_time_bound():
    # mean draws over 1e4 replicates at mu=2, k=50 lie within 3 standard
    # errors of [k/mu, 1 + k/mu]
    result = check_running_time(10_000, SEED)
    assert result.passed and not result.skipped


def test_gpas_running_time_matches_exact_mean():
    # at check_running_time's (mu, k), the exact mean draws (25.5) lie
    # below its bound 1 + k/mu = 26, and the replicates' mean lies within 3
    # standard errors of the exact mean on both sides
    mu, k, n = 2.0, 50, 20_000
    mean, variance = _mean_draws_oracle(mu, k)
    assert k / mu < mean < 1.0 + k / mu
    _, draws = replicate_gpas(mu, k, n, SEED)
    assert abs(draws.mean() - mean) <= 3.0 * math.sqrt(variance / n), (draws.mean(), mean)


def test_gpas_arrival_law_ks():
    result = check_distribution_law(20_000, SEED)
    assert result.passed and not result.skipped


@pytest.mark.slow
@pytest.mark.parametrize("mu", [0.5, 1.0, 3.0, 10.0])
@pytest.mark.parametrize("k", [5, 50, 500])
def test_gpas_arrival_law_full_grid(mu, k):
    # the distributional identity over the whole (mu, k) grid; 2e4
    # replicates per cell keeps the grid affordable (the KS threshold
    # scales with n), while the acceptance suite runs three cells at 1e5
    result = check_distribution_law(20_000, SEED + k, mu=mu, k=k)
    assert result.passed and not result.skipped


def test_gpas_unbiased():
    result = check_unbiasedness(20_000, SEED)
    assert result.passed and not result.skipped


# ---------------------------------------------------------------------------
# failure_probability
# ---------------------------------------------------------------------------


def test_failure_probability_golden_k1000():
    # 0.001786 to four significant digits
    assert abs(failure_probability(1000, 0.1) - 0.001786) < 5e-7


def test_failure_probability_golden_k2561():
    # 9.970e-7 to four significant digits
    assert abs(failure_probability(2561, 0.1) - 9.970e-7) < 5e-11


def test_failure_probability_accepts_numpy_integer_k():
    # as gpas, sample_beta and RngStream do
    assert failure_probability(np.int64(100), 0.2) == failure_probability(100, 0.2)
    assert failure_probability(np.int32(3), 0.5) == failure_probability(3, 0.5)


def test_failure_probability_monotone_in_k():
    for epsilon in (0.05, 0.1, 0.3, 0.7):
        values = [failure_probability(k, epsilon) for k in range(3, 400, 7)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def _log_uniform(low, high):
    return st.floats(min_value=math.log(low), max_value=math.log(high)).map(math.exp)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    k=_log_uniform(3, 1.5e6).map(round),
    epsilon=_log_uniform(0.005, 0.5),
)
def test_failure_probability_nonincreasing_in_k(k, epsilon):
    # calibrate asserts this between the indices it probes, with the same
    # slack; here it is checked between neighbours over calibrate-ci's domain
    assert failure_probability(k + 1, epsilon) <= failure_probability(k, epsilon) + _MONOTONE_SLACK


def _mpmath_lower_gamma(mpmath, k, x):
    # mpmath's lower series does not converge at k >= 5e6, so there the tail
    # is 1 minus the upper one, at a precision above the tail's decimal
    # exponent: Chernoff bounds it by exp(-k (t - 1 - ln t)) with t = x / k,
    # and a tail below 1e-400 is taken as 0
    if k < 5_000_000:
        return mpmath.gammainc(k, 0, mpmath.mpf(x), regularized=True)
    t = x / k
    digits = k * (t - 1.0 - math.log(t)) / math.log(10.0)
    if digits > 400:
        return mpmath.mpf(0)
    with mpmath.workdps(int(digits) + 40):
        return 1 - mpmath.gammainc(k, mpmath.mpf(x), mpmath.inf, regularized=True)


# phase 2 at r = 164, about where eps 0.2 and delta 0.01 reach the k cap:
# eps2 = ln(1.2) 0.8 / 164 calibrates to k2 = 9961565 at delta / 2
PHASE2_AT_CAP = (9_961_565, math.log(1.2) * 0.8 / 164.0)


def test_failure_probability_against_mpmath():
    # both tails against mpmath (40 digits, more for the lower tail at
    # k >= 5e6) over eps in [0.005, 0.5] and k up to the calibration cap of
    # 1e7; at (7667, 0.1) the upper tail is 3e-21 of a 1e-16 total, and
    # taking it as 1 - P loses all of it (3.2e-5 relative)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        cases = [(7667, 0.1), PHASE2_AT_CAP] + [
            (k, epsilon)
            for epsilon in np.geomspace(0.005, 0.5, 6).tolist()
            for k in np.unique(np.rint(np.geomspace(3, 1e7, 12)).astype(int)).tolist()
        ]
        # phase 2's precisions near the cap, where both tails are normal doubles
        cases += [(k, epsilon) for k in (5_000_000, 10_000_000)
                  for epsilon in (0.0005, 0.001, 0.002, 0.004)]
        checked = 0
        for k, epsilon in cases:
            low = _mpmath_lower_gamma(mpmath, k, (k - 1) / (1.0 + epsilon))
            high = mpmath.gammainc(k, mpmath.mpf((k - 1) / (1.0 - epsilon)), mpmath.inf,
                                   regularized=True)
            exact = low + high
            if exact < 1e-300:
                continue
            assert float(abs(failure_probability(k, epsilon) / exact - 1)) <= 1e-12, (k, epsilon)
            checked += 1
        assert checked > 50


def _hypergeometric_lower_gamma(mpmath, k, x):
    # P(k, x) = x^k e^-x / Gamma(k + 1) * 1F1(1; k + 1; x), a sum of
    # positive terms that mpmath finds in under 0.1 s at any k up to 1e8
    x = mpmath.mpf(x)
    prefactor = mpmath.exp(k * mpmath.log(x) - x - mpmath.loggamma(k + 1))
    return mpmath.hyp1f1(1, k + 1, x, maxterms=10**7) * prefactor


# Relative error allowed against the 40-digit reference: the worst measured
# was 2.5e-14 (the series at k = 1e8 and a 1e-6 tail).  Below about 1e-20
# the exponent of the prefactor grows, and exp turns its rounding into up to
# 3.1e-16 |ln P| relative; the bound allows 2 ulps of |ln P|.
_REFERENCE_REL_TOL = 4e-14


def _reference_bound(exact):
    return max(_REFERENCE_REL_TOL, 2.0 * math.ulp(1.0) * -math.log(exact))


def test_gamma_tails_against_hypergeometric_reference():
    # reg_lower_gamma at tails on both sides of 1e-4, where it switches from
    # Boost's chndtr to the series, and failure_probability over k from 3
    # to 1e8 and eps in [0.0003, 0.5]; the upper tail is mpmath.gammainc's,
    # as in test_failure_probability_against_mpmath
    mpmath = pytest.importorskip("mpmath")
    ks = np.unique(np.rint(np.geomspace(3, 1e8, 15)).astype(int)).tolist()
    tails = (0.3, 1e-2, 1e-3, 2e-4, 1.0001e-4, 0.9999e-4, 5e-5, 1e-6, 1e-10, 1e-20)
    checked = 0
    with mpmath.workdps(40):
        for k in ks:
            for tail in tails:
                x = gamma_quantile(k, tail)
                exact = _hypergeometric_lower_gamma(mpmath, k, x)
                assert float(abs(reg_lower_gamma(k, x) / exact - 1)) <= _REFERENCE_REL_TOL, (k, x)
            # the last point of the series branch, where P is about 1/2: there
            # chndtr's error grows like sqrt(k), to 3.0e-13 at k = 1e8, so a
            # value above 0.45 takes the series
            x = math.nextafter(k + 1.0, 0.0)
            exact = _hypergeometric_lower_gamma(mpmath, k, x)
            assert float(abs(reg_lower_gamma(k, x) / exact - 1)) <= _REFERENCE_REL_TOL, k
            for epsilon in np.geomspace(0.0003, 0.5, 12).tolist():
                low = _hypergeometric_lower_gamma(mpmath, k, (k - 1) / (1.0 + epsilon))
                high = mpmath.gammainc(k, mpmath.mpf((k - 1) / (1.0 - epsilon)), mpmath.inf,
                                       regularized=True)
                exact = low + high
                if exact < 1e-300:
                    continue
                error = float(abs(failure_probability(k, epsilon) / exact - 1))
                assert error <= _reference_bound(float(exact)), (k, epsilon)
                checked += 1
    assert checked > 100


@pytest.mark.parametrize(
    "k,epsilon",
    [
        (1, 0.1), (2.5, 0.1), (5, 0.0), (5, 1.0), (5, -0.2),
        (np.int64(1), 0.1), (np.float64(100.0), 0.1),
    ],
)
def test_failure_probability_domain_errors(k, epsilon):
    with pytest.raises(ValueError):
        failure_probability(k, epsilon)


@pytest.mark.slow
def test_failure_probability_against_monte_carlo():
    # empirical rejection frequency of the k=100 estimator at eps=0.2
    mu, k, epsilon, n = 1.0, 100, 0.2, 1_000_000
    expected = failure_probability(k, epsilon)
    t_primes, _ = replicate_gpas(mu, k, n, SEED)
    mu_hats = (k - 1) / t_primes
    frequency = float(np.mean(np.abs(mu_hats / mu - 1.0) > epsilon))
    band = 3.0 * math.sqrt(expected * (1.0 - expected) / n)
    assert abs(frequency - expected) < band


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def test_calibrate_golden_tight_target():
    cal = calibrate(0.1, 1e-6)
    assert cal.k == 2561
    assert abs(cal.f_k - 9.970e-7) < 5e-11
    assert cal.f_k <= 1e-6 < cal.f_km1


def test_calibrate_against_brute_force_scan():
    # independent linear scan pins the minimal k in the known neighborhood
    delta = 0.0018
    scanned = {k: failure_probability(k, 0.1) for k in range(990, 1011)}
    minimal = min(k for k, f in scanned.items() if f <= delta)
    assert all(f > delta for k, f in scanned.items() if k < minimal)
    cal = calibrate(0.1, delta)
    assert cal.k == minimal
    assert cal.f_k <= delta < cal.f_km1


@pytest.mark.parametrize("epsilon,delta", [(0.1, 0.01), (0.2, 0.005), (0.3, 0.05), (0.45, 0.2)])
def test_calibrate_mixing_identity(epsilon, delta):
    cal = calibrate(epsilon, delta)
    assert 0.0 <= cal.p <= 1.0
    assert cal.p * cal.f_km1 + (1.0 - cal.p) * cal.f_k == pytest.approx(delta, abs=1e-12)


def test_calibrate_minimality_by_scan():
    cal = calibrate(0.25, 0.02)
    assert failure_probability(cal.k, 0.25) <= 0.02
    assert failure_probability(cal.k - 1, 0.25) > 0.02


def test_calibrate_search_cap():
    with pytest.raises(CalibrationError):
        calibrate(0.05, 1e-10, k_cap=1000)
    # the search starts at the normal guess 2393 and brackets the minimal k,
    # 2561, in (2504, 2652], so the cap is checked on the bisected k
    with pytest.raises(CalibrationError, match="2561, above k_cap=2560"):
        calibrate(0.1, 1e-6, k_cap=2560)
    assert calibrate(0.1, 1e-6, k_cap=2561).k == 2561
    # a numpy integer cap acts as the same int
    with pytest.raises(CalibrationError, match="2561, above k_cap=2560"):
        calibrate(0.1, 1e-6, k_cap=np.int64(2560))
    assert calibrate(0.1, 1e-6, k_cap=np.int64(2561)).k == 2561


def test_calibrate_tail_that_does_not_converge_is_a_calibration_error():
    # the normal guess at eps 1e-5 is k = 66348966011, where the lower
    # gamma series gives up: a calibration failure naming k and epsilon,
    # not an ArithmeticError from the depths of the search
    with pytest.raises(CalibrationError, match=r"k=66348966011, epsilon=1e-05") as info:
        calibrate(1e-5, 0.01, k_cap=100_000_000_000)
    assert isinstance(info.value.__cause__, ArithmeticError)


def test_calibrate_guess_that_overflows_is_a_calibration_error():
    # (ndtri(delta / 2) / epsilon) ** 2 raises OverflowError once
    # |z| / epsilon passes about 1.34e154: the guess is infinite, so the
    # search starts at the cap and stops there, or probes a tail that does
    # not converge
    with pytest.raises(CalibrationError, match=r"no k <= 10000000 reaches"):
        calibrate(1e-160, 0.1)
    with pytest.raises(CalibrationError, match=r"k=100000000000, epsilon=1e-160"):
        calibrate(1e-160, 0.1, k_cap=100_000_000_000)


@pytest.mark.parametrize("k_cap", [100.5, 1e7, 3.0, "10", 2, np.int64(2)])
def test_calibrate_rejects_non_integer_or_small_k_cap(k_cap):
    # a float cap would otherwise fail deep inside the search, or pass
    # unchecked when the search never reaches it
    with pytest.raises(ValueError, match="k_cap must be an integer >= 3"):
        calibrate(0.2, 0.01, k_cap=k_cap)


def _forget_calibrations():
    core_module._last_offset.clear()


@pytest.fixture
def no_remembered_offset():
    # calibrate remembers the offset of the last calibration it computed: a
    # test that counts or swaps failure_probability must neither start from
    # an offset made before, nor leave one made with the swap
    _forget_calibrations()
    yield
    _forget_calibrations()


def test_calibrate_detects_non_monotone_failure_probability(monkeypatch, no_remembered_offset):
    # the search leans on monotonicity; a violation among the probed
    # indices must surface as a search failure, not a wrong calibration
    epsilon, delta = 0.1, 0.0018
    # the search's first probe is the normal guess, 975, below the minimal
    # k of 999; a dip there that stays above delta keeps the search climbing,
    # and the larger values it then probes above 975 break monotonicity
    guess = max(3, math.ceil((ndtri(0.5 * delta) / epsilon) ** 2))

    def warped(k, epsilon):
        base = failure_probability(k, epsilon)
        return delta + 0.01 * (base - delta) if k == guess else base

    monkeypatch.setattr(core_module, "failure_probability", warped)
    with pytest.raises(CalibrationError, match="not monotone"):
        core_module.calibrate(epsilon, delta)


def test_calibrate_detects_non_monotone_failure_probability_at_remembered_start(
    monkeypatch, no_remembered_offset
):
    # the same dip, now at the start a remembered offset gives: at delta
    # 0.0018 the offset is 18.9 at eps 0.45, so the search at eps 0.1 starts
    # one below ceil(guess + offset), at 993, six below the minimal k of
    # 999, and climbs by 1, 2, 4, ...; no other probe of the search lands
    # on 993, so the error shows the search started there
    epsilon, delta = 0.1, 0.0018
    far = calibrate(0.45, delta)
    guess = lambda eps: (ndtri(0.5 * delta) / eps) ** 2
    start = math.ceil(guess(epsilon) + far.k - guess(0.45)) - 1
    assert start == 993

    def warped(k, epsilon):
        base = failure_probability(k, epsilon)
        return delta + 0.01 * (base - delta) if k == start else base

    monkeypatch.setattr(core_module, "failure_probability", warped)
    with pytest.raises(CalibrationError, match="not monotone"):
        core_module.calibrate(epsilon, delta)


def _doubling_calibrate(epsilon, delta):
    # the search calibrate used before it started at the normal guess:
    # double k from 3 to bracket the crossing, then bisect
    probes = {}

    def f(k):
        if k not in probes:
            probes[k] = failure_probability(k, epsilon)
        return probes[k]

    if f(3) <= delta:
        k_star = 3
    else:
        lo, hi = 3, 6
        while f(hi) > delta:
            lo, hi = hi, hi * 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if f(mid) <= delta:
                hi = mid
            else:
                lo = mid
        k_star = hi
    f_k, f_km1 = f(k_star), f(k_star - 1)
    p = 1.0 if f_km1 <= delta else (delta - f_k) / (f_km1 - f_k)
    return k_star, p, f_k, f_km1


@pytest.mark.slow
def test_calibrate_matches_doubling_search_in_a_dozen_probes(
    monkeypatch, no_remembered_offset
):
    # both searches probe the same failure_probability, so the normal-guess
    # start must change the probe count and nothing else
    rng = np.random.default_rng(11)
    inputs = np.column_stack(
        [
            np.exp(rng.uniform(math.log(0.005), math.log(0.5), 1500)),
            np.exp(rng.uniform(math.log(1e-12), math.log(0.2), 1500)),
        ]
    ).tolist()
    inputs += rng.uniform(0.001, 0.99, (200, 2)).tolist()
    probe_counts = []

    def counted(k, epsilon):
        probe_counts[-1] += 1
        return failure_probability(k, epsilon)

    monkeypatch.setattr(core_module, "failure_probability", counted)
    for epsilon, delta in inputs:
        probe_counts.append(0)
        cal = core_module.calibrate(epsilon, delta)
        assert (cal.k, cal.p, cal.f_k, cal.f_km1) == _doubling_calibrate(epsilon, delta)
    assert np.median(probe_counts[:1500]) <= 13
    assert max(probe_counts) <= 18


def test_calibrate_from_remembered_offset_matches_fresh_search(monkeypatch, no_remembered_offset):
    # phase 2 calibrates at delta / 2 = 0.005 and eps2 = ln(1.2) 0.8 / r_hat1,
    # once per replicate; starting from the last offset at that delta must
    # change the probe count and nothing else, also right after a far eps
    # and after a floor-corner calibration (k = 3) at the same delta
    eps2 = [math.log(1.2) * 0.8 / r_hat1 for r_hat1 in np.linspace(10.0, 25.0, 60)]
    sequence = [(eps, 0.005) for eps in eps2]
    sequence += [(0.45, 0.005), (eps2[0], 0.005), (eps2[15], 0.005), (0.45, 0.005)]
    sequence += [(eps2[-1], 0.005), (0.9, 0.9), (0.0146, 0.9), (0.05, 0.9), (0.9, 0.9)]
    sequence += [(0.3, 0.9), (eps2[30], 0.005)]
    fresh = {}
    for epsilon, delta in sequence:
        _forget_calibrations()
        cal = calibrate(epsilon, delta)
        fresh[epsilon, delta] = (cal.k, cal.p, cal.f_k, cal.f_km1)
    assert fresh[0.9, 0.9][0] == 3

    probed = []  # the indices each calibration probed, in order

    def recorded(k, epsilon):
        probed[-1].append(k)
        return failure_probability(k, epsilon)

    monkeypatch.setattr(core_module, "failure_probability", recorded)
    _forget_calibrations()
    for epsilon, delta in sequence:
        probed.append([])
        cal = core_module.calibrate(epsilon, delta)
        assert (cal.k, cal.p, cal.f_k, cal.f_km1) == fresh[epsilon, delta], (epsilon, delta)
    probe_counts = [len(ks) for ks in probed]
    assert min(probe_counts) >= 1
    # started one below ceil(guess + offset), each search after the first
    # lands on k - 1 or k, and probes just the two tails p needs
    assert probe_counts[1:60] == [2] * 59

    # clearing the remembered offset restores the normal-guess start, not
    # 14 above it
    _forget_calibrations()
    probed.append([])
    core_module.calibrate(eps2[30], 0.005)
    assert probed[-1][0] == math.ceil((ndtri(0.0025) / eps2[30]) ** 2)


def test_phase_two_calibration_starts_from_phase_ones_offset(monkeypatch, no_remembered_offset):
    # phase 1 at delta 0.005 leaves its offset, and a phase 2 calibration at
    # the same delta starts from it and probes twice
    calibrate(0.2, 0.005)
    probes = []

    def counted(k, epsilon):
        probes.append(k)
        return failure_probability(k, epsilon)

    monkeypatch.setattr(core_module, "failure_probability", counted)
    core_module.calibrate(math.log(1.2) * 0.8 / 15.4, 0.005)
    assert len(probes) == 2


def test_phase_two_calibrations_probe_twice(monkeypatch, no_remembered_offset):
    # synthetic two-phase replicates at the synthetic-r15 parameters: after
    # the first, each calibration starts from the offset the one before it
    # left at delta / 2 and probes failure_probability twice, phase 1's
    # (k = 211 and 210) after the last replicate's phase 2 included
    probes = []  # [epsilon, probes] of each calibration, in call order

    def counted(k, epsilon):
        probes[-1][1] += 1
        return failure_probability(k, epsilon)

    def recorded(epsilon, delta):
        probes.append([epsilon, 0])
        return calibrate(epsilon, delta)

    monkeypatch.setattr(core_module, "failure_probability", counted)
    monkeypatch.setattr(core_module, "calibrate", recorded)
    replicate_two_phase(15.4, 0.2, 0.01, 200, SEED)
    phase1, phase2 = probes[0::2], probes[1::2]
    assert [epsilon for epsilon, _ in phase1] == [0.2] * 200
    assert [count for _, count in phase2] == [2] * 200
    assert [count for _, count in phase1[1:]] == [2] * 199


# the calibrate-ci domain, log-uniform, and the whole domain up to 0.99
_CAL_EPSILONS = st.one_of(_log_uniform(0.005, 0.5), st.floats(min_value=0.005, max_value=0.99))
_CAL_DELTAS = st.one_of(_log_uniform(1e-12, 0.2), st.floats(min_value=1e-12, max_value=0.99))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    epsilon=_CAL_EPSILONS,
    delta=_CAL_DELTAS,
    k_cap=st.one_of(st.integers(min_value=3, max_value=5000), st.just(10_000_000)),
)
def test_calibrate_properties(epsilon, delta, k_cap):
    try:
        cal = calibrate(epsilon, delta, k_cap=k_cap)
    except CalibrationError:
        assert calibrate(epsilon, delta).k > k_cap
        return
    assert 3 <= cal.k <= k_cap
    if cal.k > 3:
        assert cal.f_k <= delta < cal.f_km1
    if cal.f_km1 > delta:
        mixed = cal.p * cal.f_km1 + (1.0 - cal.p) * cal.f_k
        assert mixed == pytest.approx(delta, rel=1e-12, abs=0.0)
    else:
        # the floor corner: even k - 1 = 2 beats delta
        assert (cal.k, cal.p) == (3, 1.0)


@pytest.mark.parametrize("epsilon,delta", [(0.0, 0.1), (1.0, 0.1), (0.1, 0.0), (0.1, 1.0)])
def test_calibrate_domain_errors(epsilon, delta):
    with pytest.raises(ValueError):
        calibrate(epsilon, delta)


def test_calibrate_floor_corner_is_conservative():
    # a target so loose that even k = 2 beats it: no exact mixture exists,
    # p clamps to 1 and the achieved failure probability is below delta
    delta = 0.9
    cal = calibrate(0.9, delta)
    assert cal.k == 3
    if cal.f_km1 <= delta:
        assert cal.p == 1.0


# ---------------------------------------------------------------------------
# exact_gpas
# ---------------------------------------------------------------------------


def test_exact_gpas_golden_regression():
    rng = RngStream(20260810, 0)
    source = SyntheticPoissonSource(1.0, rng)
    assert exact_gpas(source, 0.2, 0.1, rng) == GOLDEN_EXACT_GPAS


def test_exact_gpas_p_zero_boundary_never_decrements():
    # picking delta exactly at f_k makes the tie-break probability 0
    epsilon = 0.2
    k0 = calibrate(epsilon, 0.01).k
    delta = failure_probability(k0, epsilon)
    cal = calibrate(epsilon, delta)
    assert cal.k == k0
    assert cal.p == pytest.approx(0.0, abs=1e-12)
    for stream in range(5):
        rng = RngStream(SEED, stream)
        source = SyntheticPoissonSource(3.0, rng)
        assert exact_gpas(source, epsilon, delta, rng).k == k0


def test_exact_gpas_uses_both_k_values():
    epsilon, delta = 0.2, 0.1
    cal = calibrate(epsilon, delta)
    seen = set()
    for stream in range(200):
        rng = RngStream(SEED, stream)
        source = SyntheticPoissonSource(3.0, rng)
        seen.add(exact_gpas(source, epsilon, delta, rng).k)
    assert seen == {cal.k - 1, cal.k}


def test_exact_gpas_propagates_budget_error():
    rng = RngStream(SEED, 4)
    source = SyntheticPoissonSource(0.0, rng, max_calls=200)
    with pytest.raises(BudgetExceededError):
        exact_gpas(source, 0.2, 0.1, rng)


# ---------------------------------------------------------------------------
# confidence_interval
# ---------------------------------------------------------------------------


def test_confidence_interval_orders_endpoints():
    result = GpasResult(k=50, t_prime=25.0, mu_hat=49.0 / 25.0, draws_used=26)
    for coverage in (0.5, 0.9, 0.99):
        ci = confidence_interval(result, coverage)
        assert 0.0 < ci.lower < result.mu_hat < ci.upper
        assert ci.coverage == coverage


def test_confidence_interval_round_trip_mass():
    # the t-space quantiles enclose exactly the requested Gamma mass
    result = GpasResult(k=200, t_prime=100.0, mu_hat=199.0 / 100.0, draws_used=101)
    ci = confidence_interval(result, 0.9)
    mass = reg_lower_gamma(200, ci.upper * result.t_prime) - reg_lower_gamma(
        200, ci.lower * result.t_prime
    )
    assert mass == pytest.approx(0.9, abs=1e-10)


def test_success_probability_identity_k1000():
    # P(999/1.1 <= mu T' <= 999/0.9) complements the k=1000 failure value
    mass = reg_lower_gamma(1000, 999.0 / 0.9) - reg_lower_gamma(1000, 999.0 / 1.1)
    assert abs((1.0 - mass) - 0.001786) < 5e-7


def test_confidence_interval_coverage_monte_carlo():
    result = check_coverage(2000, SEED)
    assert result.passed and not result.skipped


@settings(derandomize=True, database=None, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=2_000_000),
    t_prime=st.floats(min_value=1e-3, max_value=1e6),
    coverages=st.lists(
        st.floats(min_value=1e-9, max_value=1.0 - 1e-9), min_size=2, max_size=2, unique=True
    ),
)
def test_confidence_intervals_nest_as_coverage_grows(k, t_prime, coverages):
    narrow, wide = sorted(coverages)
    result = GpasResult(k=k, t_prime=t_prime, mu_hat=(k - 1) / t_prime,
                        draws_used=math.ceil(t_prime))
    inner = confidence_interval(result, narrow)
    outer = confidence_interval(result, wide)
    assert 0.0 < outer.lower <= inner.lower <= inner.upper <= outer.upper


@pytest.mark.parametrize("k", [2, 3, 10, 211, 5000, 88000, 1_500_000])
def test_confidence_interval_endpoints_against_mpmath(k):
    # each endpoint from its own tail, from 2^-54 (coverage 1 - 2^-53, the
    # largest below 1) to 0.25; the lower one solved on the upper form
    # Q(k, x) = 1 - tail, whose mpmath evaluation converges at every k here
    mpmath = pytest.importorskip("mpmath")
    result = GpasResult(k=k, t_prime=1.0, mu_hat=k - 1.0, draws_used=1)
    with mpmath.workdps(40):
        for coverage in [1.0 - 2.0**-53, 1.0 - 1e-12, 1.0 - 2e-6, 0.99, 0.9, 0.5]:
            tail = 0.5 * (1.0 - coverage)
            ci = confidence_interval(result, coverage)
            for got, target in ((ci.lower, 1 - mpmath.mpf(tail)), (ci.upper, mpmath.mpf(tail))):
                exact = mpmath.findroot(
                    lambda x: mpmath.gammainc(k, x, mpmath.inf, regularized=True) - target,
                    mpmath.mpf(got) * (1 + mpmath.mpf("1e-6")),
                )
                assert float(abs(got / exact - 1)) <= 1e-14, (k, tail, got)


@pytest.mark.parametrize("coverage", [0.0, 1.0, -0.5, 2.0])
def test_confidence_interval_domain_errors(coverage):
    result = GpasResult(k=10, t_prime=5.0, mu_hat=1.8, draws_used=6)
    with pytest.raises(ValueError):
        confidence_interval(result, coverage)


# ---------------------------------------------------------------------------
# scale invariance of the relative error
# ---------------------------------------------------------------------------


def test_relative_error_distribution_is_scale_free():
    result = check_scale_free_error(20_000, SEED)
    assert result.passed and not result.skipped
