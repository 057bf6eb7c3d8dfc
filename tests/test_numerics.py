"""Special functions against independent oracles, and sampler laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

from gpas.numerics import (
    RngStream,
    _reg_upper_gamma,
    gamma_quantile,
    reg_lower_gamma,
    sample_beta,
    sample_bernoulli,
    sample_poisson,
)

SEED = 101
KS_ALPHA = 0.001
CHI2_ALPHA = 0.001

# Frozen from the adaptive-quadrature oracle below (integral of t^2 e^-t / 2
# over [0, 2]); the oracle is re-run in the test to keep itself honest.
REG_LOWER_GAMMA_3_2 = 0.3233235838169366

# Frozen from the closed-form bisection oracle below (root of
# 1 - e^-t (1 + t) = 0.5).
GAMMA_QUANTILE_2_1_HALF = 1.6783469900166605

# First draws of the (seed=0, stream_id=0) uniform stream, frozen once as a
# regression pin on the generator keying and buffering.
GOLDEN_UNIFORMS = [
    0.011546754286331562,
    0.24154919656271812,
    0.11142585551493822,
    0.5644146216071337,
    0.5023796042735054,
    0.27760557688455356,
    0.946544292789214,
    0.9860662462666749,
]


# ---------------------------------------------------------------------------
# reg_lower_gamma
# ---------------------------------------------------------------------------


def test_reg_lower_gamma_exponential_closed_form():
    # P(1, x) = 1 - e^-x
    assert reg_lower_gamma(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    assert reg_lower_gamma(1.0, 3.7) == pytest.approx(1.0 - math.exp(-3.7), rel=1e-14)


def test_reg_lower_gamma_at_zero():
    assert reg_lower_gamma(5.0, 0.0) == 0.0


def test_reg_lower_gamma_against_quadrature_oracle():
    oracle, err = quad(lambda t: t * t * math.exp(-t) / 2.0, 0.0, 2.0,
                       epsabs=1e-14, epsrel=1e-14)
    assert err < 1e-12
    assert oracle == pytest.approx(REG_LOWER_GAMMA_3_2, abs=1e-13)
    assert reg_lower_gamma(3.0, 2.0) == pytest.approx(REG_LOWER_GAMMA_3_2, rel=1e-12)


def test_reg_lower_gamma_half_shape_matches_erf():
    # P(1/2, x) = erf(sqrt(x)) exactly; the density's endpoint singularity
    # makes quadrature unreliable below shape 1, so use the closed form
    for x in [0.05, 0.25, 0.5, 1.0, 4.0]:
        assert reg_lower_gamma(0.5, x) == pytest.approx(math.erf(math.sqrt(x)), rel=1e-12)


@pytest.mark.parametrize("shape", [1.0, 2.0, 10.0, 100.0, 2561.0, 10000.0])
def test_reg_lower_gamma_accuracy_grid(shape):
    # independent quadrature oracle on the gamma density, with the mode
    # supplied as a breakpoint so quad resolves the mass at large shape
    for x_factor in [0.5, 0.9, 1.0, 1.1, 2.0]:
        x = shape * x_factor
        log_norm = math.lgamma(shape)

        def density(t):
            if t == 0.0:
                return 0.0 if shape > 1.0 else math.exp(-log_norm)
            return math.exp((shape - 1.0) * math.log(t) - t - log_norm)

        points = sorted({max(shape - 1.0, 1e-12), x / 2.0})
        oracle, err = quad(density, 0.0, x, epsabs=1e-300, epsrel=1e-13,
                           points=points if x > max(points) else None, limit=200)
        got = reg_lower_gamma(shape, x)
        if oracle > 1e-250:
            assert got == pytest.approx(oracle, rel=1e-10)


def test_reg_lower_gamma_monotone_and_limits():
    for shape in [0.5, 3.0, 50.0, 1000.0]:
        xs = np.linspace(0.0, shape + 40.0 * math.sqrt(shape), 60)
        values = [reg_lower_gamma(shape, x) for x in xs]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[0] == 0.0
        assert abs(values[-1] - 1.0) < 1e-10


@pytest.mark.parametrize("shape,x", [(0.0, 1.0), (-2.0, 1.0), (1.0, -0.5),
                                     (math.nan, 1.0), (1.0, math.inf)])
def test_reg_lower_gamma_domain_errors(shape, x):
    with pytest.raises(ValueError):
        reg_lower_gamma(shape, x)


def test_reg_upper_gamma_against_mpmath():
    # the upper tail at the arguments failure_probability uses, over
    # eps in [0.005, 0.5] and k up to the calibration cap of 1e7, plus phase
    # 2's eps2 = 8.9e-4 at k2 = 9961565 (r = 164), against 40-digit mpmath;
    # taking it as 1 - P instead loses it entirely once it falls below 1e-16
    mpmath = pytest.importorskip("mpmath")
    ks = np.unique(np.rint(np.geomspace(3, 1e7, 18)).astype(int)).tolist()
    cases = [(9_961_565, math.log(1.2) * 0.8 / 164.0)] + [
        (k, epsilon) for epsilon in np.geomspace(0.005, 0.5, 12).tolist() for k in ks
    ]
    with mpmath.workdps(40):
        checked = 0
        for k, epsilon in cases:
            x = (k - 1) / (1.0 - epsilon)
            exact = mpmath.gammainc(k, mpmath.mpf(x), mpmath.inf, regularized=True)
            if exact < 1e-300:
                continue  # below the smallest normal double
            assert float(abs(_reg_upper_gamma(k, x) / exact - 1)) <= 1e-12, (k, epsilon)
            checked += 1
        assert checked > 100


def test_reg_upper_gamma_complements_lower():
    for shape, x in [(0.5, 0.3), (3.0, 2.0), (3.0, 9.0), (200.0, 250.0)]:
        assert _reg_upper_gamma(shape, x) == pytest.approx(
            1.0 - reg_lower_gamma(shape, x), rel=1e-12
        )
    assert _reg_upper_gamma(5.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        _reg_upper_gamma(1.0, math.nan)


# ---------------------------------------------------------------------------
# gamma_quantile
# ---------------------------------------------------------------------------


def test_gamma_quantile_exponential_inverse():
    # Gamma(1, 1) is Exp(1): quantile of 1 - e^-1 is exactly 1
    q = 1.0 - math.exp(-1.0)
    assert gamma_quantile(1.0, 1.0, q) == pytest.approx(1.0, rel=1e-12)


def test_gamma_quantile_closed_form_bisection_oracle():
    # Gamma(2, 1) CDF is 1 - e^-t (1 + t); bisect it independently
    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 1.0 - math.exp(-mid) * (1.0 + mid) < 0.5:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert oracle == pytest.approx(GAMMA_QUANTILE_2_1_HALF, abs=1e-12)
    assert gamma_quantile(2.0, 1.0, 0.5) == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("shape", [1.0, 2.5, 17.0, 200.0, 1000.0])
@pytest.mark.parametrize("rate", [0.25, 1.0, 8.0])
@pytest.mark.parametrize("q", [0.001, 0.05, 0.5, 0.95, 0.999])
def test_gamma_quantile_round_trip(shape, rate, q):
    t = gamma_quantile(shape, rate, q)
    assert t > 0.0
    assert abs(reg_lower_gamma(shape, rate * t) - q) <= 1e-10


def _log_uniform(low, high):
    return st.floats(min_value=math.log(low), max_value=math.log(high)).map(math.exp)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    shape=_log_uniform(2, 1e7).map(round),
    tail=_log_uniform(1e-12, 0.5),
    upper=st.booleans(),
)
def test_gamma_quantile_round_trip_in_both_tails(shape, tail, upper):
    # x = F^-1(q) carries a relative error eta_q, and evaluating the tail
    # T(x) (F below the median, Q = 1 - F above) adds its own eta_T, so
    #   |T(x) / T - 1| <= kappa |eta_q| + |eta_T|,  kappa = x f(x) / T(x),
    # the condition number of T at x (about sqrt(shape) |z| in the deep
    # tails, so up to about 22000 here).  The bound budgets 16 ulps for each
    # of eta_q and eta_T.  The shapes reach the default k cap of 1e7.  Over
    # 4000 log-uniform draws of this domain the worst error was 8.4e-12
    # relative (shape 5.7e6, lower tail 2e-7, kappa 12500) and the largest
    # in units of (kappa + 1) ulps was 8.9; up to shape 1.5e6 it was 9.3.
    # Above the median q = 1 - tail is exact (Sterbenz), so 1 - q is the
    # upper tail.
    q = 1.0 - tail if upper else tail
    x = gamma_quantile(shape, 1.0, q)
    got = _reg_upper_gamma(shape, x) if upper else reg_lower_gamma(shape, x)
    target = 1.0 - q if upper else q
    kappa = x * math.exp((shape - 1) * math.log(x) - x - math.lgamma(shape)) / target
    assert abs(got / target - 1.0) <= 16 * math.ulp(1.0) * (kappa + 1.0), (shape, q, kappa)


def test_gamma_quantile_strictly_increasing_in_q():
    quantiles = [gamma_quantile(7.0, 2.0, q) for q in (0.01, 0.2, 0.5, 0.8, 0.99)]
    assert all(b > a for a, b in zip(quantiles, quantiles[1:]))


@pytest.mark.parametrize("shape", [2, 3, 10, 211, 5000, 88000, 1_500_000])
def test_gamma_quantile_against_mpmath(shape):
    # solved on the upper form Q(k, x) = 1 - q, whose mpmath evaluation
    # converges at every shape here; 40 digits leave room for 1 - 5e-13
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for q in [5e-13, 1e-6, 0.005, 0.5, 0.995, 1.0 - 1e-6, 1.0 - 5e-13]:
            got = gamma_quantile(shape, 1.0, q)
            target = 1 - mpmath.mpf(q)
            exact = mpmath.findroot(
                lambda x: mpmath.gammainc(shape, x, mpmath.inf, regularized=True) - target,
                mpmath.mpf(got) * (1 + mpmath.mpf("1e-6")),
            )
            assert float(abs(got / exact - 1)) <= 1e-14, (shape, q)


@pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.5])
def test_gamma_quantile_domain_errors(q):
    with pytest.raises(ValueError):
        gamma_quantile(2.0, 1.0, q)


def test_gamma_quantile_raises_when_boost_finds_none(monkeypatch):
    # a NaN from scipy must not travel on as an interval endpoint
    import gpas.numerics as numerics_module

    class NoQuantile:
        @staticmethod
        def chndtrix(q, df, nc):
            return math.nan

    monkeypatch.setattr(numerics_module, "special", NoQuantile)
    with pytest.raises(ArithmeticError):
        gamma_quantile(2.0, 1.0, 0.5)


# ---------------------------------------------------------------------------
# RngStream and uniforms
# ---------------------------------------------------------------------------


def test_uniform_golden_sequence():
    rng = RngStream(0, 0)
    got = [rng.next_uniform() for _ in range(len(GOLDEN_UNIFORMS))]
    assert got == GOLDEN_UNIFORMS


def test_uniform_range_contract():
    rng = RngStream(SEED)
    for _ in range(10_000):
        u = rng.next_uniform()
        assert 0.0 <= u < 1.0


def test_uniform_mean():
    rng = RngStream(SEED, 1)
    draws = np.array([rng.next_uniform() for _ in range(100_000)])
    assert abs(draws.mean() - 0.5) < 0.005


def test_determinism_bit_identical_across_buffering():
    a = RngStream(77, 5)
    b = RngStream(77, 5)
    # run well past several buffer refills
    assert [a.next_uniform() for _ in range(20_000)] == [
        b.next_uniform() for _ in range(20_000)
    ]


@pytest.mark.parametrize("seed,stream", [(0, 0), (77, 5), (2**64 - 1, 3)])
def test_uniforms_follow_the_block_schedule(seed, stream):
    # each refill is one Generator.random block of the next scheduled size,
    # drawn by the call that finds the previous block spent: a Beta draw
    # just after a block's first uniform, and one after its last, pin both
    # the size and the moment against the same generator driven directly
    rng = RngStream(seed, stream)
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    for size, served in ((64, 64), (256, 256), (1024, 1024), (4096, 4096), (16384, 16384), (16384, 100)):
        block = gen.random(size).tolist()
        assert rng.next_uniform() == block[0]
        assert sample_beta(rng, 2, 5) == float(gen.beta(2, 5))
        assert [rng.next_uniform() for _ in range(served - 1)] == block[1:served]
        assert sample_beta(rng, 2, 5) == float(gen.beta(2, 5))


def _mixed_draws(rng):
    # interleave every draw path through 20k uniforms, so the buffer refills
    # several times between sampler calls
    draws = []
    for _ in range(4_000):
        draws.extend(rng.next_uniform() for _ in range(4))
        draws.append(sample_bernoulli(rng, 0.3))
        draws.append(sample_poisson(rng, 3.0))
        draws.append(sample_poisson(rng, 40.0))
        draws.append(sample_beta(rng, 2, 5))
        draws.append(sample_beta(rng, 7, 3))
    return draws


def test_determinism_bit_identical_across_mixed_calls():
    # uniforms come from a buffer, Beta draws from the same generator and
    # counts from its substream, so every path must replay identically
    first = _mixed_draws(RngStream(77, 5))
    assert first == _mixed_draws(RngStream(77, 5))
    assert first != _mixed_draws(RngStream(77, 6))


def test_distinct_stream_ids_differ_and_decorrelate():
    a = RngStream(77, 0)
    b = RngStream(77, 1)
    xs = np.array([a.next_uniform() for _ in range(10_000)])
    ys = np.array([b.next_uniform() for _ in range(10_000)])
    assert not np.array_equal(xs, ys)
    assert abs(np.corrcoef(xs, ys)[0, 1]) < 0.05


@pytest.mark.parametrize("seed,stream", [(-1, 0), (2**64, 0), (0, -3), (1.5, 0)])
def test_rng_stream_rejects_bad_ids(seed, stream):
    with pytest.raises(ValueError):
        RngStream(seed, stream)


def test_bernoulli_boundaries():
    rng = RngStream(SEED, 2)
    assert not any(sample_bernoulli(rng, 0.0) for _ in range(1000))
    assert all(sample_bernoulli(rng, 1.0) for _ in range(1000))
    with pytest.raises(ValueError):
        sample_bernoulli(rng, 1.2)


# ---------------------------------------------------------------------------
# Poisson sampler
# ---------------------------------------------------------------------------


def test_poisson_zero_mean_is_degenerate():
    rng = RngStream(SEED, 3)
    assert all(sample_poisson(rng, 0.0) == 0 for _ in range(100))


def test_poisson_moments():
    rng = RngStream(SEED, 4)
    draws = np.array([sample_poisson(rng, 3.0) for _ in range(100_000)])
    assert abs(draws.mean() - 3.0) < 0.02
    assert abs(draws.var(ddof=1) - 3.0) < 0.1


def test_poisson_chi_square_fit_against_exact_pmf():
    rng = RngStream(SEED, 5)
    n = 100_000
    draws = np.array([sample_poisson(rng, 3.0) for _ in range(n)])
    top = int(draws.max())
    observed = np.bincount(draws, minlength=top + 2).astype(float)
    pmf = np.array([math.exp(-3.0) * 3.0**i / math.factorial(i) for i in range(top + 1)])
    expected = np.append(pmf, max(1.0 - pmf.sum(), 0.0)) * n
    # pool the tail so expected counts stay above 5
    while expected[-1] < 5.0:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    statistic = np.sum((observed - expected) ** 2 / expected)
    pvalue = stats.chi2.sf(statistic, len(expected) - 1)
    assert pvalue > CHI2_ALPHA


@pytest.mark.parametrize("mu", [75.0, 1e6, 1e12])
def test_poisson_large_mean_moments(mu):
    # 20k draws at mu = 1e12 finish only if a draw's cost does not grow
    # with mu; counts must stay Python ints
    rng = RngStream(SEED, 6)
    values = [sample_poisson(rng, mu) for _ in range(20_000)]
    assert all(type(value) is int for value in values)
    draws = np.array(values, dtype=float)
    assert abs(draws.mean() - mu) < 3.0 * math.sqrt(mu / 20_000)
    assert abs(draws.var(ddof=1) / mu - 1.0) < 0.05


def _interleaved_poisson(rng):
    # runs of every length from 1 to past a block, switching mean after each
    means = (0.5, 15.4, 75.0)
    runs = (1, 2, 5, 63, 64, 65, 200, 1, 1, 700)
    draws = {mu: [] for mu in means}
    for step in range(900):
        mu = means[step % 3]
        draws[mu].extend(sample_poisson(rng, mu) for _ in range(runs[step % len(runs)]))
    return draws


def test_poisson_buffer_interleaved_means():
    # a change of mean discards the buffered counts; every subsequence must
    # still be iid Poisson of its own mean, and a replay must repeat exactly
    draws = _interleaved_poisson(RngStream(SEED, 16))
    assert draws == _interleaved_poisson(RngStream(SEED, 16))
    for mu, values in draws.items():
        assert all(type(value) is int for value in values)
        n = len(values)
        assert n > 30_000
        sample = np.array(values, dtype=float)
        assert abs(sample.mean() - mu) <= 4.0 * math.sqrt(mu / n)
        # Var(s^2) for Poisson(mu) is (mu + 2 mu^2) / n to leading order
        assert abs(sample.var(ddof=1) - mu) <= 4.0 * math.sqrt((mu + 2.0 * mu * mu) / n)


def _count_substream(seed, stream):
    # the documented count substream: the stream's key at counter 2^255
    counter = np.array([0, 0, 0, 2**63], dtype=np.uint64)
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


@pytest.mark.parametrize("mu", [0.3, 2.0, 15.4, 1e4])
@pytest.mark.parametrize("seed,stream", [(0, 0), (77, 5), (2**64 - 1, 3)])
def test_poisson_counts_equal_one_substream_draw(seed, stream, mu):
    # 40000 counts span ten refills (64 doubling to the 16384 cap, then the
    # cap twice), yet they are one direct draw of 40000 on the substream
    rng = RngStream(seed, stream)
    got = [sample_poisson(rng, mu) for _ in range(40_000)]
    assert got == _count_substream(seed, stream).poisson(mu, 40_000).tolist()


def test_poisson_counts_ignore_other_draws_in_between():
    # uniforms and Beta draws never touch the count substream, whatever
    # their number and wherever they fall between counts
    plain = RngStream(77, 5)
    mixed = RngStream(77, 5)
    expected = [sample_poisson(plain, 15.4) for _ in range(30_000)]
    got = []
    for i in range(30_000):
        for _ in range(i % 7):
            mixed.next_uniform()
        if i % 3 == 0:
            sample_beta(mixed, 2, 5)
        got.append(sample_poisson(mixed, 15.4))
    assert got == expected


def test_uniform_only_streams_build_no_count_substream():
    rng = RngStream(77, 5)
    for _ in range(1_000):
        rng.next_uniform()
        sample_beta(rng, 2, 5)
        sample_poisson(rng, 0.0)
    assert rng._count_gen is None


def test_rejected_mean_leaves_the_count_buffer_intact():
    rng, twin = RngStream(77, 5), RngStream(77, 5)
    expected = [sample_poisson(twin, 3.0) for _ in range(200)]
    got = [sample_poisson(rng, 3.0) for _ in range(100)]
    with pytest.raises(ValueError):
        sample_poisson(rng, 1e20)
    got.extend(sample_poisson(rng, 3.0) for _ in range(100))
    assert got == expected


class _CountingGenerator:
    """Generator proxy that records how many Poisson counts each fill draws."""

    def __init__(self, gen):
        self._gen = gen
        self.poisson_drawn = 0

    def poisson(self, lam, size):
        self.poisson_drawn += size
        return self._gen.poisson(lam, size)


def test_poisson_buffer_restarts_small_on_a_new_mean():
    # alternating means must not refill ever larger blocks: each switch
    # draws one smallest block, so the mixed-calls replay stays cheap
    rng = RngStream(77, 5)
    rng._count_gen = counter = _CountingGenerator(_count_substream(77, 5))
    _mixed_draws(rng)
    assert counter.poisson_drawn == 8_000 * 64
    # one mean throughout doubles the blocks to their cap: 1e5 counts take
    # 64 + 128 + ... + 16384 and then five blocks of 16384, 114,624 in all
    rng = RngStream(77, 5)
    rng._count_gen = counter = _CountingGenerator(_count_substream(77, 5))
    for _ in range(100_000):
        sample_poisson(rng, 3.0)
    assert counter.poisson_drawn < 120_000


@pytest.mark.parametrize("mu", [-1.0, math.nan, math.inf, 1e20])
def test_poisson_domain_errors(mu):
    with pytest.raises(ValueError):
        sample_poisson(RngStream(SEED), mu)


# ---------------------------------------------------------------------------
# Beta sampler
# ---------------------------------------------------------------------------


def test_beta_1_1_is_uniform():
    rng = RngStream(SEED, 11)
    draws = np.array([sample_beta(rng, 1, 1) for _ in range(100_000)])
    result = stats.kstest(draws, "uniform")
    assert result.pvalue > KS_ALPHA


def test_beta_mean_oracle():
    rng = RngStream(SEED, 12)
    draws = np.array([sample_beta(rng, 2, 3) for _ in range(100_000)])
    variance = 2.0 * 3.0 / (5.0**2 * 6.0)
    assert abs(draws.mean() - 0.4) < 3.0 * math.sqrt(variance / 100_000)


def test_beta_matches_uniform_order_statistic():
    # the i-th smallest of n uniforms is Beta(i, n - i + 1)
    rng = RngStream(SEED, 13)
    n, i = 7, 3
    order_stats = np.array([
        sorted(rng.next_uniform() for _ in range(n))[i - 1]
        for _ in range(10_000)
    ])
    betas = np.array([sample_beta(rng, i, n - i + 1) for _ in range(10_000)])
    result = stats.ks_2samp(order_stats, betas, method="asymp")
    assert result.pvalue > KS_ALPHA


def test_beta_range_is_open_interval():
    rng = RngStream(SEED, 14)
    for _ in range(10_000):
        value = sample_beta(rng, 1, 1)
        assert 0.0 < value < 1.0


@pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (-1, 2), (1.5, 2), (2, 2.0)])
def test_beta_domain_errors(a, b):
    with pytest.raises(ValueError):
        sample_beta(RngStream(SEED), a, b)


# ---------------------------------------------------------------------------
# Sampler ranges over their whole domains
# ---------------------------------------------------------------------------


@settings(derandomize=True, database=None, deadline=None)
@given(
    mu=st.floats(min_value=0.0, max_value=1e12),
    a=st.integers(min_value=1, max_value=10**6),
    b=st.integers(min_value=1, max_value=10**6),
)
def test_sampler_ranges_property(mu, a, b):
    rng = RngStream(SEED, 15)
    count = sample_poisson(rng, mu)
    assert type(count) is int and count >= 0
    assert 0.0 < sample_beta(rng, a, b) < 1.0
