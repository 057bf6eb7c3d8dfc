"""Special functions and random variate generation.

Everything stochastic in this package is driven by :class:`RngStream`, a
seedable stream addressed by a ``(seed, stream_id)`` pair.  Uniforms
(:attr:`RngStream.uniforms`, or :meth:`RngStream.next_uniform`) and Bernoulli
draws come from the stream's chained blocks of uniforms, Beta draws straight
from its underlying numpy generator, and Poisson counts from chained blocks of
one mean, drawn from a Philox substream of their own.  The same pair and the
same sequence of calls reproduce the same draws within one numpy version, and
independent replicates run on distinct stream ids.

The deterministic side supplies exact Gamma tail probabilities and quantiles
to the calibration and confidence-interval code: the regularized lower
incomplete gamma function, the upper tail taken from the continued fraction
without cancellation, and Gamma quantiles from Boost's inverse chi-square
CDF, through ``scipy.special``.  The lower function picks its method from
its input and value alone: below ``x = shape + 1``, Boost's chi-square CDF
(``scipy.special.chndtr``) where its value is from 1e-4 to 0.45 and the
shape at most 1e8, and the power series elsewhere; from ``shape + 1`` up,
one minus the continued fraction.  :func:`reg_lower_gamma` gives the errors
measured on each side.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import chain, repeat

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy import special

from .errors import (
    POISSON_MEAN_MAX,
    _check_integer,
    _check_nonnegative_finite,
    _check_poisson_mean,
    _check_positive_finite,
    _check_unit_interval,
)

__all__ = [
    "RngStream",
    "reg_lower_gamma",
    "gamma_quantile",
    "sample_bernoulli",
    "sample_poisson",
    "sample_beta",
]

_MAX_ITERATIONS = 1_000_000
_REL_TERM_TOL = 1e-15
# Where reg_lower_gamma's series branch takes Boost's chi-square CDF instead:
# values between these two tails, at shapes up to this one, the region over
# which a 40-digit reference bounds its error (tests/test_core.py)
_CHNDTR_MIN_TAIL = 1e-4
_CHNDTR_MAX_TAIL = 0.45
_CHNDTR_MAX_SHAPE = 1e8


# ---------------------------------------------------------------------------
# Regularized incomplete gamma function and its inverse
# ---------------------------------------------------------------------------


def reg_lower_gamma(shape: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(shape, x).

    P(shape, x) = gamma(shape, x) / Gamma(shape) is the CDF at ``x`` of a
    Gamma(shape, 1) random variable; the CDF of Gamma(shape, rate) at ``t``
    is therefore ``reg_lower_gamma(shape, rate * t)``.

    For ``x < shape + 1`` and ``shape <= 1e8``, a value from 1e-4 to 0.45 is
    Boost's chi-square CDF ``scipy.special.chndtr(2 x, 2 shape, 0)``, at 1-3
    µs a call.  Against a 40-digit reference it stays within 3.2e-15 relative
    for tails from 1e-4 to 0.3 and 1.1e-14 up to 0.45.  Within about 50 of
    the median, ``|x - shape| < 50``, its error is about
    ``3e-17 sqrt(shape)``, 2.9e-13 at shape 1e8; a value above 0.45 lies in
    that band at every shape from about 1.6e5 up.  Any other
    ``x < shape + 1`` (a value outside [1e-4, 0.45], a NaN, or a larger
    shape) takes the lower power series, summed until the relative term
    drops below 1e-15 and closed by a bound on the terms left.  It stays
    within 2.5e-14 for tails from 1e-4 down to 1e-20 up to shape 1e8, where
    ``chndtr`` is off by up to 2.4e-13 (and by 1.1e-8 at a 4.7e-89 tail),
    and within 4.3e-14 from 0.45 to the median, but its cost grows with
    ``sqrt(shape)``: 100-200 µs at shape 88000.  For ``x >= shape + 1`` the
    value is one minus the continued fraction of the upper function.

    Raises:
        ValueError: if ``shape <= 0`` or ``x < 0`` (or either is not finite).
    """
    _check_positive_finite("shape", shape)
    _check_nonnegative_finite("x", x)
    # a float shape keeps -i * (i - shape) in the continued fraction off a
    # numpy unsigned type, where it would wrap or overflow
    shape = float(shape)
    if x == 0.0:
        return 0.0
    if x < shape + 1.0:
        if shape <= _CHNDTR_MAX_SHAPE:
            tail = float(special.chndtr(2.0 * x, 2.0 * shape, 0.0))
            if _CHNDTR_MIN_TAIL <= tail <= _CHNDTR_MAX_TAIL:
                return tail
        return _lower_series(shape, x)
    return 1.0 - _upper_continued_fraction(shape, x)


def _reg_upper_gamma(shape: float, x: float) -> float:
    # Q(shape, x) = 1 - P(shape, x), from the continued fraction itself where
    # it converges, so a tiny upper tail is not lost in 1 - P
    if x < shape + 1.0:
        return 1.0 - reg_lower_gamma(shape, x)
    _check_positive_finite("shape", shape)
    _check_nonnegative_finite("x", x)
    return _upper_continued_fraction(float(shape), x)


# Above this shape the naive exponent shape*ln(x) - x - lgamma(shape) is a
# small difference of huge terms, each rounding at its own magnitude; the
# Stirling form below keeps every term at the scale of the result.
_STIRLING_SWITCH = 30.0


def _stirling_correction(s: float) -> float:
    # lgamma(s) - [(s - 1/2) ln s - s + ln(2 pi)/2], asymptotic series
    inv = 1.0 / s
    inv2 = inv * inv
    return inv * (
        1.0 / 12.0
        + inv2
        * (
            -1.0 / 360.0
            + inv2 * (1.0 / 1260.0 + inv2 * (-1.0 / 1680.0 + inv2 * (1.0 / 1188.0)))
        )
    )


# Below this |r|, (ln(1 + r) - r) / r is summed as a series: computed
# directly it loses about 4e-16 / |r| relative, which a shape of 1e6 turns
# into 1e-12 relative error in the tail.
_LOG1P_SERIES_SWITCH = 0.25
# 1/23, 1/21, ..., 1/3: the atanh series below in Horner order; with
# |r| < 0.25, u^2 < 0.021 and the next term would be below 1e-18
_ATANH_COEFFS = tuple(1.0 / (2 * n + 3) for n in reversed(range(11)))


def _log1p_minus_ratio(r: float) -> float:
    # (ln(1 + r) - r) / r for r > -1.  With u = r / (2 + r),
    # ln(1 + r) = 2 atanh(u) = 2 sum_{n >= 0} u^(2n+1) / (2n+1) and
    # r = 2u / (1 - u), which gives -u + u^2 (1 - u) sum_n u^(2n) / (2n+3)
    if abs(r) >= _LOG1P_SERIES_SWITCH:
        return (math.log1p(r) - r) / r
    u = r / (2.0 + r)
    u2 = u * u
    series = 0.0
    for coeff in _ATANH_COEFFS:
        series = series * u2 + coeff
    return u * (u * (1.0 - u) * series - 1.0)


def _gamma_prefactor(shape: float, x: float) -> float:
    # x^shape e^-x / Gamma(shape), computed in log space to dodge overflow
    if shape < _STIRLING_SWITCH:
        return math.exp(shape * math.log(x) - x - math.lgamma(shape))
    excess = x - shape
    # shape ln(1 + r) - excess, with r = excess / shape, is a small
    # difference of two terms of size excess; excess * (ln(1 + r) - r) / r
    # is the same value with the cancellation left to the series
    exponent = (
        excess * _log1p_minus_ratio(excess / shape)
        + 0.5 * math.log(shape / (2.0 * math.pi))
        - _stirling_correction(shape)
    )
    return math.exp(exponent)


def _lower_series(shape: float, x: float) -> float:
    # P(shape, x) = x^shape e^-x / Gamma(shape) * sum_n x^n / (shape)_(n+1);
    # shape and x are positive, so every term and partial sum is too
    denom = shape
    term = 1.0 / shape
    total = term
    for _ in range(_MAX_ITERATIONS):
        denom += 1.0
        term *= x / denom
        total += term
        if term < total * _REL_TERM_TOL:
            # the ratios x / (denom + j) of the terms left fall with j, so
            # the geometric sum at the first of them bounds their sum; near
            # shape 1e8 that sum is about 1000 times the last term
            total += term * x / (denom + 1.0 - x)
            return total * _gamma_prefactor(shape, x)
    raise ArithmeticError(
        f"lower gamma series did not converge for shape={shape}, x={x}"
    )


def _upper_continued_fraction(shape: float, x: float) -> float:
    # Q(shape, x) by Lentz's algorithm on the standard continued fraction
    tiny = 1e-300
    b = x + 1.0 - shape
    c = 1.0 / tiny
    d = 1.0 / b if abs(b) >= tiny else 1.0 / tiny
    h = d
    for i in range(1, _MAX_ITERATIONS + 1):
        an = -i * (i - shape)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _REL_TERM_TOL:
            return h * _gamma_prefactor(shape, x)
    raise ArithmeticError(
        f"upper gamma continued fraction did not converge for shape={shape}, x={x}"
    )


def gamma_quantile(shape: float, q: float) -> float:
    """Quantile of the Gamma(shape, 1) distribution.

    Returns ``x`` with ``reg_lower_gamma(shape, x) = q``.  A Gamma(shape, 1)
    variable is half a chi-square variable with ``2 * shape`` degrees of
    freedom, so ``x`` is Boost's inverse chi-square CDF at ``q``
    (``scipy.special.chndtrix`` with noncentrality 0) halved.  It stays
    within about 1e-15 relative of the exact quantile in both deep tails,
    for shapes from 2 to 1.5e6, at a few microseconds a call, so nothing is
    cached.

    Raises:
        ValueError: if ``q`` is outside (0, 1) or ``shape`` is nonpositive.
        ArithmeticError: if Boost finds no quantile (it returns NaN for
            shapes of about 1e12 and up).
    """
    _check_positive_finite("shape", shape)
    _check_unit_interval("q", q)
    chi_square = float(special.chndtrix(q, 2.0 * shape, 0.0))
    if math.isnan(chi_square):
        raise ArithmeticError(f"no Gamma quantile found for shape={shape}, q={q}")
    return chi_square / 2.0


# ---------------------------------------------------------------------------
# Random stream and variate samplers
# ---------------------------------------------------------------------------

# Block sizes grow so short-lived streams stay cheap while long-lived ones
# amortize generator overhead.  Counts of one mean stop at 1024, so a run
# that stops drawing leaves fewer than 1024 of them unused.
_BUFFER_SCHEDULE = (64, 256, 1024, 4096, 16384)
_COUNT_SCHEDULE = (64, 128, 256, 512, 1024)
# The count generator is keyed like the stream's own and starts at this
# counter, 2^255 blocks past the stream's start, so the two never meet.
_COUNT_COUNTER = (0, 0, 0, 2**63)


class _KeySequence(ISeedSequence):
    """A seed sequence whose only state is a Philox key.

    Philox asks its seed sequence for two uint64 words and uses them as its
    key, so ``Philox(_KeySequence(key))`` is keyed as ``Philox(key=key)``
    is, with the same draws; the latter also builds a ``SeedSequence()``
    it never reads, whose OS entropy costs more than the rest of the
    generator.
    """

    def __init__(self, key: np.ndarray) -> None:
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.key


def _blocks(draw, sizes):
    """Yield ``draw(size).tolist()`` for each size, then for the last forever.

    ``draw`` is a method of a numpy generator, or a partial of one, never of
    a stream, so the chain over these blocks holds no reference back to its
    stream, which is then freed without waiting for the cycle collector.
    """
    for size in chain(sizes, repeat(sizes[-1])):
        yield draw(size).tolist()


class RngStream:
    """Deterministic random stream addressed by ``(seed, stream_id)``.

    Backed by the Philox counter-based generator keyed directly with the
    ``(seed, stream_id)`` pair, handed to it as a :class:`_KeySequence` so
    that building a stream draws no OS entropy.  Distinct keys yield
    statistically independent sequences (a documented property of that
    generator family), each with period 2^256.  Uniforms come from
    :attr:`uniforms`, one iterator that chains blocks of
    ``Generator.random`` draws (64, 256, 1024, 4096, then 16384 values);
    :meth:`next_uniform` is ``next(rng.uniforms)``, and a hot loop calls
    ``next`` on the iterator itself, which serves a buffered uniform with
    no Python frame.  The chain is lazy: it draws the next block only when
    a draw finds the current one spent.  The Beta sampler of this module
    draws from the same generator, so a block and a sampler call each
    advance it, and the laziness keeps them in the order of the calls: the
    same calls give the same draws through either access path.

    Poisson counts come from a substream of their own: a second Philox
    generator with the same key, started at counter ``(0, 0, 0, 2^63)``
    and created by the first count, so a stream that draws none (a
    descent's) never builds it.  Counts of one mean are chained the same
    way, in blocks doubling from 64 to 1024; :func:`sample_poisson` at
    another mean drops that chain and starts a new one at 64.  numpy's
    Poisson draws of one mean in blocks of a and b equal one block of
    a + b, and no other draw touches the substream, so the counts of a run
    at one mean are one fixed sequence: they do not depend on the block
    sizes, nor on the uniforms and Beta draws taken between them.  The same
    pair and the same sequence of calls therefore reproduce the same draws
    within one numpy version.

    A stream is single-owner mutable state: never share one instance across
    threads.  Run concurrent replicates on distinct stream ids instead.  Its
    chains hold Python generators, so a stream cannot be pickled or copied;
    build a new one from its ``(seed, stream_id)``.
    """

    __slots__ = ("seed", "stream_id", "_gen", "uniforms", "_count_gen", "_counts", "_count_mu")

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        _check_integer("seed", seed, 0, 2**64)
        _check_integer("stream_id", stream_id, 0, 2**64)
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._gen = np.random.Generator(np.random.Philox(self._key()))
        self.uniforms = chain.from_iterable(_blocks(self._gen.random, _BUFFER_SCHEDULE))
        # the count substream, built by the first count, and the chain of
        # counts of _count_mu, a mean sample_poisson has validated (NaN
        # matches none)
        self._count_gen = None
        self._counts = iter(())
        self._count_mu = math.nan

    def _key(self) -> _KeySequence:
        return _KeySequence(np.array([self.seed, self.stream_id], dtype=np.uint64))

    def next_uniform(self) -> float:
        """Next uniform variate in [0, 1)."""
        return next(self.uniforms)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def sample_bernoulli(rng: RngStream, p: float) -> bool:
    """Bernoulli(p) draw; p = 0 is always False and p = 1 always True."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    return rng.next_uniform() < p


def sample_poisson(rng: RngStream, mu: float) -> int:
    """Poisson(mu) count from the stream's count substream; mu = 0 returns 0.

    A call at the stream's current mean takes the next count of its chain
    (see :class:`RngStream`), which skips even the argument check (that
    mean passed it).  Any other mean is checked before the stream's state
    changes: it must be finite, nonnegative and at most
    :data:`POISSON_MEAN_MAX` (about 9.2e18), numpy's limit, or ValueError
    is raised.  The counts of one mean are the same sequence whatever other
    draws fall between them, and the cost does not grow with mu.
    """
    if mu == rng._count_mu:
        return next(rng._counts)
    _check_poisson_mean("mu", mu)
    if mu == 0.0:
        return 0
    if rng._count_gen is None:
        rng._count_gen = np.random.Generator(
            np.random.Philox(rng._key(), counter=_COUNT_COUNTER)
        )
    draw = partial(rng._count_gen.poisson, mu)
    rng._counts = chain.from_iterable(_blocks(draw, _COUNT_SCHEDULE))
    rng._count_mu = mu
    return next(rng._counts)


def sample_beta(rng: RngStream, a: int, b: int) -> float:
    """Beta(a, b) draw for integer parameters a, b >= 1.

    Drawn by the stream's generator and clamped to the open interval (0, 1),
    so an arrival time built from it is never exactly 0.
    """
    _check_integer("a", a, 1)
    _check_integer("b", b, 1)
    ratio = float(rng._gen.beta(a, b))
    if ratio <= 0.0:
        return math.nextafter(0.0, 1.0)
    if ratio >= 1.0:
        return math.nextafter(1.0, 0.0)
    return ratio
