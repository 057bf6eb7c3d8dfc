"""Special functions and random variate generation.

Everything stochastic in this package is driven by :class:`RngStream`, a
seedable stream addressed by a ``(seed, stream_id)`` pair.  Uniforms
(:meth:`RngStream.next_uniform`) and Bernoulli draws come from the stream's
buffered uniforms, Poisson counts from its buffered counts of one mean, and
Beta draws straight from its underlying numpy generator.  The same
pair and the same sequence of calls reproduce the same draws within one numpy
version, and independent replicates run on distinct stream ids.

The deterministic side supplies exact Gamma tail probabilities and quantiles
to the calibration and confidence-interval code: the regularized lower
incomplete gamma function (a power series and a continued fraction), the
upper tail taken from the continued fraction without cancellation, and Gamma
quantiles from Boost's inverse chi-square CDF, through ``scipy.special``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

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


# ---------------------------------------------------------------------------
# Regularized incomplete gamma function and its inverse
# ---------------------------------------------------------------------------


def reg_lower_gamma(shape: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(shape, x).

    P(shape, x) = gamma(shape, x) / Gamma(shape) is the CDF at ``x`` of a
    Gamma(shape, 1) random variable; the CDF of Gamma(shape, rate) at ``t``
    is therefore ``reg_lower_gamma(shape, rate * t)``.

    Evaluated by the lower power series for ``x < shape + 1`` and via the
    continued fraction of the upper function otherwise, iterating until the
    relative term drops below 1e-15.

    Raises:
        ValueError: if ``shape <= 0`` or ``x < 0`` (or either is not finite).
    """
    _check_gamma_args(shape, x)
    if x == 0.0:
        return 0.0
    if x < shape + 1.0:
        return _lower_series(shape, x)
    return 1.0 - _upper_continued_fraction(shape, x)


def _reg_upper_gamma(shape: float, x: float) -> float:
    # Q(shape, x) = 1 - P(shape, x), from the continued fraction itself where
    # it converges, so a tiny upper tail is not lost in 1 - P
    if x < shape + 1.0:
        return 1.0 - reg_lower_gamma(shape, x)
    _check_gamma_args(shape, x)
    return _upper_continued_fraction(shape, x)


def _check_gamma_args(shape: float, x: float) -> None:
    if not (math.isfinite(shape) and shape > 0.0):
        raise ValueError(f"shape must be a positive finite real, got {shape!r}")
    if not (math.isfinite(x) and x >= 0.0):
        raise ValueError(f"x must be a nonnegative finite real, got {x!r}")


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


def gamma_quantile(shape: float, rate: float, q: float) -> float:
    """Quantile of the Gamma(shape, rate) distribution.

    Returns ``t`` with ``reg_lower_gamma(shape, rate * t) = q``.  A
    Gamma(shape, 1) variable is half a chi-square variable with ``2 * shape``
    degrees of freedom, so ``t`` is Boost's inverse chi-square CDF at ``q``
    (``scipy.special.chndtrix`` with noncentrality 0) divided by
    ``2 * rate``.  It stays within about 1e-15 relative of the exact quantile
    in both deep tails, for shapes from 2 to 1.5e6, at a few microseconds a
    call, so nothing is cached.

    Raises:
        ValueError: if ``q`` is outside (0, 1) or a parameter is nonpositive.
        ArithmeticError: if Boost finds no quantile (it returns NaN for
            shapes of about 1e12 and up).
    """
    if not (math.isfinite(shape) and shape > 0.0):
        raise ValueError(f"shape must be a positive finite real, got {shape!r}")
    if not (math.isfinite(rate) and rate > 0.0):
        raise ValueError(f"rate must be a positive finite real, got {rate!r}")
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie strictly inside (0, 1), got {q!r}")
    chi_square = float(special.chndtrix(q, 2.0 * shape, 0.0))
    if math.isnan(chi_square):
        raise ArithmeticError(f"no Gamma quantile found for shape={shape}, q={q}")
    return chi_square / (2.0 * rate)


# ---------------------------------------------------------------------------
# Random stream and variate samplers
# ---------------------------------------------------------------------------

# Refill sizes grow so short-lived streams stay cheap while long-lived ones
# amortize generator overhead.
_BUFFER_SCHEDULE = (64, 256, 1024, 4096, 16384)


class RngStream:
    """Deterministic random stream addressed by ``(seed, stream_id)``.

    Backed by the Philox counter-based generator keyed directly with the
    ``(seed, stream_id)`` pair.  Distinct keys yield statistically
    independent sequences (a documented property of that generator family),
    each with period 2^256.  :meth:`next_uniform` pops uniforms from an
    iterator over a block of ``Generator.random`` draws, and draws the next
    block (64, 256, 1024, 4096, then 16384 values) only when a call finds
    the current one spent.  :func:`sample_poisson` is served the same
    way from a second buffer that holds counts of one mean: a call with
    another mean discards the buffered counts and restarts that buffer at its
    smallest block.  Every buffered value is an independent draw, so
    what one call leaves unused is as good as a fresh draw for the next.
    The Beta sampler of this module draws from the same generator, so a
    refill and a sampler call each advance it.  The same pair and the
    same sequence of calls therefore reproduce the same draws within one
    numpy version.

    A stream is single-owner mutable state: never share one instance across
    threads.  Run concurrent replicates on distinct stream ids instead.
    """

    __slots__ = (
        "seed", "stream_id", "_gen", "_next_buffered", "_refills",
        "_next_count", "_count_refills", "_count_mu",
    )

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        for name, value in (("seed", seed), ("stream_id", stream_id)):
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if not 0 <= value < 2**64:
                raise ValueError(f"{name} must fit in 64 unsigned bits, got {value!r}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        # __next__ of an iterator over the current block of uniforms
        self._next_buffered = iter(()).__next__
        self._refills = 0
        # __next__ of an iterator over the current block of counts of _count_mu
        self._next_count = iter(()).__next__
        self._count_refills = 0
        self._count_mu = 0.0

    def next_uniform(self) -> float:
        """Next uniform variate in [0, 1)."""
        try:
            return self._next_buffered()
        except StopIteration:
            size = _BUFFER_SCHEDULE[min(self._refills, len(_BUFFER_SCHEDULE) - 1)]
            self._refills += 1
            self._next_buffered = iter(self._gen.random(size).tolist()).__next__
            return self._next_buffered()

    def _next_poisson(self, mu: float) -> int:
        # sample_poisson validates mu; numpy rejects means it cannot draw
        if mu != self._count_mu:
            # counts of another mean are useless: restart the schedule small
            self._count_mu = mu
            self._next_count = iter(()).__next__
            self._count_refills = 0
        try:
            return self._next_count()
        except StopIteration:
            step = min(self._count_refills, len(_BUFFER_SCHEDULE) - 1)
            self._count_refills += 1
            block = self._gen.poisson(mu, _BUFFER_SCHEDULE[step]).tolist()
            self._next_count = iter(block).__next__
            return self._next_count()

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def sample_bernoulli(rng: RngStream, p: float) -> bool:
    """Bernoulli(p) draw; p = 0 is always False and p = 1 always True."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    return rng.next_uniform() < p


def sample_poisson(rng: RngStream, mu: float) -> int:
    """Poisson(mu) count from the stream's buffered counts; mu = 0 returns 0.

    Counts are drawn by the stream's generator in blocks of one mean (see
    :class:`RngStream`), so a run of calls at one mean costs an iterator pop
    each.  The cost does not grow with mu; means above about 9.2e18 raise
    ValueError.
    """
    if not (math.isfinite(mu) and mu >= 0.0):
        raise ValueError(f"mu must be a nonnegative finite real, got {mu!r}")
    if mu == 0.0:
        return 0
    return rng._next_poisson(mu)


def sample_beta(rng: RngStream, a: int, b: int) -> float:
    """Beta(a, b) draw for integer parameters a, b >= 1.

    Drawn by the stream's generator and clamped to the open interval (0, 1),
    so an arrival time built from it is never exactly 0.
    """
    for name, value in (("a", a), ("b", b)):
        if not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value!r}")
    ratio = float(rng._gen.beta(a, b))
    if ratio <= 0.0:
        return math.nextafter(0.0, 1.0)
    if ratio >= 1.0:
        return math.nextafter(1.0, 0.0)
    return ratio
