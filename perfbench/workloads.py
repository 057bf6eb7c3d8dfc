"""The benchmark's workloads: set-up, one solution, and an exact oracle each.

A *solution* is one (epsilon, delta) ratio estimate from the two-phase
scheme, except on ``calibrate-ci``, where it is one ``calibrate`` call plus
one ``confidence_interval`` call.  Every solution is addressed by the
workload seed and its index, so the same seed replays the same solutions.

The oracles are independent of ``gpas.numerics``: exact enumeration of the
Ising partition function, the known mean of the synthetic source, and the
incomplete gamma functions of ``scipy.special``.

Importing this module imports ``gpas.cli`` and with it every gpas module,
which is what a command-line user pays before the first solution; the
benchmark counts that import as set-up.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import special

import gpas.cli  # noqa: F401  (set-up pays for the CLI's whole import graph)
from gpas import core, ising, tpa, validation
from gpas.numerics import RngStream

EPSILON = 0.2
DELTA = 0.01
SYNTHETIC_MU = 15.4

# A result is *wrong*, and its solution fails, when an oracle disagrees with
# it by more than this relative amount.  Smaller disagreements are imprecision:
# they are reported (oracle.max_rel_err, oracle.nonminimal_k_frac) but do not
# fail the solution.
GROSS_REL_ERR = 1e-3

# calibrate-ci draws epsilon and delta log-uniformly from these ranges, which
# reach the deep tails (k up to about 1.5e6).
CI_EPSILON_RANGE = (0.005, 0.5)
CI_DELTA_RANGE = (1e-12, 0.2)
CI_MU_HAT_RANGE = (1e-3, 1e3)

# replicate_two_phase keys its stream by its seed argument and stream id 0,
# so synthetic-r15 gives solution i the seed (seed << _SYNTHETIC_SHIFT) | i;
# with seeds below 2**32 that stays below 2**64.
_SYNTHETIC_SHIFT = 24


@dataclass
class Check:
    """Oracle verdict on one solution."""

    failed: bool = False
    reason: str = ""
    within_eps: bool | None = None  # None where the workload makes no estimate
    max_rel_err: float = 0.0
    calibrations: int = 0
    nonminimal_k: int = 0

    def fail(self, reason: str) -> None:
        self.failed = True
        self.reason = self.reason or reason


@dataclass
class Solution:
    """What one solution returned, as compared across traced and untraced runs."""

    outputs: tuple
    calls: int  # counts charged (0 on calibrate-ci)
    detail: object = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# Oracle helpers (scipy.special only)
# ---------------------------------------------------------------------------


def _oracle_failure_probability(k: int, epsilon: float) -> float:
    rate = k - 1.0
    return float(
        special.gammainc(k, rate / (1.0 + epsilon))
        + special.gammaincc(k, rate / (1.0 - epsilon))
    )


def check_calibration(check: Check, cal: core.Calibration) -> None:
    """Minimal k, exactness identity and p in [0, 1], against scipy."""
    f_k = _oracle_failure_probability(cal.k, cal.epsilon)
    f_km1 = _oracle_failure_probability(cal.k - 1, cal.epsilon)
    delta = cal.delta
    check.calibrations += 1
    if not 0.0 <= cal.p <= 1.0:
        check.fail(f"tie-break probability {cal.p} outside [0, 1]")
    if f_k > delta * (1.0 + GROSS_REL_ERR):
        check.fail(f"k={cal.k} fails with probability {f_k} > delta={delta}")
    if cal.k > 3:
        if f_km1 <= delta:
            check.nonminimal_k += 1
        if f_km1 < delta * (1.0 - GROSS_REL_ERR):
            check.fail(f"k={cal.k} is not minimal: f(k-1)={f_km1} < delta={delta}")
        identity = cal.p * f_km1 + (1.0 - cal.p) * f_k
        err = abs(identity / delta - 1.0)
        check.max_rel_err = max(check.max_rel_err, err)
        if err > GROSS_REL_ERR:
            check.fail(f"p*f(k-1) + (1-p)*f(k) = {identity} != delta={delta}")


def _interval_error(k: int, t_prime: float, tail: float, lower: float, upper: float) -> float:
    exact_lower = special.gammaincinv(k, tail) / t_prime
    exact_upper = special.gammainccinv(k, tail) / t_prime
    return max(abs(lower / exact_lower - 1.0), abs(upper / exact_upper - 1.0))


def _log_uniform(gen: np.random.Generator, bounds: tuple[float, float]) -> float:
    lo, hi = bounds
    return math.exp(gen.uniform(math.log(lo), math.log(hi)))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """One closed-loop workload: set-up once, then solutions 0, 1, 2, ..."""

    name: str

    def setup(self, seed: int) -> dict:
        """Everything a solution needs, built once per process."""
        raise NotImplementedError

    def make_input(self, state: dict, index: int) -> object:
        """Input of solution ``index``, made before its clock starts."""
        raise NotImplementedError

    def solve(self, state: dict, inp: object) -> Solution:
        """The timed call into gpas."""
        raise NotImplementedError

    def check(self, state: dict, inp: object, solution: Solution) -> Check:
        """Compare the solution with the oracle (untimed)."""
        raise NotImplementedError


def _check_ratio(check: Check, ratio: float, log_ratio: float, calls: int) -> None:
    if not (math.isfinite(ratio) and ratio > 0.0):
        check.fail(f"ratio estimate {ratio!r} is not a positive finite number")
        return
    if calls < 2:
        check.fail(f"{calls} counts charged; two phases need at least 2")
    check.within_eps = abs(ratio / math.exp(log_ratio) - 1.0) <= EPSILON


def _check_phase1(check: Check, state: dict) -> None:
    # Phase 1 calibrates the same (epsilon, delta/2) on every solution, so
    # its verdict is computed once and applied to each.
    if "phase1" not in state:
        state["phase1"] = Check()
        check_calibration(state["phase1"], core.calibrate(EPSILON, DELTA / 2.0))
    phase1 = state["phase1"]
    if phase1.failed:
        check.fail(phase1.reason)
    check.calibrations += phase1.calibrations
    check.nonminimal_k += phase1.nonminimal_k
    check.max_rel_err = max(check.max_rel_err, phase1.max_rel_err)


class IsingWorkload(Workload):
    """two_phase_scheme on a free-boundary grid, checked by enumeration."""

    def __init__(self, name: str, width: int, height: int) -> None:
        self.name = name
        self.width = width
        self.height = height

    def setup(self, seed: int) -> dict:
        graph = ising.LatticeGraph.grid(self.width, self.height)
        start = time.perf_counter()
        hist = ising.build_histogram(graph)
        build_s = time.perf_counter() - start
        family = ising.IsingGibbsFamily(hist)
        log_ratio = ising.log_partition_function(
            hist, family.beta_outer
        ) - ising.log_partition_function(hist, family.beta_inner)
        return {"seed": seed, "family": family, "log_ratio": log_ratio, "build_histogram_s": build_s}

    def make_input(self, state: dict, index: int) -> RngStream:
        return RngStream(state["seed"], index)

    def solve(self, state: dict, inp: RngStream) -> Solution:
        report = tpa.two_phase_scheme(state["family"], EPSILON, DELTA, inp)
        outputs = (report.r_hat1, report.r_hat2, report.epsilon2, report.ci.lower, report.ci.upper)
        return Solution(outputs=outputs, calls=report.total_tpa_calls, detail=report)

    def check(self, state: dict, inp: RngStream, solution: Solution) -> Check:
        report = solution.detail
        check = Check()
        _check_ratio(check, report.ratio_estimate, state["log_ratio"], solution.calls)
        if check.failed:
            return check
        _check_phase1(check, state)
        # Phase 2's calibration is deterministic given the reported
        # precision: recompute it and check it against scipy.
        cal2 = core.calibrate(report.epsilon2, DELTA / 2.0)
        check_calibration(check, cal2)
        if not report.ci.lower <= report.ratio_estimate <= report.ci.upper:
            check.fail("ratio estimate lies outside its own interval")
        # The report does not say whether the tie-break fired: take the
        # phase-2 index (k or k - 1) that explains the interval best.
        tail = 0.5 * (1.0 - (1.0 - DELTA))
        log_lower, log_upper = math.log(report.ci.lower), math.log(report.ci.upper)
        err = min(
            _interval_error(k, (k - 1) / report.r_hat2, tail, log_lower, log_upper)
            for k in (cal2.k, cal2.k - 1)
        )
        check.max_rel_err = max(check.max_rel_err, err)
        if err > GROSS_REL_ERR:
            check.fail(f"interval endpoints off by {err:.3g} relative")
        return check


class SyntheticWorkload(Workload):
    """validation.replicate_two_phase on a Poisson(mu) source: no descents."""

    name = "synthetic-r15"

    def setup(self, seed: int) -> dict:
        return {"seed": seed, "log_ratio": SYNTHETIC_MU, "build_histogram_s": 0.0}

    def make_input(self, state: dict, index: int) -> int:
        return (state["seed"] << _SYNTHETIC_SHIFT) | index

    def solve(self, state: dict, inp: int) -> Solution:
        ratios, totals = validation.replicate_two_phase(SYNTHETIC_MU, EPSILON, DELTA, 1, inp)
        return Solution(outputs=(float(ratios[0]),), calls=int(totals[0]))

    def check(self, state: dict, inp: int, solution: Solution) -> Check:
        check = Check()
        _check_ratio(check, solution.outputs[0], state["log_ratio"], solution.calls)
        if not check.failed:
            # only phase 1's calibration is visible from outside this path
            _check_phase1(check, state)
        return check


@dataclass(frozen=True)
class CiInput:
    epsilon: float
    delta: float
    mu_hat: float


class CalibrateCiWorkload(Workload):
    """calibrate + confidence_interval over log-uniform (epsilon, delta)."""

    name = "calibrate-ci"

    def setup(self, seed: int) -> dict:
        return {"seed": seed, "build_histogram_s": 0.0}

    def make_input(self, state: dict, index: int) -> CiInput:
        gen = np.random.default_rng([state["seed"], index])
        return CiInput(
            epsilon=_log_uniform(gen, CI_EPSILON_RANGE),
            delta=_log_uniform(gen, CI_DELTA_RANGE),
            mu_hat=_log_uniform(gen, CI_MU_HAT_RANGE),
        )

    def solve(self, state: dict, inp: CiInput) -> Solution:
        cal = core.calibrate(inp.epsilon, inp.delta)
        # a run that stopped at arrival k with estimate mu_hat
        t_prime = (cal.k - 1) / inp.mu_hat
        run = core.GpasResult(k=cal.k, t_prime=t_prime, mu_hat=inp.mu_hat, draws_used=math.ceil(t_prime))
        ci = core.confidence_interval(run, 1.0 - inp.delta)
        return Solution(outputs=(cal.k, cal.p, ci.lower, ci.upper), calls=0, detail=(cal, run, ci))

    def check(self, state: dict, inp: CiInput, solution: Solution) -> Check:
        cal, run, ci = solution.detail
        check = Check()
        check_calibration(check, cal)
        err = _interval_error(run.k, run.t_prime, 0.5 * (1.0 - ci.coverage), ci.lower, ci.upper)
        check.max_rel_err = max(check.max_rel_err, err)
        if not err <= GROSS_REL_ERR:
            check.fail(f"interval endpoints off by {err:.3g} relative")
        return check


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        IsingWorkload("ising-4x4", 4, 4),
        SyntheticWorkload(),
        CalibrateCiWorkload(),
        IsingWorkload("ising-24v", 6, 4),
    )
}


def misses_plausible(estimates: int, misses: int, pvalue: float = 1e-6) -> bool:
    """False when ``misses`` of ``estimates`` outside epsilon is implausible.

    Each estimate misses with probability at most delta, so the number of
    misses is stochastically below Binomial(estimates, delta).
    """
    if misses == 0:
        return True
    return float(special.bdtrc(misses - 1, estimates, DELTA)) >= pvalue
