"""Descent law, precision transfer, and the two-phase guarantee."""

import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest

from gpas import tpa
from gpas.core import PoissonSource, SyntheticPoissonSource, exact_gpas, gpas
from gpas.errors import BudgetExceededError, IterationCapError
from gpas.ising import IsingGibbsFamily, LatticeGraph, build_histogram
from gpas.numerics import RngStream, sample_poisson
from gpas.tpa import (
    NestedGibbsFamily,
    phase2_epsilon,
    relative_error_transfer,
    tpa_run,
    two_phase_from_source,
    two_phase_scheme,
)
from gpas.validation import (
    poisson_chi_square_pvalue,
    replicate,
    replicate_two_phase,
)

SEED = 303

# 2x2 grid oracle: levels (4, 2, 0) carry (2, 12, 2) of the 16 states, so
# r = ln(Z(1)/Z(0)) = ln((2 e^4 + 12 e^2 + 2) / 16)
R_2X2 = math.log((2.0 * math.exp(4.0) + 12.0 * math.exp(2.0) + 2.0) / 16.0)


@dataclass(frozen=True)
class ConstantHamiltonianFamily(NestedGibbsFamily):
    """Single-level family: H is constant, so Z(beta) = exp(beta * h) and
    the descent count is Poisson(h * (beta_outer - beta_inner))."""

    h: float
    beta_outer: float = 1.0
    beta_inner: float = 0.0

    def sample_hamiltonian(self, beta, rng):
        return self.h


class RecordingFamily(NestedGibbsFamily):
    """Wraps a family and records every beta it is sampled at."""

    def __init__(self, inner):
        self.inner = inner
        self.beta_outer = inner.beta_outer
        self.beta_inner = inner.beta_inner
        self.betas = []

    def sample_hamiltonian(self, beta, rng):
        self.betas.append(beta)
        return self.inner.sample_hamiltonian(beta, rng)


# ---------------------------------------------------------------------------
# tpa_run
# ---------------------------------------------------------------------------


def descent_counts(family, replicates, seed):
    """Independent descent counts, replicate i on stream (seed, i)."""
    return np.fromiter(
        replicate(partial(tpa_run, family), replicates, seed), dtype=np.int64
    )


def test_zero_hamiltonian_family_always_returns_zero():
    family = ConstantHamiltonianFamily(h=0.0)
    rng = RngStream(SEED)
    assert all(tpa_run(family, rng) == 0 for _ in range(200))


def test_constant_family_counts_are_poisson():
    family = ConstantHamiltonianFamily(h=2.0)
    counts = descent_counts(family, 20_000, SEED)
    assert abs(counts.mean() - 2.0) < 3.0 * counts.std(ddof=1) / math.sqrt(counts.size)
    assert poisson_chi_square_pvalue(counts, 2.0) > 0.001


def test_2x2_counts_match_enumeration_oracle():
    hist = build_histogram(LatticeGraph.grid(2, 2))
    counts = descent_counts(IsingGibbsFamily(hist), 20_000, 1)
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - R_2X2) < 3.0 * se
    assert poisson_chi_square_pvalue(counts, R_2X2) > 0.001
    dispersion = counts.var(ddof=1) / counts.mean()
    assert 0.95 <= dispersion <= 1.05


def test_4x4_counts_match_reference_log_ratio():
    hist = build_histogram(LatticeGraph.grid(4, 4))
    counts = descent_counts(IsingGibbsFamily(hist), 10_000, SEED)
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - 15.40) < 3.0 * se + 0.005


def test_beta_trajectory_strictly_decreases():
    family = RecordingFamily(IsingGibbsFamily(build_histogram(LatticeGraph.grid(3, 3))))
    rng = RngStream(SEED, 1)
    for _ in range(50):
        family.betas.clear()
        tpa_run(family, rng)
        assert all(b < a for a, b in zip(family.betas, family.betas[1:]))
        assert all(b <= family.beta_outer for b in family.betas)


def test_tpa_run_iteration_cap(monkeypatch):
    # an enormous constant Hamiltonian makes each step microscopic
    family = ConstantHamiltonianFamily(h=1e9)
    monkeypatch.setattr(tpa, "DEFAULT_STEP_CAP", 100)
    with pytest.raises(IterationCapError, match="within 100 steps"):
        tpa_run(family, RngStream(SEED))


def test_tpa_run_rejects_bad_beta_ordering():
    family = ConstantHamiltonianFamily(h=1.0, beta_outer=0.0, beta_inner=0.0)
    with pytest.raises(ValueError):
        tpa_run(family, RngStream(SEED))


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
def test_tpa_run_rejects_invalid_hamiltonian(bad):
    family = ConstantHamiltonianFamily(h=bad)
    with pytest.raises(ValueError):
        tpa_run(family, RngStream(SEED))


def test_tpa_source_counts_calls(monkeypatch):
    # every count gpas charges is one descent, over two runs on one source;
    # call_count holds each run's own charge
    descents = []

    def counted(family, rng):
        descents.append(1)
        return tpa_run(family, rng)

    monkeypatch.setattr(tpa, "tpa_run", counted)
    rng = RngStream(SEED, 2)
    source = PoissonSource(partial(tpa.tpa_run, ConstantHamiltonianFamily(h=2.0), rng))
    first = gpas(source, 30, rng)
    assert source.call_count == first.draws_used == len(descents)
    second = gpas(source, 30, rng)
    assert source.call_count == second.draws_used
    assert first.draws_used + second.draws_used == len(descents)


def test_two_phase_scheme_runs_one_descent_per_charged_count(monkeypatch):
    # over both phases on the 2x2 grid, the descents equal the calls charged,
    # and counting them changes nothing
    family = IsingGibbsFamily(build_histogram(LatticeGraph.grid(2, 2)))

    def run():
        return two_phase_scheme(family, 0.2, 0.1, RngStream(SEED, 8))

    expected = run()
    descents = []

    def counted(family, rng):
        descents.append(1)
        return tpa_run(family, rng)

    monkeypatch.setattr(tpa, "tpa_run", counted)
    report = run()
    assert report == expected
    assert len(descents) == report.total_tpa_calls > 0


def test_two_phase_scheme_draws_h_once_per_step_of_each_descent(monkeypatch):
    # on the 3x3 grid at three seeds: the descents of both phases equal
    # total_tpa_calls, and a descent that counts c steps draws H c + 1 times,
    # the last draw being the step that ends it
    family = RecordingFamily(IsingGibbsFamily(build_histogram(LatticeGraph.grid(3, 3))))
    descents = []

    def counted(family, rng):
        before = len(family.betas)
        count = tpa_run(family, rng)
        descents.append((count, len(family.betas) - before))
        return count

    monkeypatch.setattr(tpa, "tpa_run", counted)
    for seed in range(3):
        descents.clear()
        report = two_phase_scheme(family, 0.2, 0.1, RngStream(seed))
        assert len(descents) == report.total_tpa_calls > 0
        assert all(draws == count + 1 for count, draws in descents)


def test_replicate_two_phase_draws_one_poisson_count_per_reported_call(monkeypatch):
    # every call a synthetic replicate reports is one call of core's
    # sample_poisson, and counting them changes nothing
    import gpas.core as core_module

    def run():
        return replicate_two_phase(15.4, 0.2, 0.01, 20, SEED)

    expected = run()
    calls = []

    def counted(rng, mu):
        calls.append(mu)
        return sample_poisson(rng, mu)

    monkeypatch.setattr(core_module, "sample_poisson", counted)
    ratios, totals = run()
    assert np.array_equal(ratios, expected[0])
    assert np.array_equal(totals, expected[1])
    assert len(calls) == totals.sum() > 0


# ---------------------------------------------------------------------------
# precision transfer
# ---------------------------------------------------------------------------


def test_transfer_values():
    # transfer(eps, ln(1 + eps)) = 1 is the in-domain form of the identity
    # ln(e) = 1; epsilon itself is constrained to (0, 1)
    for epsilon in (0.25, 0.5, 0.9):
        assert relative_error_transfer(epsilon, math.log1p(epsilon)) == pytest.approx(
            1.0, rel=1e-15
        )
    assert relative_error_transfer(0.2, 15.40) == pytest.approx(
        math.log(1.2) / 15.40, rel=1e-15
    )
    assert relative_error_transfer(0.2, 15.40) == pytest.approx(0.0118391, abs=1e-7)


def test_transfer_monotone_in_r():
    values = [relative_error_transfer(0.2, r) for r in (0.5, 1.0, 5.0, 15.4, 100.0)]
    assert all(b < a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("epsilon,r", [(0.0, 1.0), (1.0, 1.0), (0.2, 0.0), (0.2, -1.0)])
def test_transfer_domain_errors(epsilon, r):
    with pytest.raises(ValueError):
        relative_error_transfer(epsilon, r)


def test_phase2_epsilon_formula():
    assert phase2_epsilon(0.2, 15.0) == pytest.approx(
        math.log(1.2) * 0.8 / 15.0, rel=1e-15
    )
    assert phase2_epsilon(0.2, 15.0) == pytest.approx(0.0097238, abs=1e-7)


def test_phase2_epsilon_clamps_below_one():
    assert phase2_epsilon(0.2, 1e-12) == 1.0 - 1e-9


# ---------------------------------------------------------------------------
# two-phase scheme
# ---------------------------------------------------------------------------


def test_two_phase_report_invariants(monkeypatch):
    # both phases draw from the one source, each charging its own run, and
    # the total is the sum of the phases' draws
    rng = RngStream(SEED, 3)
    source = SyntheticPoissonSource(4.0, rng)
    phases = []

    def recorded(phase_source, *args):
        result = exact_gpas(phase_source, *args)
        phases.append((phase_source, result.draws_used, phase_source.call_count))
        return result

    monkeypatch.setattr(tpa, "exact_gpas", recorded)
    report = two_phase_from_source(source, 0.2, 0.1, rng)
    assert [phase[0] for phase in phases] == [source, source]
    assert all(used == charged for _, used, charged in phases)
    assert report.total_tpa_calls == phases[0][1] + phases[1][1]
    assert report.ratio_estimate == math.exp(report.r_hat2)
    assert report.epsilon2 == phase2_epsilon(0.2, report.r_hat1)
    assert report.ci.coverage == pytest.approx(0.9)
    assert report.ci.lower < report.ratio_estimate < report.ci.upper


def test_two_phase_report_overflows_to_inf():
    # exp of an r_hat2 above ln(DBL_MAX) ~ 709.78 is inf, the IEEE result,
    # not an OverflowError; the log-scale fields stay finite
    rng = RngStream(SEED, 6)
    report = two_phase_from_source(SyntheticPoissonSource(750.0, rng), 0.3, 0.99, rng)
    assert report.r_hat2 > math.log(sys.float_info.max)
    assert report.ratio_estimate == math.inf
    assert report.ci.upper == math.inf
    assert report.total_tpa_calls > 0


@pytest.mark.parametrize("delta", [1e-17, 2.0**-54])
def test_two_phase_rejects_a_delta_whose_coverage_rounds_to_one(delta):
    # 1 - delta is 1.0 at and below 2^-54: rejected before any count is drawn
    drawn = []

    def draw():
        drawn.append(1)
        return 1

    with pytest.raises(ValueError, match="delta must exceed 2\\*\\*-54"):
        two_phase_from_source(PoissonSource(draw), 0.2, delta, RngStream(SEED, 7))
    assert drawn == []


def test_two_phase_phase1_budget_error():
    # a zero mean spends phase 1's budget: a plain budget error, not a
    # verdict that the ratio is 1, and phase 2 never draws
    drawn = []

    def draw():
        drawn.append(0)
        return 0

    with pytest.raises(BudgetExceededError) as raised:
        two_phase_from_source(PoissonSource(draw, max_calls=100), 0.2, 0.1, RngStream(SEED, 4))
    assert str(raised.value) == "phase 1 of 2 exhausted its budget of 100 draws"
    assert len(drawn) == 100


def test_two_phase_phase2_budget_propagates():
    # a budget big enough for phase 1 but not phase 2 surfaces as a budget
    # error that names phase 2 and the counts phase 1 drew, which a twin
    # stream running phase 1 alone gives
    twin = RngStream(SEED, 5)
    first = exact_gpas(SyntheticPoissonSource(10.0, twin, max_calls=30), 0.2, 0.05, twin)
    rng = RngStream(SEED, 5)
    source = SyntheticPoissonSource(10.0, rng, max_calls=30)
    with pytest.raises(BudgetExceededError) as raised:
        two_phase_from_source(source, 0.2, 0.1, rng)
    assert str(raised.value) == (
        f"phase 2 of 2 exhausted its budget of 30 draws (phase 1 drew {first.draws_used})"
    )
    assert source.call_count == 30


@pytest.mark.slow
def test_two_phase_guarantee_on_synthetic_source():
    # failure frequency of the end-to-end ratio estimate stays at or below
    # delta (the guarantee is one-sided)
    mu, epsilon, delta, n = 15.40, 0.2, 0.1, 2000
    ratios, totals = replicate_two_phase(mu, epsilon, delta, n, SEED)
    failures = np.abs(ratios / math.exp(mu) - 1.0) > epsilon
    limit = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / n)
    assert failures.mean() <= limit
    assert totals.min() > 0


@pytest.mark.slow
def test_two_phase_ci_coverage_is_exact():
    # phase 2's interval for r is exact given its k, so its image under exp
    # covers exp(r) with probability exactly 1 - delta: two-sided at 3 sigma
    mu, epsilon, delta, n = 4.0, 0.2, 0.1, 4000
    ratio = math.exp(mu)

    def covers(rng):
        ci = two_phase_from_source(SyntheticPoissonSource(mu, rng), epsilon, delta, rng).ci
        assert ci.coverage == pytest.approx(1.0 - delta)
        return ci.lower <= ratio <= ci.upper

    hits = np.fromiter(replicate(covers, n, SEED), dtype=bool, count=n)
    sigma = math.sqrt(delta * (1.0 - delta) / n)
    assert abs(hits.mean() - (1.0 - delta)) <= 3.0 * sigma, hits.mean()
