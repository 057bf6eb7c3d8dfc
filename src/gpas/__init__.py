"""Exact-error Poisson-mean estimation and normalizing-constant ratios.

The package turns a stream of iid Poisson counts into an estimate whose
relative-error distribution is known exactly and free of the unknown mean
(:mod:`gpas.core`), supplies the special functions and seeded samplers that
power it (:mod:`gpas.numerics`), adapts nested Gibbs families into Poisson
count sources for ratio estimation (:mod:`gpas.tpa`), validates the whole
stack against an exactly enumerable Ising model (:mod:`gpas.ising`), and
exposes everything through a reproducible CLI (:mod:`gpas.cli`).
"""

from .core import (
    Calibration,
    ConfidenceInterval,
    DEFAULT_SOURCE_BUDGET,
    GpasResult,
    PoissonSource,
    SyntheticPoissonSource,
    calibrate,
    confidence_interval,
    exact_gpas,
    failure_probability,
    gpas,
)
from .errors import (
    BudgetExceededError,
    CalibrationError,
    GpasError,
    IterationCapError,
    SizeExceededError,
)
from .ising import (
    ENUMERATION_LIMIT,
    HamiltonianHistogram,
    IsingGibbsFamily,
    LatticeGraph,
    build_histogram,
    log_partition_function,
    partition_function,
    sample_hamiltonian,
)
from .numerics import (
    RngStream,
    gamma_quantile,
    reg_lower_gamma,
    sample_beta,
    sample_bernoulli,
    sample_poisson,
)
from .tpa import (
    NestedGibbsFamily,
    TpaPoissonSource,
    TpaReport,
    phase2_epsilon,
    relative_error_transfer,
    tpa_run,
    two_phase_from_source,
    two_phase_scheme,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "Calibration",
    "CalibrationError",
    "ConfidenceInterval",
    "DEFAULT_SOURCE_BUDGET",
    "ENUMERATION_LIMIT",
    "GpasError",
    "GpasResult",
    "HamiltonianHistogram",
    "IsingGibbsFamily",
    "IterationCapError",
    "LatticeGraph",
    "NestedGibbsFamily",
    "PoissonSource",
    "RngStream",
    "SizeExceededError",
    "SyntheticPoissonSource",
    "TpaPoissonSource",
    "TpaReport",
    "build_histogram",
    "calibrate",
    "confidence_interval",
    "exact_gpas",
    "failure_probability",
    "gamma_quantile",
    "gpas",
    "log_partition_function",
    "partition_function",
    "phase2_epsilon",
    "reg_lower_gamma",
    "relative_error_transfer",
    "sample_beta",
    "sample_bernoulli",
    "sample_hamiltonian",
    "sample_poisson",
    "tpa_run",
    "two_phase_from_source",
    "two_phase_scheme",
]
