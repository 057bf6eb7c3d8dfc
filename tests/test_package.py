"""The package's public surface: each name is declared once, in its module."""

import json
import os
import subprocess
import sys
from pathlib import Path

import gpas

MODULES = ("core", "errors", "ising", "numerics", "tpa")

# the 39 names the package exported when its __all__ was a hand-kept list
PUBLIC_NAMES = {
    "BudgetExceededError", "Calibration", "CalibrationError", "ConfidenceInterval",
    "DEFAULT_K_CAP", "DEFAULT_SOURCE_BUDGET", "ENUMERATION_LIMIT", "GpasError",
    "GpasResult", "HamiltonianHistogram", "IsingGibbsFamily", "IterationCapError",
    "LatticeGraph", "NestedGibbsFamily", "POISSON_MEAN_MAX", "PoissonSource",
    "RngStream", "SizeExceededError", "SyntheticPoissonSource", "TpaReport",
    "build_histogram", "calibrate", "confidence_interval", "exact_gpas",
    "failure_probability", "gamma_quantile", "gpas", "log_partition_function",
    "partition_function", "phase2_epsilon", "reg_lower_gamma",
    "relative_error_transfer", "sample_bernoulli", "sample_beta",
    "sample_hamiltonian", "sample_poisson", "tpa_run", "two_phase_from_source",
    "two_phase_scheme",
}

# run in a fresh interpreter, where no test has imported gpas.cli or
# gpas.validation, which would bind them as package attributes too
_SURFACE_PROGRAM = """
import json
import gpas
namespace = {}
exec("from gpas import *", namespace)
print(json.dumps({
    "public": sorted(n for n in vars(gpas) if not n.startswith("_")),
    "star": sorted(n for n in namespace if n != "__builtins__"),
}))
"""


def test_exports_are_the_public_names_sorted():
    assert gpas.__all__ == sorted(PUBLIC_NAMES)


def test_each_name_is_declared_by_exactly_one_module():
    for name in gpas.__all__:
        declaring = [m for m in MODULES if name in getattr(gpas, m).__all__]
        assert len(declaring) == 1, (name, declaring)
        module = getattr(gpas, declaring[0])
        obj = getattr(gpas, name)
        assert obj is getattr(module, name), name
        # a class or function is declared where it is defined
        assert getattr(obj, "__module__", module.__name__) == module.__name__, name


def test_star_import_binds_exactly_all_and_submodules_are_the_rest():
    src = str(Path(gpas.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _SURFACE_PROGRAM],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    got = json.loads(result.stdout)
    assert got["star"] == sorted(PUBLIC_NAMES)
    assert set(got["public"]) == PUBLIC_NAMES | set(MODULES)
