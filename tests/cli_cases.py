"""Every CLI case, stated once, and the one check that judges a run of it.

Each case names, as ``test``, the id of the Tier-1 test in
``tests/test_cli.py`` that runs it in process, through click's
``CliRunner``.  Run as a script, this module runs the same cases through the
installed ``gpas`` script and exits 1 if any fails:

    python tests/cli_cases.py

A case gives:

- ``test``: the test id, shared by the cases one test runs in turn;
- ``args``: the command line, split on spaces; ``{tmp}`` is a fresh
  directory of the case's own;
- ``env``: variables set for the run (optional);
- ``inputs``: files written into ``{tmp}`` before the run (optional);
- ``exit``: the exit code (default 0).  Exit 3 is a runtime error, which
  must print exactly one ``error:`` line on stderr;
- ``stdout``: the name of a golden file in ``tests/data``, compared byte
  for byte, or a dict of fields of a JSON payload that must also be valid
  against the output schema.  Without it stdout must be empty;
- ``stderr``: substrings stderr must contain (optional);
- ``files``: paths under ``{tmp}``, each mapped to what it must hold, in
  the form of ``stdout``, or to None when the run must not write it.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import jsonschema

from gpas.numerics import POISSON_MEAN_MAX

DATA_DIR = Path(__file__).parent / "data"
SCHEMA = json.loads(
    resources.files("gpas").joinpath("schemas/output.schema.json").read_text()
)

_GRID_2X2 = "tpa-ising --width 2 --height 2 --epsilon 0.2 --delta 0.01"
_GRID_3X3 = "tpa-ising --width 3 --height 3 --epsilon 0.2 --delta 0.1 --seed 0"
_K24 = "".join(f"{u} {v}\n" for u in range(24) for v in range(u + 1, 24))
_MU_LIMIT = repr(POISSON_MEAN_MAX)
_MU_ABOVE_LIMIT = repr(math.nextafter(POISSON_MEAN_MAX, math.inf))
_SEEDED = {
    "estimate": "estimate --mu 2 --epsilon 0.2 --delta 0.1",
    # 100 replicates: the first size at which a check builds a stream
    "validate": "validate --replicates 100",
    "tpa-ising": "tpa-ising --width 2 --height 2 --epsilon 0.3 --delta 0.2",
    "bench": "bench --epsilon 0.3 --delta 0.2 --mu 5 --replicates 1",
}
_RUNTIME = "test_runtime_error_exits_3_with_one_error_line"
_POISSON = "test_mu_above_numpys_poisson_limit_is_a_usage_error"

CASES = [
    # calibrate
    {"test": "test_calibrate_payload_is_json", "args": "calibrate --epsilon 0.2 --delta 0.01",
     "stdout": {}},
    {"test": "test_calibrate_domain_error_names_epsilon", "args": "calibrate --epsilon 1.5 --delta 0.1",
     "exit": 2, "stderr": ["epsilon"]},
    {"test": "test_calibrate_domain_error_names_epsilon", "args": "calibrate --epsilon 1.5 --delta 0.01",
     "exit": 2},
    # the minimal k is 2561, bracketed in (2504, 2652] from the normal guess
    # 2393 and found by bisection, so the cap is checked on it
    {"test": "test_calibrate_search_cap_exits_3",
     "args": "calibrate --epsilon 0.05 --delta 1e-10 --k-cap 1000", "exit": 3},
    {"test": "test_calibrate_search_cap_exits_3",
     "args": "calibrate --epsilon 0.1 --delta 1e-6 --k-cap 2560", "exit": 3},
    {"test": "test_calibrate_search_cap_exits_3",
     "args": "calibrate --epsilon 0.1 --delta 1e-6 --k-cap 2561", "stdout": {"k": 2561}},
    # the lower gamma series gives up at the first probe, k = 66348966011
    {"test": "test_calibrate_tail_that_does_not_converge_exits_3",
     "args": "calibrate --epsilon 1e-5 --delta 0.01 --k-cap 100000000000", "exit": 3,
     "stderr": ["k=66348966011, epsilon=1e-05"]},
    # estimate
    {"test": "test_estimate_golden_fixture",
     "args": "estimate --mu 2 --epsilon 0.2 --delta 0.1 --seed 0", "stdout": "estimate_golden.json"},
    {"test": "test_estimate_golden_fixture",
     "args": "estimate --mu 2 --epsilon 0.2 --delta 0.1 --seed 0 --output {tmp}/est.json",
     "files": {"est.json": "estimate_golden.json"}},
    {"test": "test_estimate_zero_mean_exits_3",
     "args": "estimate --mu 0 --epsilon 0.2 --delta 0.1 --max-calls 1000", "exit": 3},
    {"test": "test_estimate_zero_mean_exits_3",
     "args": "estimate --mu 0 --epsilon 0.2 --delta 0.1 --max-calls 100", "exit": 3},
    {"test": "test_coverage_delta_that_rounds_to_one_is_a_usage_error",
     "args": "estimate --mu 2 --epsilon 0.2 --delta 1e-17", "exit": 2},
    # validate: the draws come from numpy's generator, so the pin holds
    # within one numpy version
    {"test": "test_validate_powered_run_passes", "args": "validate --replicates 600 --seed 0",
     "stdout": "validate_golden.json"},
    # tpa-ising; the 3x3 golden pins the replicate loop's stream ids, the
    # 4x4 one the headline workload's descents, and on the 6x4 grid beta = 1
    # is the sampler's tabulated top point, so every descent's first draw
    # takes a path the 4x4 golden does not pin
    {"test": "test_tpa_ising_golden_fixture", "args": f"{_GRID_3X3} --replicates 3",
     "stdout": "tpa_ising_golden.json"},
    {"test": "test_tpa_ising_4x4_golden_fixture",
     "args": "tpa-ising --width 4 --height 4 --epsilon 0.2 --delta 0.01 --replicates 2 --seed 0",
     "stdout": "tpa_ising_4x4_golden.json"},
    {"test": "test_tpa_ising_6x4_golden_fixture",
     "args": "tpa-ising --width 6 --height 4 --epsilon 0.2 --delta 0.01 --replicates 2 --seed 0",
     "stdout": "tpa_ising_6x4_golden.json"},
    # CSV rows end with CRLF, compared as bytes
    {"test": "test_tpa_ising_csv_golden_fixture[degenerate]",
     "args": "tpa-ising --width 1 --height 1 --epsilon 0.2 --delta 0.1 --output-format csv",
     "stdout": "tpa_ising_degenerate_golden.csv"},
    {"test": "test_tpa_ising_csv_golden_fixture[2x2]",
     "args": "tpa-ising --width 2 --height 2 --epsilon 0.3 --delta 0.1 --seed 1 --replicates 2 "
             "--output-format csv", "stdout": "tpa_ising_2x2_golden.csv"},
    # --max-tpa-calls budgets each phase: at seed 0 the 3x3 phases draw 12
    # and 1644 descents
    {"test": "test_max_tpa_calls_budgets_each_phase[1644]", "args": f"{_GRID_3X3} --max-tpa-calls 1644",
     "stdout": {"total_tpa_calls": 1656}},
    {"test": "test_max_tpa_calls_budgets_each_phase[1643]", "args": f"{_GRID_3X3} --max-tpa-calls 1643",
     "exit": 3, "stderr": ["phase 2"]},
    {"test": "test_tpa_ising_size_bound_exits_2",
     "args": "tpa-ising --width 5 --height 5 --epsilon 0.2 --delta 0.01", "exit": 2},
    {"test": "test_tpa_ising_requires_geometry", "args": "tpa-ising --epsilon 0.2 --delta 0.01",
     "exit": 2, "stderr": ["--edge-file"]},
    {"test": "test_tpa_ising_rejects_conflicting_geometry",
     "args": "tpa-ising --width 2 --height 2 --edge-file {tmp}/e.txt --epsilon 0.2 --delta 0.1",
     "inputs": {"e.txt": "0 1\n"}, "exit": 2},
    # bench
    {"test": "test_bench_golden_fixture",
     "args": "bench --epsilon 0.2 --delta 0.01 --mu 15.4 --replicates 50 --seed 0",
     "stdout": "bench_golden.json"},
    # r_hat2 lands above ln(DBL_MAX) ~ 709.78, whose exp is inf in the
    # report; bench reports call counts only, so it exits 0 with its payload
    {"test": "test_bench_survives_a_log_ratio_beyond_the_float_range",
     "args": "bench --mu 750 --epsilon 0.3 --delta 0.99 --replicates 1", "stdout": {"mu": 750.0}},
    {"test": "test_bench_rejects_zero_mu", "args": "bench --epsilon 0.2 --delta 0.2 --mu 0", "exit": 2},
    # runtime errors
    {"test": f"{_RUNTIME}[estimate-k-cap]", "args": "estimate --mu 2 --epsilon 0.0001 --delta 0.01",
     "exit": 3},
    {"test": f"{_RUNTIME}[bench-k-cap]",
     "args": "bench --mu 2 --replicates 3 --epsilon 0.0001 --delta 0.01", "exit": 3,
     "stderr": ["error: phase 1 of 2: no k <= 10000000"]},
    # (ndtri(delta / 2) / epsilon) ** 2 overflows: the search starts at the cap
    {"test": f"{_RUNTIME}[calibrate-guess-overflow]", "args": "calibrate --epsilon 1e-160 --delta 0.1",
     "exit": 3},
    {"test": f"{_RUNTIME}[estimate-guess-overflow]",
     "args": "estimate --mu 2 --epsilon 1e-160 --delta 0.1", "exit": 3},
    {"test": f"{_RUNTIME}[phase1-budget-20]", "args": f"{_GRID_2X2} --max-tpa-calls 20", "exit": 3},
    {"test": f"{_RUNTIME}[phase1-budget-60]", "args": f"{_GRID_2X2} --max-tpa-calls 60", "exit": 3},
    {"test": f"{_RUNTIME}[phase2-budget]", "args": f"{_GRID_2X2} --max-tpa-calls 200", "exit": 3},
    # K24's log-ratio, 260, needs a phase-2 k above the 1e7 cap
    {"test": f"{_RUNTIME}[phase2-k-cap]",
     "args": "tpa-ising --edge-file {tmp}/k24.txt --epsilon 0.2 --delta 0.01",
     "inputs": {"k24.txt": _K24}, "exit": 3, "stderr": ["error: phase 2 of 2: no k <= 10000000"]},
    # usage errors; at numpy's Poisson limit itself one estimate runs, and
    # bench stops on phase 2's calibration cap, a runtime error
    {"test": f"{_POISSON}[estimate-0]", "args": f"estimate --epsilon 0.2 --delta 0.1 --mu {_MU_LIMIT}",
     "stdout": {}},
    {"test": f"{_POISSON}[estimate-0]",
     "args": f"estimate --epsilon 0.2 --delta 0.1 --mu {_MU_ABOVE_LIMIT}", "exit": 2,
     "stderr": ["Poisson limit"]},
    {"test": f"{_POISSON}[bench-3]", "args": f"bench --epsilon 0.2 --delta 0.1 --mu {_MU_LIMIT}",
     "exit": 3, "stderr": ["error: phase 2 of 2: no k <= 10000000"]},
    {"test": f"{_POISSON}[bench-3]", "args": f"bench --epsilon 0.2 --delta 0.1 --mu {_MU_ABOVE_LIMIT}",
     "exit": 2, "stderr": ["Poisson limit"]},
    {"test": f"{_POISSON}[bench-3]", "args": "bench --mu 9.3e18 --epsilon 0.2 --delta 0.1", "exit": 2},
    # a stream key is two unsigned 64-bit words, so 2^64 is out of range by
    # flag and by environment alike
    *(
        {"test": f"test_seed_above_64_bits_is_a_usage_error[{command}]", "exit": 2,
         "stderr": ["--seed"], **run}
        for command, args in _SEEDED.items()
        for run in ({"args": f"{args} --seed {2**64}"}, {"args": args, "env": {"GPAS_SEED": str(2**64)}})
    ),
    {"test": "test_largest_seed_runs_and_fits_the_schema",
     "args": f"{_SEEDED['estimate']} --seed {2**64 - 1}", "stdout": {"seed": 2**64 - 1}},
    *(
        {"test": f"test_non_finite_mu_is_a_usage_error[{mu}-{command}]",
         "args": f"{command} --epsilon 0.2 --delta 0.2 --mu {mu}", "exit": 2, "stderr": ["finite"]}
        for mu in ("nan", "inf", "-inf")
        for command in ("estimate", "bench")
    ),
    *(
        {"test": f"test_nan_option_is_a_usage_error[{args.split()[0]}]", "args": args, "exit": 2}
        for args in ("calibrate --epsilon 0.2 --delta nan",
                     "estimate --mu nan --epsilon 0.2 --delta 0.1",
                     "tpa-ising --width 2 --height 2 --epsilon nan --delta 0.1",
                     "bench --mu nan --epsilon 0.2 --delta 0.1")
    ),
    # output plumbing
    {"test": "test_output_file_keeps_stdout_clean",
     "args": "calibrate --epsilon 0.2 --delta 0.05 --output {tmp}/out.json",
     "files": {"out.json": {"command": "calibrate"}}},
    {"test": "test_output_into_a_missing_directory_writes_nothing",
     "args": "calibrate --epsilon 0.2 --delta 0.1 --output {tmp}/missing/x.json", "exit": 2,
     "files": {"missing/x.json": None}},
    {"test": "test_stdout_carries_only_payload",
     "args": "tpa-ising --width 1 --height 2 --epsilon 0.3 --delta 0.2 --seed 2", "stdout": {},
     "stderr": ["running"]},
]
TEST_IDS = list(dict.fromkeys(case["test"] for case in CASES))


def named_cases(test_id):
    """The cases one test runs, each with the name a failure reports."""
    cases = [case for case in CASES if case["test"] == test_id]
    if len(cases) == 1:
        return [(test_id, cases[0])]
    return [(f"{test_id} case {i}", case) for i, case in enumerate(cases, 1)]


def prepare(case, tmp):
    """Write the case's inputs into ``tmp``; return its arguments and environment."""
    for name, text in case.get("inputs", {}).items():
        (tmp / name).write_text(text, encoding="utf-8")
    return case["args"].replace("{tmp}", str(tmp)).split(), case.get("env", {})


def _check_output(what, data, expected):
    if expected is None:
        assert data == b"", f"{what} is not empty: {data[:200]!r}"
    elif isinstance(expected, str):
        assert data == (DATA_DIR / expected).read_bytes(), f"{what} differs from {expected}"
        if expected.endswith(".json"):
            jsonschema.validate(json.loads(data), SCHEMA)
    else:
        payload = json.loads(data)
        jsonschema.validate(payload, SCHEMA)
        for field, value in expected.items():
            assert payload[field] == value, f"{what}: {field} is {payload[field]!r}, not {value!r}"


def check(name, case, exit_code, stdout, stderr, tmp):
    """Raise AssertionError, naming the case, unless a run matches it."""
    try:
        expected_exit = case.get("exit", 0)
        assert exit_code == expected_exit, f"exit {exit_code}, not {expected_exit}; stderr:\n{stderr}"
        _check_output("stdout", stdout, case.get("stdout"))
        if expected_exit == 3:
            errors = [line for line in stderr.splitlines() if line.startswith("error:")]
            assert len(errors) == stderr.count("error:") == 1, f"not one error line:\n{stderr}"
        for text in case.get("stderr", ()):
            assert text in stderr, f"stderr lacks {text!r}:\n{stderr}"
        for path, expected in case.get("files", {}).items():
            if expected is None:
                assert not (tmp / path).exists(), f"{path} was written"
            else:
                _check_output(path, (tmp / path).read_bytes(), expected)
    except (AssertionError, jsonschema.ValidationError, KeyError, ValueError, OSError) as exc:
        raise AssertionError(f"{name}: {exc}") from None


def main():
    failed = total = 0
    for test_id in TEST_IDS:
        for name, case in named_cases(test_id):
            total += 1
            with tempfile.TemporaryDirectory() as tmp:
                args, env = prepare(case, Path(tmp))
                run = subprocess.run(["gpas", *args], capture_output=True, env={**os.environ, **env})
                try:
                    check(name, case, run.returncode, run.stdout, run.stderr.decode(), Path(tmp))
                except AssertionError as exc:
                    failed += 1
                    print(f"FAILED {exc}")
    print(f"{total - failed} of {total} CLI cases passed through the installed gpas script")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
