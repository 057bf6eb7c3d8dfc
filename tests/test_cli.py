"""CLI contracts: payload shapes, schema validity, exit codes, determinism."""

import csv
import io
import json
import math
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner

from gpas.cli import main
from gpas.core import failure_probability
from gpas.errors import (
    _check_coverage_delta,
    _check_poisson_mean,
    _check_positive_finite,
    _check_unit_interval,
)
from gpas.numerics import POISSON_MEAN_MAX

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def schema():
    text = resources.files("gpas").joinpath("schemas/output.schema.json").read_text()
    return json.loads(text)


@pytest.fixture()
def runner():
    return CliRunner()


def invoke_json(runner, schema, args, env=None):
    result = runner.invoke(main, args, env=env, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    jsonschema.validate(payload, schema)
    return payload


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def test_calibrate_reference_index(runner, schema):
    payload = invoke_json(
        runner, schema, ["calibrate", "--epsilon", "0.1", "--delta", "1e-6"]
    )
    assert payload["k"] == 2561
    assert payload["f_k"] <= 1e-6 < payload["f_km1"]


def test_calibrate_domain_error_names_epsilon(runner):
    result = runner.invoke(main, ["calibrate", "--epsilon", "1.5", "--delta", "0.1"])
    assert result.exit_code == 2
    assert "epsilon" in result.output


def test_calibrate_matches_independent_scan(runner, schema):
    payload = invoke_json(
        runner, schema, ["calibrate", "--epsilon", "0.2", "--delta", "0.005"]
    )
    k = payload["k"]
    # brute-force scan around the reported index
    assert failure_probability(k, 0.2) <= 0.005
    assert all(
        failure_probability(i, 0.2) > 0.005 for i in range(max(3, k - 20), k)
    )


def test_calibrate_search_cap_exits_3(runner):
    result = runner.invoke(
        main,
        ["calibrate", "--epsilon", "0.05", "--delta", "1e-10", "--k-cap", "1000"],
    )
    assert result.exit_code == 3
    # the minimal k is 2561, bracketed in (2504, 2652] from the normal
    # guess 2393 and found by bisection, so the cap is checked on it
    args = ["calibrate", "--epsilon", "0.1", "--delta", "1e-6", "--k-cap"]
    assert runner.invoke(main, args + ["2560"]).exit_code == 3
    result = runner.invoke(main, args + ["2561"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["k"] == 2561


def test_calibrate_tail_that_does_not_converge_exits_3(runner):
    # the lower gamma series gives up at the first probe, k = 66348966011:
    # a calibration error like a cap hit, one line and nothing on stdout
    result = runner.invoke(
        main, ["calibrate", "--epsilon", "1e-5", "--delta", "0.01", "--k-cap", "100000000000"]
    )
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr.count("error:") == 1
    assert "k=66348966011, epsilon=1e-05" in result.stderr


def test_calibrate_accepts_a_delta_whose_coverage_rounds_to_one(runner, schema):
    # calibrate reports no interval, so 1 - delta rounding to 1.0 is no matter
    payload = invoke_json(runner, schema, ["calibrate", "--epsilon", "0.2", "--delta", "1e-17"])
    assert payload["f_k"] <= 1e-17 < payload["f_km1"]


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def test_estimate_golden_fixture(runner, schema):
    result = runner.invoke(
        main,
        ["estimate", "--mu", "2", "--epsilon", "0.2", "--delta", "0.1", "--seed", "0"],
    )
    assert result.exit_code == 0
    golden = (DATA_DIR / "estimate_golden.json").read_text()
    assert result.stdout == golden
    jsonschema.validate(json.loads(result.stdout), schema)


def test_estimate_byte_identical_reruns(runner):
    args = ["estimate", "--mu", "3.5", "--epsilon", "0.25", "--delta", "0.05",
            "--seed", "42"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.stdout == second.stdout


def test_estimate_zero_mean_exits_3(runner):
    result = runner.invoke(
        main,
        ["estimate", "--mu", "0", "--epsilon", "0.2", "--delta", "0.1",
         "--max-calls", "1000"],
    )
    assert result.exit_code == 3


def test_estimate_seed_env_override(runner):
    flagged = runner.invoke(
        main,
        ["estimate", "--mu", "2", "--epsilon", "0.2", "--delta", "0.1",
         "--seed", "7"],
    )
    via_env = runner.invoke(
        main,
        ["estimate", "--mu", "2", "--epsilon", "0.2", "--delta", "0.1"],
        env={"GPAS_SEED": "7"},
    )
    assert via_env.stdout == flagged.stdout


def test_estimate_ci_coverage_is_one_minus_delta(runner, schema):
    payload = invoke_json(
        runner, schema,
        ["estimate", "--mu", "2", "--epsilon", "0.2", "--delta", "0.1"],
    )
    assert payload["ci"]["coverage"] == pytest.approx(0.9)
    assert payload["ci"]["lower"] < payload["mu_hat"] < payload["ci"]["upper"]


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_underpowered_run_warns_and_exits_zero(runner, schema):
    result = runner.invoke(main, ["validate", "--replicates", "10"])
    assert result.exit_code == 0
    assert "insufficient replicates" in result.stderr
    payload = json.loads(result.stdout)
    jsonschema.validate(payload, schema)
    assert payload["all_pass"]
    assert any(prop["skipped"] for prop in payload["properties"])


def test_validate_powered_run_passes(runner, schema):
    payload = invoke_json(
        runner, schema, ["validate", "--replicates", "600", "--seed", "0"]
    )
    assert payload["all_pass"]
    assert all(not prop["skipped"] for prop in payload["properties"])
    # every property's statistic, threshold and detail, bit for bit; the
    # draws come from numpy's generator, so the pin holds within one version
    golden = json.loads((DATA_DIR / "validate_golden.json").read_text())
    fields = ("name", "statistic", "threshold", "detail")
    assert [[prop[f] for f in fields] for prop in payload["properties"]] == [
        [prop[f] for f in fields] for prop in golden["properties"]
    ]


def test_validate_csv_one_row_per_property(runner):
    result = runner.invoke(
        main, ["validate", "--replicates", "10", "--output-format", "csv"]
    )
    assert result.exit_code == 0
    assert result.stdout.splitlines()[0] == "name,passed,skipped,statistic,threshold,detail"
    rows = list(csv.DictReader(io.StringIO(result.stdout)))
    assert len(rows) >= 8


def test_validate_failing_property_exits_1(runner, monkeypatch):
    import gpas.cli as cli_module
    from gpas.validation import PropertyResult

    failing = PropertyResult(
        name="forced_failure", passed=False, skipped=False,
        statistic=1.0, threshold=0.0, detail="forced for the exit-code contract",
    )
    monkeypatch.setattr(cli_module, "run_all", lambda replicates, seed: [failing])
    result = runner.invoke(main, ["validate", "--replicates", "10"])
    assert result.exit_code == 1
    payload = json.loads(result.stdout)
    assert not payload["all_pass"]


# ---------------------------------------------------------------------------
# tpa-ising
# ---------------------------------------------------------------------------


def test_tpa_ising_2x2_run(runner, schema):
    payload = invoke_json(
        runner, schema,
        ["tpa-ising", "--width", "2", "--height", "2", "--epsilon", "0.2",
         "--delta", "0.1", "--seed", "3"],
    )
    oracle = payload["oracle"]
    assert oracle["z_inner"] == 16.0
    assert oracle["log_ratio"] == pytest.approx(2.5250532825701297, rel=1e-12)
    assert not payload["degenerate"]
    assert payload["z_outer_estimate"] == pytest.approx(
        payload["ratio_estimate"] * 16.0, rel=1e-12
    )
    assert payload["total_tpa_calls"] > 0


def test_tpa_ising_degenerate_single_vertex(runner, schema):
    payload = invoke_json(
        runner, schema,
        ["tpa-ising", "--width", "1", "--height", "1", "--epsilon", "0.2",
         "--delta", "0.1", "--max-tpa-calls", "2000"],
    )
    assert payload["degenerate"]
    assert payload["ratio_estimate"] == 1.0
    assert payload["ci"]["lower"] == payload["ci"]["upper"] == 1.0
    assert payload["oracle"]["log_ratio"] == 0.0
    assert payload["total_tpa_calls"] == 0
    assert "no edges" in payload["diagnostic"]


def test_tpa_ising_edgeless_graph_runs_no_descent(runner, schema, monkeypatch):
    import gpas.cli as cli_module

    def no_descent(*args, **kwargs):
        raise AssertionError("an edgeless graph ran the two-phase scheme")

    monkeypatch.setattr(cli_module, "two_phase_scheme", no_descent)
    payload = invoke_json(
        runner, schema,
        ["tpa-ising", "--width", "1", "--height", "1", "--epsilon", "0.2",
         "--delta", "0.01", "--replicates", "3"],
    )
    assert payload["degenerate"]
    assert payload["z_outer_estimate"] == payload["oracle"]["z_inner"]
    assert [run["total_tpa_calls"] for run in payload["runs"]] == [0, 0, 0]
    assert payload["aggregate"]["mean_total_tpa_calls"] == 0.0
    assert payload["aggregate"]["within_epsilon_of_oracle"] == 3


def test_schema_ties_total_calls_to_degeneracy(runner, schema):
    payload = invoke_json(
        runner, schema,
        ["tpa-ising", "--width", "2", "--height", "2", "--epsilon", "0.3",
         "--delta", "0.1", "--seed", "1", "--replicates", "2"],
    )
    # a run that is not degenerate consumed at least one descent
    for broken in (
        {**payload, "total_tpa_calls": 0},
        {**payload, "runs": [{**payload["runs"][0], "total_tpa_calls": 0}]},
    ):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(broken, schema)
    # and a degenerate one consumed none
    degenerate = invoke_json(
        runner, schema,
        ["tpa-ising", "--width", "1", "--height", "1", "--epsilon", "0.3",
         "--delta", "0.1"],
    )
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({**degenerate, "total_tpa_calls": 1}, schema)


def test_tpa_ising_golden_fixture(runner, schema):
    # pins the replicate loop's stream ids: replicate i draws from (seed, i)
    result = runner.invoke(
        main,
        ["tpa-ising", "--width", "3", "--height", "3", "--epsilon", "0.2",
         "--delta", "0.1", "--replicates", "3", "--seed", "0"],
    )
    assert result.exit_code == 0
    assert result.stdout == (DATA_DIR / "tpa_ising_golden.json").read_text()
    jsonschema.validate(json.loads(result.stdout), schema)


def test_tpa_ising_4x4_golden_fixture(runner, schema):
    # pins the headline 4x4 workload's descents bit for bit: every uniform
    # a descent draws, every count and every estimate
    result = runner.invoke(
        main,
        ["tpa-ising", "--width", "4", "--height", "4", "--epsilon", "0.2",
         "--delta", "0.01", "--replicates", "2", "--seed", "0"],
    )
    assert result.exit_code == 0
    assert result.stdout == (DATA_DIR / "tpa_ising_4x4_golden.json").read_text()
    jsonschema.validate(json.loads(result.stdout), schema)


def test_tpa_ising_6x4_golden_fixture(runner, schema):
    # the ising-24v grid: beta = 1 is the sampler's tabulated top point, so
    # every descent's first draw takes a path the 4x4 golden does not pin
    result = runner.invoke(
        main,
        ["tpa-ising", "--width", "6", "--height", "4", "--epsilon", "0.2",
         "--delta", "0.01", "--replicates", "2", "--seed", "0"],
    )
    assert result.exit_code == 0
    assert result.stdout == (DATA_DIR / "tpa_ising_6x4_golden.json").read_text()
    jsonschema.validate(json.loads(result.stdout), schema)


def test_tpa_ising_size_bound_exits_2(runner):
    result = runner.invoke(
        main,
        ["tpa-ising", "--width", "5", "--height", "5", "--epsilon", "0.2",
         "--delta", "0.01"],
    )
    assert result.exit_code == 2


def test_tpa_ising_requires_geometry(runner):
    result = runner.invoke(main, ["tpa-ising", "--epsilon", "0.2", "--delta", "0.01"])
    assert result.exit_code == 2
    assert "--edge-file" in result.output


def test_tpa_ising_edge_file_matches_grid(runner, schema, tmp_path):
    edge_file = tmp_path / "grid22.txt"
    edge_file.write_text("0 1\n2 3\n0 2\n1 3\n", encoding="utf-8")
    from_grid = invoke_json(
        runner, schema,
        ["tpa-ising", "--width", "2", "--height", "2", "--epsilon", "0.2",
         "--delta", "0.1", "--seed", "5"],
    )
    from_file = invoke_json(
        runner, schema,
        ["tpa-ising", "--edge-file", str(edge_file), "--epsilon", "0.2",
         "--delta", "0.1", "--seed", "5"],
    )
    # identical topology and seed: identical estimates
    assert from_file["ratio_estimate"] == from_grid["ratio_estimate"]
    assert from_file["total_tpa_calls"] == from_grid["total_tpa_calls"]
    assert from_file["width"] is None and from_grid["width"] == 2


def test_tpa_ising_rejects_conflicting_geometry(runner, tmp_path):
    edge_file = tmp_path / "e.txt"
    edge_file.write_text("0 1\n", encoding="utf-8")
    result = runner.invoke(
        main,
        ["tpa-ising", "--width", "2", "--height", "2", "--edge-file",
         str(edge_file), "--epsilon", "0.2", "--delta", "0.1"],
    )
    assert result.exit_code == 2


def test_tpa_ising_replicates_aggregate(runner, schema):
    payload = invoke_json(
        runner, schema,
        ["tpa-ising", "--width", "2", "--height", "2", "--epsilon", "0.3",
         "--delta", "0.1", "--seed", "1", "--replicates", "3"],
    )
    assert payload["aggregate"]["replicates"] == 3
    assert len(payload["runs"]) == 3
    assert payload["ratio_estimate"] == payload["runs"][0]["ratio_estimate"]
    totals = [run["total_tpa_calls"] for run in payload["runs"]]
    assert payload["aggregate"]["mean_total_tpa_calls"] == pytest.approx(
        sum(totals) / 3.0
    )


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_single_replicate_has_no_stddev(runner, schema):
    payload = invoke_json(
        runner, schema,
        ["bench", "--epsilon", "0.3", "--delta", "0.2", "--mu", "5",
         "--replicates", "1"],
    )
    assert payload["stddev_total_calls"] is None
    assert "not applicable" in payload["stddev_note"]
    assert payload["mean_total_calls"] > 0


def test_bench_records_its_inputs(runner, schema):
    payload = invoke_json(
        runner, schema,
        ["bench", "--epsilon", "0.2", "--delta", "0.2", "--mu", "5",
         "--replicates", "5", "--seed", "9"],
    )
    assert payload["mu"] == 5.0
    assert payload["replicates"] == 5
    assert payload["stddev_total_calls"] >= 0.0


def test_bench_csv_row(runner):
    result = runner.invoke(
        main,
        ["bench", "--epsilon", "0.3", "--delta", "0.2", "--mu", "5",
         "--replicates", "2", "--output-format", "csv"],
    )
    assert result.exit_code == 0
    # the command, its inputs in declared order, then its results
    assert result.stdout.splitlines()[0] == (
        "command,epsilon,delta,mu,replicates,seed,"
        "mean_total_calls,stddev_total_calls,stddev_note"
    )
    rows = list(csv.DictReader(io.StringIO(result.stdout)))
    assert len(rows) == 1
    assert float(rows[0]["mean_total_calls"]) > 0
    assert rows[0]["command"] == "bench"


def test_bench_golden_fixture(runner, schema):
    result = runner.invoke(
        main,
        ["bench", "--epsilon", "0.2", "--delta", "0.01", "--mu", "15.4",
         "--replicates", "50", "--seed", "0"],
    )
    assert result.exit_code == 0
    assert result.stdout == (DATA_DIR / "bench_golden.json").read_text()
    jsonschema.validate(json.loads(result.stdout), schema)


def test_bench_survives_a_log_ratio_beyond_the_float_range(runner, schema):
    # r_hat2 lands above ln(DBL_MAX) ~ 709.78, whose exp is inf in the
    # report; bench reports call counts only, so it exits 0 with its payload
    payload = invoke_json(
        runner, schema,
        ["bench", "--mu", "750", "--epsilon", "0.3", "--delta", "0.99", "--replicates", "1"],
    )
    assert payload["mu"] == 750.0
    assert payload["mean_total_calls"] > 0


def test_bench_rejects_zero_mu(runner):
    result = runner.invoke(
        main, ["bench", "--epsilon", "0.2", "--delta", "0.2", "--mu", "0"]
    )
    assert result.exit_code == 2


_TIGHT = ["--epsilon", "0.0001", "--delta", "0.01"]
_GRID_2X2 = ["tpa-ising", "--width", "2", "--height", "2", "--epsilon", "0.2",
             "--delta", "0.01"]


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["estimate", "--mu", "2", *_TIGHT], id="estimate-k-cap"),
        pytest.param(["bench", "--mu", "2", "--replicates", "3", *_TIGHT],
                     id="bench-k-cap"),
        # (ndtri(delta / 2) / epsilon) ** 2 overflows: the search starts at the cap
        pytest.param(["calibrate", "--epsilon", "1e-160", "--delta", "0.1"],
                     id="calibrate-guess-overflow"),
        pytest.param(["estimate", "--mu", "2", "--epsilon", "1e-160", "--delta", "0.1"],
                     id="estimate-guess-overflow"),
        pytest.param([*_GRID_2X2, "--max-tpa-calls", "20"], id="phase1-budget-20"),
        pytest.param([*_GRID_2X2, "--max-tpa-calls", "60"], id="phase1-budget-60"),
        pytest.param([*_GRID_2X2, "--max-tpa-calls", "200"], id="phase2-budget"),
        # K24's log-ratio, 260, needs a phase-2 k above the 1e7 cap
        pytest.param(["tpa-ising", "--edge-file", "K24", "--epsilon", "0.2",
                      "--delta", "0.01"], id="phase2-k-cap"),
    ],
)
def test_runtime_error_exits_3_with_one_error_line(runner, tmp_path, args):
    k24 = tmp_path / "k24.txt"
    k24.write_text(
        "".join(f"{u} {v}\n" for u in range(24) for v in range(u + 1, 24)),
        encoding="utf-8",
    )
    args = [str(k24) if arg == "K24" else arg for arg in args]
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1


@pytest.mark.parametrize("command, at_limit_exit", [("estimate", 0), ("bench", 3)])
def test_mu_above_numpys_poisson_limit_is_a_usage_error(runner, command, at_limit_exit):
    # the limit itself passes the option check: one estimate runs on it, and
    # bench stops on phase 2's calibration cap, a runtime error
    args = [command, "--epsilon", "0.2", "--delta", "0.1", "--mu"]
    at_limit = runner.invoke(main, [*args, repr(POISSON_MEAN_MAX)])
    assert at_limit.exit_code == at_limit_exit, at_limit.output
    above = runner.invoke(main, [*args, repr(math.nextafter(POISSON_MEAN_MAX, math.inf))])
    assert above.exit_code == 2, above.output
    assert above.stdout == ""
    assert "Poisson limit" in above.stderr


_SEEDED = {
    "estimate": ["estimate", "--mu", "2", "--epsilon", "0.2", "--delta", "0.1"],
    # 100 replicates: the first size at which a check builds a stream
    "validate": ["validate", "--replicates", "100"],
    "tpa-ising": ["tpa-ising", "--width", "2", "--height", "2", "--epsilon", "0.3",
                  "--delta", "0.2"],
    "bench": ["bench", "--epsilon", "0.3", "--delta", "0.2", "--mu", "5",
              "--replicates", "1"],
}


@pytest.mark.parametrize("command", list(_SEEDED))
def test_seed_above_64_bits_is_a_usage_error(runner, command):
    # a stream key is two unsigned 64-bit words, so 2^64 is out of range by
    # flag and by environment alike
    too_big = str(2**64)
    for args, env in (
        ([*_SEEDED[command], "--seed", too_big], None),
        (_SEEDED[command], {"GPAS_SEED": too_big}),
    ):
        result = runner.invoke(main, args, env=env)
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert "--seed" in result.stderr


def test_largest_seed_runs_and_fits_the_schema(runner, schema):
    payload = invoke_json(
        runner, schema, [*_SEEDED["estimate"], "--seed", str(2**64 - 1)]
    )
    assert payload["seed"] == 2**64 - 1


@pytest.mark.parametrize("command", ["estimate", "bench"])
@pytest.mark.parametrize("mu", ["nan", "inf", "-inf"])
def test_non_finite_mu_is_a_usage_error(runner, command, mu):
    result = runner.invoke(
        main, [command, "--epsilon", "0.2", "--delta", "0.2", "--mu", mu]
    )
    assert result.exit_code == 2
    assert "finite" in result.output


_ABOVE_POISSON_LIMIT = repr(math.nextafter(POISSON_MEAN_MAX, math.inf))
# option id: (the other arguments, the option, the library rules it applies)
_FLOAT_OPTIONS = {
    "epsilon": (["calibrate", "--delta", "0.1"], "epsilon", [_check_unit_interval]),
    "delta": (["calibrate", "--epsilon", "0.2"], "delta", [_check_unit_interval]),
    "estimate-mu": (
        ["estimate", "--epsilon", "0.2", "--delta", "0.1"], "mu", [_check_poisson_mean],
    ),
    "bench-mu": (
        ["bench", "--epsilon", "0.2", "--delta", "0.1"], "mu",
        [_check_positive_finite, _check_poisson_mean],
    ),
    # the commands that report an interval at coverage 1 - delta
    "estimate-delta": (
        ["estimate", "--mu", "2", "--epsilon", "0.2"], "delta", [_check_coverage_delta],
    ),
    "tpa-ising-delta": (
        ["tpa-ising", "--width", "2", "--height", "2", "--epsilon", "0.2"], "delta",
        [_check_coverage_delta],
    ),
    "bench-delta": (
        ["bench", "--mu", "2", "--epsilon", "0.2"], "delta", [_check_coverage_delta],
    ),
}


@pytest.mark.parametrize(
    "option, value",
    [
        *((option, value) for option in ("epsilon", "delta")
          for value in ("0", "1", "nan", "inf", "-1")),
        *(("estimate-mu", value) for value in ("nan", "inf", "-1", _ABOVE_POISSON_LIMIT)),
        *(("bench-mu", value) for value in ("0", "nan", "inf", "-1", _ABOVE_POISSON_LIMIT)),
        *((option, value) for option in ("estimate-delta", "tpa-ising-delta", "bench-delta")
          for value in ("1e-17", repr(2.0**-54), "0", "nan")),
    ],
)
def test_float_options_reject_with_the_library_rule(runner, option, value):
    # the CLI states no range of its own: its usage error carries the
    # message of the rule the library applies to the same value
    args, name, rules = _FLOAT_OPTIONS[option]
    with pytest.raises(ValueError) as library:
        for rule in rules:
            rule(name, float(value))
    result = runner.invoke(main, [*args, f"--{name}", value])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert str(library.value) in result.stderr


def test_estimate_accepts_the_smallest_delta_with_coverage_below_one(runner, schema):
    delta = math.nextafter(2.0**-54, 1.0)
    payload = invoke_json(
        runner, schema,
        ["estimate", "--mu", "2", "--epsilon", "0.2", "--delta", repr(delta), "--seed", "0"],
    )
    assert payload["ci"]["coverage"] == 1.0 - 2.0**-53
    assert payload["ci"]["lower"] < payload["mu_hat"] < payload["ci"]["upper"]


def test_tpa_ising_csv_one_row_per_run(runner):
    result = runner.invoke(
        main,
        ["tpa-ising", "--width", "2", "--height", "2", "--epsilon", "0.3",
         "--delta", "0.1", "--seed", "1", "--replicates", "3",
         "--output-format", "csv"],
    )
    assert result.exit_code == 0
    # one row per run: its index, then the run's own fields, flattened
    assert result.stdout.splitlines()[0] == (
        "replicate,degenerate,diagnostic,ratio_estimate,z_outer_estimate,"
        "r_hat1,r_hat2,epsilon2,ci_lower,ci_upper,ci_coverage,total_tpa_calls"
    )
    rows = list(csv.DictReader(io.StringIO(result.stdout)))
    assert len(rows) == 3
    assert rows[0]["replicate"] == "0"
    assert float(rows[1]["ratio_estimate"]) > 0


@pytest.mark.parametrize(
    "args, golden",
    [
        pytest.param(
            ["--width", "1", "--height", "1", "--epsilon", "0.2", "--delta", "0.1"],
            "tpa_ising_degenerate_golden.csv",
            id="degenerate",
        ),
        pytest.param(
            ["--width", "2", "--height", "2", "--epsilon", "0.3", "--delta", "0.1",
             "--seed", "1", "--replicates", "2"],
            "tpa_ising_2x2_golden.csv",
            id="2x2",
        ),
    ],
)
def test_tpa_ising_csv_golden_fixture(runner, args, golden):
    # the column order of both kinds of run, and every value, byte for byte:
    # the csv module ends each row with CRLF, so compare bytes, not text
    result = runner.invoke(main, ["tpa-ising", *args, "--output-format", "csv"])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (DATA_DIR / golden).read_bytes()


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def test_output_file_keeps_stdout_clean(runner, tmp_path):
    target = tmp_path / "out.json"
    result = runner.invoke(
        main,
        ["calibrate", "--epsilon", "0.2", "--delta", "0.05", "--output", str(target)],
    )
    assert result.exit_code == 0
    assert result.stdout == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["command"] == "calibrate"


@pytest.mark.parametrize("name", ["missing/x.json", "missing/"])
def test_output_into_a_missing_directory_is_a_usage_error(runner, tmp_path, monkeypatch, name):
    import gpas.cli as cli_module

    def no_calibration(*args, **kwargs):
        raise AssertionError("the command ran before its output path was checked")

    monkeypatch.setattr(cli_module, "calibrate", no_calibration)
    result = runner.invoke(
        main,
        ["calibrate", "--epsilon", "0.2", "--delta", "0.1", "--output", f"{tmp_path}/{name}"],
    )
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert "--output" in result.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args, header",
    [
        pytest.param(
            ["calibrate", "--epsilon", "0.2", "--delta", "0.01"],
            "command,epsilon,delta,k_cap,k,p,f_k,f_km1",
            id="calibrate",
        ),
        pytest.param(
            ["estimate", "--mu", "2", "--epsilon", "0.2", "--delta", "0.1"],
            "command,mu,epsilon,delta,seed,max_calls,"
            "k,t_prime,mu_hat,draws_used,ci_lower,ci_upper,ci_coverage",
            id="estimate",
        ),
    ],
)
def test_csv_header_is_the_command_its_inputs_then_its_results(runner, args, header):
    result = runner.invoke(main, [*args, "--output-format", "csv"])
    assert result.exit_code == 0, result.output
    assert result.stdout.splitlines()[0] == header


@pytest.mark.parametrize(
    "args, permuted",
    [
        pytest.param(
            ["estimate", "--mu", "2", "--epsilon", "0.2", "--delta", "0.1", "--seed", "3"],
            ["estimate", "--seed", "3", "--delta", "0.1", "--epsilon", "0.2", "--mu", "2"],
            id="estimate",
        ),
        pytest.param(
            ["bench", "--epsilon", "0.3", "--delta", "0.2", "--mu", "5",
             "--replicates", "3", "--seed", "1"],
            ["bench", "--seed", "1", "--replicates", "3", "--mu", "5",
             "--delta", "0.2", "--epsilon", "0.3"],
            id="bench",
        ),
    ],
)
def test_payload_does_not_follow_the_argument_order(runner, args, permuted):
    # inputs enter the payload in the order the command declares them, so
    # neither the JSON nor the CSV columns depend on the command line
    for output_format in ("json", "csv"):
        given = runner.invoke(main, [*args, "--output-format", output_format])
        command, *rest = permuted
        reordered = runner.invoke(main, [command, "--output-format", output_format, *rest])
        assert given.exit_code == reordered.exit_code == 0
        assert given.stdout == reordered.stdout


def test_stdout_carries_only_payload(runner):
    result = runner.invoke(
        main,
        ["tpa-ising", "--width", "1", "--height", "2", "--epsilon", "0.3",
         "--delta", "0.2", "--seed", "2"],
    )
    assert result.exit_code == 0
    json.loads(result.stdout)  # parses as a single JSON document
    assert "running" in result.stderr
