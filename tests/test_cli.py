"""CLI contracts: payload shapes, schema validity, exit codes, determinism."""

import csv
import io
import json
import math
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner

from cli_cases import CASES, DATA_DIR, SCHEMA, TEST_IDS, check, named_cases, prepare
from gpas.cli import main
from gpas.core import failure_probability
from gpas.errors import (
    _check_coverage_delta,
    _check_poisson_mean,
    _check_positive_finite,
    _check_unit_interval,
)
from gpas.numerics import POISSON_MEAN_MAX


@pytest.fixture(scope="module")
def schema():
    return SCHEMA


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


def test_calibrate_accepts_a_delta_whose_coverage_rounds_to_one(runner, schema):
    # calibrate reports no interval, so 1 - delta rounding to 1.0 is no matter
    payload = invoke_json(runner, schema, ["calibrate", "--epsilon", "0.2", "--delta", "1e-17"])
    assert payload["f_k"] <= 1e-17 < payload["f_km1"]


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def test_estimate_byte_identical_reruns(runner):
    args = ["estimate", "--mu", "3.5", "--epsilon", "0.25", "--delta", "0.05",
            "--seed", "42"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.stdout == second.stdout


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


@pytest.mark.parametrize(
    "golden", ["tpa_ising_golden.json", "tpa_ising_4x4_golden.json", "tpa_ising_6x4_golden.json"]
)
def test_schema_closes_both_tpa_ising_shapes(schema, golden):
    # the payload and each of its runs share one list of run fields, and
    # each shape still rejects a field it does not list or one it lacks
    payload = json.loads((DATA_DIR / golden).read_text())
    jsonschema.validate(payload, schema)
    run = payload["runs"][0]
    without_r_hat1 = {key: value for key, value in payload.items() if key != "r_hat1"}
    for broken in (
        {**payload, "extra": 1},
        {**payload, "runs": [{**run, "extra": 1}, *payload["runs"][1:]]},
        without_r_hat1,
    ):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(broken, schema)


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


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# the cases of tests/cli_cases.py, run in process
# ---------------------------------------------------------------------------


def _run_cases(test_id, tmp_path):
    for i, (name, case) in enumerate(named_cases(test_id)):
        tmp = tmp_path / str(i)
        tmp.mkdir()
        args, env = prepare(case, tmp)
        result = CliRunner().invoke(main, args, env=env, catch_exceptions=False)
        check(name, case, result.exit_code, result.stdout_bytes, result.stderr, tmp)


def _manifest_test(name, params):
    # one test per name in the manifest, parametrised by its bracketed ids,
    # so each case keeps the test id it had before it moved there
    if params:
        @pytest.mark.parametrize("param", params)
        def run(tmp_path, param):
            _run_cases(f"{name}[{param}]", tmp_path)
    else:
        def run(tmp_path):
            _run_cases(name, tmp_path)
    run.__name__ = name
    return run


def _manifest_tests():
    params = {}
    for test_id in TEST_IDS:
        name, _, param = test_id.partition("[")
        params.setdefault(name, []).extend([param.rstrip("]")] if param else [])
    return {name: _manifest_test(name, ids) for name, ids in params.items()}


globals().update(_manifest_tests())


def test_every_golden_is_named_and_every_named_golden_exists():
    named = {
        expected
        for case in CASES
        for expected in (case.get("stdout"), *case.get("files", {}).values())
        if isinstance(expected, str)
    }
    assert sorted(name for name in named if not (DATA_DIR / name).is_file()) == []
    tests = "".join(path.read_text() for path in Path(__file__).parent.glob("test_*.py"))
    unnamed = [path.name for path in DATA_DIR.glob("*_golden.*")
               if path.name not in named and path.name not in tests]
    assert unnamed == []
